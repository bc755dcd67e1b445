//! Seeded noise sources for the behavioral models.
//!
//! Every stochastic effect in the reproduction is driven through
//! [`NoiseSource`], a seeded Gaussian generator, so experiments are
//! repeatable (the paper's Fig. 9 repeats each measurement 25 times — our
//! harness does the same with 25 seeds).
//!
//! The dominant sampled-noise mechanism in SC circuits is `kT/C` noise:
//! each sampling event freezes a noise charge with variance `kT/C` on the
//! sampling capacitor.
//!
//! ## Buffering contract
//!
//! Gaussian synthesis is batched internally: the xoshiro256++ → uniform →
//! Box–Muller pipeline refills a buffer of [`NORMAL_REFILL`] standard
//! normals at a time, so the `ln`/`cos`/`sqrt` transcendentals run over a
//! contiguous block instead of call-at-a-time. The buffering is purely a
//! scheduling change — it only alters *when* the underlying RNG advances,
//! never the observable value stream:
//!
//! * **Stream order.** The `i`-th standard normal ever *consumed* from a
//!   source is computed from raw RNG draws `2i` and `2i + 1`, exactly as
//!   the pre-buffering per-call implementation did. Any interleaving of
//!   [`NoiseSource::gaussian`], [`NoiseSource::ktc`],
//!   [`NoiseSource::white`] and [`NoiseSource::fill_gaussian`] observes
//!   the same sequence of normals as an unbatched implementation.
//! * **No-draw alignment.** `gaussian(0.0)` and every call on a
//!   [`NoiseSource::disabled`] source return `0.0` **without consuming a
//!   buffered normal** (the scalar reference would not have advanced the
//!   RNG either), so zero-σ calls never shift the stream.
//! * **Default mode is byte-identical.** The buffered path evaluates the
//!   exact same `(-2·ln u₁)·√ · cos(2π·u₂)` expressions through the same
//!   `libm` calls as before, so every golden fixture and shard/checkpoint
//!   byte-identity test is unaffected.
//! * **Evaluation order is not draw order.** Within a refill, the default
//!   mode evaluates the `cos(2π·u₂)` calls grouped by angle bucket (the
//!   top 6 bits of each angle draw), so libm's range and quadrant
//!   branches predict well, and then forms every product in draw order.
//!   Each cosine is the same call on the same argument, so the order is
//!   invisible in the stream; it only makes the refill faster.
//!
//! ## `fast-math` caveat
//!
//! With the crate feature `fast-math` compiled in *and*
//! `NoiseSource::with_fast_math` opted into at runtime, the refill loop
//! uses polynomial `ln`/`cos` kernels (absolute error on the synthesized
//! normals ≲ 1e-7; see `fast` module docs). That mode deliberately breaks
//! bit-identity with the default stream and is never enabled implicitly —
//! the default remains byte-identical even when the feature is compiled
//! in. The measured error is far below every physical noise floor in the
//! models, and enclosure-style reporting absorbs it.

// No external `rand` dependency: the workspace builds fully offline, so the
// uniform source is an in-tree xoshiro256++ generator seeded via SplitMix64.

/// Boltzmann constant in J/K.
pub const BOLTZMANN: f64 = 1.380_649e-23;
/// Default simulation temperature in kelvin (27 °C).
pub const ROOM_TEMPERATURE_K: f64 = 300.15;

/// Number of standard normals synthesized per internal refill.
///
/// Small enough that a refill (2 KiB of normals, 4 KiB of raw draws and
/// four 2 KiB scratch arrays on the stack) stays cache-resident; large
/// enough to amortize the batched transcendental loop.
pub const NORMAL_REFILL: usize = 256;

/// RMS voltage of `kT/C` sampling noise for a capacitance in farads.
///
/// # Panics
///
/// Panics if `capacitance_farads` is not strictly positive (a zero or
/// negative capacitance has no physical `kT/C` variance and would
/// silently yield `inf`/NaN noise).
///
/// # Example
///
/// ```
/// use mixsig::noise::ktc_noise_rms;
/// // 1 pF ≈ 64 µV rms at room temperature.
/// let v = ktc_noise_rms(1.0e-12);
/// assert!((v - 64.4e-6).abs() < 1.0e-6);
/// ```
pub fn ktc_noise_rms(capacitance_farads: f64) -> f64 {
    assert!(
        capacitance_farads > 0.0,
        "kT/C noise requires a strictly positive capacitance, got {capacitance_farads}"
    );
    (BOLTZMANN * ROOM_TEMPERATURE_K / capacitance_farads).sqrt()
}

/// A seeded xoshiro256++ uniform generator (public-domain algorithm by
/// Blackman & Vigna), state-initialized with SplitMix64.
#[derive(Debug, Clone)]
struct Xoshiro256pp {
    state: [u64; 4],
}

impl Xoshiro256pp {
    fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 expansion of the seed, as recommended by the authors.
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Self {
            state: [next(), next(), next(), next()],
        }
    }

    #[cfg(test)]
    fn next_u64(&mut self) -> u64 {
        let mut out = [0u64];
        self.fill_u64(&mut out);
        out[0]
    }

    /// Fills `out` with the next `out.len()` raw draws — the block
    /// generator behind the refill loop. The state round-trips through
    /// locals so the compiler keeps it in registers across the whole
    /// block.
    fn fill_u64(&mut self, out: &mut [u64]) {
        let [mut s0, mut s1, mut s2, mut s3] = self.state;
        for o in out.iter_mut() {
            *o = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
            let t = s1 << 17;
            s2 ^= s0;
            s3 ^= s1;
            s1 ^= s2;
            s0 ^= s3;
            s2 ^= t;
            s3 = s3.rotate_left(45);
        }
        self.state = [s0, s1, s2, s3];
    }
}

/// Converts one raw draw into a uniform in `[f64::EPSILON, 1.0)` —
/// strictly positive so `ln()` in Box–Muller is finite.
#[inline(always)]
fn uniform_from_bits(raw: u64) -> f64 {
    // `v = raw >> 11` fits in 53 bits. Splitting it as `hi·2²⁶ + lo` with
    // both halves below 2²⁷ makes every conversion an exact i32→f64 (which
    // vectorizes, unlike u64→f64), and the recombination is exact integer
    // arithmetic in f64 — the result is bit-identical to a direct u64
    // conversion of `v`.
    let v = raw >> 11;
    // netan-lint: allow(lossy-cast): `v >> 26` is at most 27 bits, well inside i32 range
    let hi = (v >> 26) as i32;
    // netan-lint: allow(lossy-cast): masked to 26 bits, well inside i32 range
    let lo = (v & 0x3FF_FFFF) as i32;
    let u = (f64::from(hi) * 67_108_864.0 + f64::from(lo)) * (1.0 / (1u64 << 53) as f64);
    u.max(f64::EPSILON)
}

/// De-interleaves a raw refill block into the two Box–Muller argument
/// arrays (`u1[i]` ← draw `2i`, `u2[i]` ← draw `2i + 1`), converting each
/// to a uniform. Integer-exact arithmetic throughout, so the values are
/// identical on every dispatch target.
#[inline(always)]
fn deinterleave_uniforms(
    raw: &[u64; 2 * NORMAL_REFILL],
    u1: &mut [f64; NORMAL_REFILL],
    u2: &mut [f64; NORMAL_REFILL],
) {
    for ((a, b), uv) in u1.iter_mut().zip(u2.iter_mut()).zip(raw.chunks_exact(2)) {
        *a = uniform_from_bits(uv[0]);
        *b = uniform_from_bits(uv[1]);
    }
}

/// AVX2-compiled clone of [`deinterleave_uniforms`] (same source, wider
/// autovectorization; value-identical — the pass is integer-exact).
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn deinterleave_uniforms_avx2(
    raw: &[u64; 2 * NORMAL_REFILL],
    u1: &mut [f64; NORMAL_REFILL],
    u2: &mut [f64; NORMAL_REFILL],
) {
    deinterleave_uniforms(raw, u1, u2);
}

/// Number of angle buckets the libm refill sorts its cosine arguments
/// into (see [`angle_bucket_order`]).
const COS_BUCKETS: usize = 64;

/// Bucket of an angle draw: its top 6 bits, which equal `floor(64·u₂)`
/// for the uniform `u₂` that [`uniform_from_bits`] builds from it.
#[inline(always)]
fn angle_bucket(raw: u64) -> usize {
    // netan-lint: allow(lossy-cast): `raw >> 58` is at most 6 bits, well inside usize range
    (raw >> 58) as usize
}

/// Writes the batch indices `0..NORMAL_REFILL` into `order`, stably
/// counting-sorted by the [`angle_bucket`] of each normal's angle draw
/// (`raw[2i + 1]`).
///
/// The bucket edges are multiples of `2π/64` rad, so they line up with
/// the quadrant and octant boundaries where libm's `cos` picks its range
/// reduction and polynomial; evaluating in this order makes those picks
/// predictable instead of random.
#[inline(always)]
fn angle_bucket_order(raw: &[u64; 2 * NORMAL_REFILL], order: &mut [usize; NORMAL_REFILL]) {
    let mut cursor = [0usize; COS_BUCKETS];
    for pair in raw.chunks_exact(2) {
        cursor[angle_bucket(pair[1])] += 1;
    }
    // Exclusive prefix sum: each bucket's count becomes its first slot.
    let mut start = 0;
    for c in &mut cursor {
        let n = *c;
        *c = start;
        start += n;
    }
    for (i, pair) in raw.chunks_exact(2).enumerate() {
        let c = &mut cursor[angle_bucket(pair[1])];
        order[*c] = i;
        *c += 1;
    }
}

/// Polynomial transcendental kernels for the opt-in fast-math refill.
///
/// Both kernels are exact-range implementations for the Box–Muller
/// arguments only (`u ∈ [2⁻⁵³, 1)` turns — no general range reduction),
/// with absolute error ≲ 2e-9 on their own outputs and ≲ 1e-7 on the
/// synthesized normals (the `√(−2·ln u₁)` factor can reach ~8.6, scaling
/// the cosine error up).
///
/// Both are written branch-free over plain lane-wise operations, so the
/// batched synthesis loop autovectorizes; on x86-64 the refill dispatches
/// at runtime to an AVX2-compiled version of the same loop when the CPU
/// supports it. The lane width never changes the arithmetic — every lane
/// performs the identical IEEE operation sequence — so the fast-math
/// stream is the same on every dispatch path.
#[cfg(feature = "fast-math")]
mod fast {
    /// `ln(u)` for `u ∈ [2⁻⁵³, 1)`: exponent/mantissa split, then the
    /// atanh series `ln m = 2·(s + s³/3 + … + s¹¹/11)` with
    /// `s = (m−1)/(m+1)` over `m ∈ [√½, √2)` (|s| ≤ 0.172).
    #[inline(always)]
    pub fn ln(u: f64) -> f64 {
        const LN2: f64 = std::f64::consts::LN_2;
        let bits = u.to_bits();
        // The biased exponent fits in 12 bits, so a 32-bit extraction is
        // exact and keeps the int→float convert vectorizable.
        // netan-lint: allow(lossy-cast): `bits >> 52` is at most 12 bits, well inside i32 range
        let e0 = ((bits >> 52) as i32 & 0x7FF) - 1023;
        let m0 = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) | 0x3FF0_0000_0000_0000);
        // Branch-free normalization (the mantissa's top bit is effectively
        // random here, so a real branch would mispredict half the time).
        let big = m0 > std::f64::consts::SQRT_2;
        let m = if big { m0 * 0.5 } else { m0 };
        let e = e0 + i32::from(big);
        let s = (m - 1.0) / (m + 1.0);
        let s2 = s * s;
        let series = s
            * (2.0
                + s2 * (2.0 / 3.0
                    + s2 * (2.0 / 5.0 + s2 * (2.0 / 7.0 + s2 * (2.0 / 9.0 + s2 * (2.0 / 11.0))))));
        f64::from(e) * LN2 + series
    }

    /// `cos(2π·x)` for `x ∈ [0, 1)`: quadrant reduction in turns, then
    /// degree-10/9 sin/cos polynomials on `|r| ≤ π/4`.
    ///
    /// Both polynomials are evaluated unconditionally and the quadrant
    /// picks between them arithmetically — the quadrant of a uniform draw
    /// is random, so a real branch would mispredict half the time.
    #[inline(always)]
    pub fn cos_two_pi(x: f64) -> f64 {
        let t = 4.0 * x;
        // `t + 0.5 ∈ [0.5, 4.5)`, so 32-bit integer truncation *is*
        // `floor` — and unlike `f64::floor`, it cannot fall back to a libm
        // call on baseline x86-64 (and it vectorizes).
        // netan-lint: allow(lossy-cast): truncation of `t + 0.5 ∈ [0.5, 4.5)` is the intended floor
        let ki = (t + 0.5) as i32;
        let k = f64::from(ki);
        let r = (t - k) * std::f64::consts::FRAC_PI_2;
        let r2 = r * r;
        let c = 1.0
            + r2 * (-0.5
                + r2 * (1.0 / 24.0
                    + r2 * (-1.0 / 720.0 + r2 * (1.0 / 40_320.0 + r2 * (-1.0 / 3_628_800.0)))));
        let s = r
            * (1.0
                + r2 * (-1.0 / 6.0
                    + r2 * (1.0 / 120.0 + r2 * (-1.0 / 5_040.0 + r2 * (1.0 / 362_880.0)))));
        // Quadrant 0 → +c, 1 → −s, 2 → −c, 3 → +s. The sign flips and the
        // c/s pick are pure bit operations (sign-bit XOR and a mask
        // select), so no data-dependent branch exists and the results are
        // exactly the ±1.0-multiplied values of the branched form.
        // netan-lint: allow(lossy-cast): `ki ∈ [0, 4]`, so the widening to u64 is value-preserving
        let q = ki as u64;
        let c_signed = f64::from_bits(c.to_bits() ^ ((q & 2) << 62));
        let s_signed = f64::from_bits(s.to_bits() ^ ((!q & 2) << 62));
        let pick_s = (q & 1).wrapping_neg();
        f64::from_bits((c_signed.to_bits() & !pick_s) | (s_signed.to_bits() & pick_s))
    }

    /// Box–Muller over the whole refill batch with the polynomial kernels:
    /// `out[i] = √(−2·ln u1[i]) · cos(2π·u2[i])`.
    ///
    /// The loop body is branch-free lane arithmetic, so the compiler
    /// vectorizes it; identical IEEE operations run per lane regardless of
    /// lane width, so every dispatch target below produces the same
    /// stream.
    #[inline(always)]
    fn synthesize_lanes(
        u1: &[f64; super::NORMAL_REFILL],
        u2: &[f64; super::NORMAL_REFILL],
        out: &mut [f64; super::NORMAL_REFILL],
    ) {
        for ((z, &a), &b) in out.iter_mut().zip(u1.iter()).zip(u2.iter()) {
            *z = (-2.0 * ln(a)).sqrt() * cos_two_pi(b);
        }
    }

    /// AVX2-compiled clone of [`synthesize_lanes`] (same source, wider
    /// autovectorization). Bit-identical to the portable build: no
    /// FP contraction is enabled, so each lane still performs the exact
    /// operation sequence of the scalar kernels.
    ///
    /// # Safety
    ///
    /// Caller must ensure the CPU supports AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn synthesize_avx2(
        u1: &[f64; super::NORMAL_REFILL],
        u2: &[f64; super::NORMAL_REFILL],
        out: &mut [f64; super::NORMAL_REFILL],
    ) {
        synthesize_lanes(u1, u2, out);
    }

    /// Synthesizes the batch through the widest instruction set the CPU
    /// offers (checked once, cached by `is_x86_feature_detected!`).
    pub fn synthesize(
        u1: &[f64; super::NORMAL_REFILL],
        u2: &[f64; super::NORMAL_REFILL],
        out: &mut [f64; super::NORMAL_REFILL],
    ) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: dispatch guarded by the runtime feature check.
            unsafe { synthesize_avx2(u1, u2, out) };
            return;
        }
        synthesize_lanes(u1, u2, out);
    }
}

/// A seeded Gaussian noise source.
#[derive(Clone)]
pub struct NoiseSource {
    rng: Xoshiro256pp,
    enabled: bool,
    /// Next unconsumed slot in `buf`; `NORMAL_REFILL` means empty.
    pos: usize,
    /// Pre-synthesized standard normals (see module docs).
    buf: [f64; NORMAL_REFILL],
    #[cfg(feature = "fast-math")]
    fast_math: bool,
}

impl std::fmt::Debug for NoiseSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("NoiseSource");
        s.field("rng", &self.rng)
            .field("enabled", &self.enabled)
            .field("buffered", &(NORMAL_REFILL - self.pos));
        #[cfg(feature = "fast-math")]
        s.field("fast_math", &self.fast_math);
        s.finish()
    }
}

impl NoiseSource {
    /// Creates a noise source from a seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: Xoshiro256pp::seed_from_u64(seed),
            enabled: true,
            pos: NORMAL_REFILL,
            buf: [0.0; NORMAL_REFILL],
            #[cfg(feature = "fast-math")]
            fast_math: false,
        }
    }

    /// A disabled source that always returns zero — the "ideal" mode.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::new(0)
        }
    }

    /// Whether the source produces nonzero samples.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Opts this source into the polynomial fast-math refill kernels
    /// (see module docs — breaks bit-identity with the default stream).
    ///
    /// Only available with the `fast-math` crate feature; even then the
    /// default remains the exact `libm` path.
    #[cfg(feature = "fast-math")]
    #[must_use]
    pub fn with_fast_math(mut self, enabled: bool) -> Self {
        self.set_fast_math(enabled);
        self
    }

    /// In-place variant of [`with_fast_math`](Self::with_fast_math), for
    /// opting in a source that is already embedded in a consumer.
    ///
    /// Already-buffered normals are kept: the switch only affects draws
    /// synthesized by future refills.
    #[cfg(feature = "fast-math")]
    pub fn set_fast_math(&mut self, enabled: bool) {
        self.fast_math = enabled;
    }

    /// One zero-mean Gaussian sample with the given standard deviation.
    ///
    /// Returns `0.0` without consuming a draw when the source is disabled
    /// or `sigma == 0.0` (see the module-level buffering contract).
    #[inline]
    pub fn gaussian(&mut self, sigma: f64) -> f64 {
        if !self.enabled || sigma == 0.0 {
            return 0.0;
        }
        sigma * self.standard_normal()
    }

    /// Fills `out` with independent zero-mean Gaussian samples of standard
    /// deviation `sigma` — bit-identical to calling
    /// [`gaussian`](Self::gaussian) in a loop (including the zero-σ /
    /// disabled case, which writes zeros and consumes nothing).
    pub fn fill_gaussian(&mut self, sigma: f64, out: &mut [f64]) {
        if !self.enabled || sigma == 0.0 {
            out.fill(0.0);
            return;
        }
        let mut filled = 0;
        while filled < out.len() {
            if self.pos == NORMAL_REFILL {
                self.refill();
            }
            let take = (out.len() - filled).min(NORMAL_REFILL - self.pos);
            for (y, &z) in out[filled..filled + take]
                .iter_mut()
                .zip(&self.buf[self.pos..self.pos + take])
            {
                *y = sigma * z;
            }
            self.pos += take;
            filled += take;
        }
    }

    /// One `kT/C` noise voltage sample for a capacitance in farads.
    ///
    /// # Panics
    ///
    /// Panics if `capacitance_farads` is not strictly positive (see
    /// [`ktc_noise_rms`]).
    pub fn ktc(&mut self, capacitance_farads: f64) -> f64 {
        self.gaussian(ktc_noise_rms(capacitance_farads))
    }

    /// One sample of a white noise voltage of the given density (V/√Hz)
    /// observed in a bandwidth of `bandwidth_hz`.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_hz` is negative (a negative bandwidth has no
    /// physical meaning and would silently yield NaN noise; zero is
    /// allowed and yields zero noise without consuming a draw).
    pub fn white(&mut self, density_v_rt_hz: f64, bandwidth_hz: f64) -> f64 {
        assert!(
            bandwidth_hz >= 0.0,
            "white noise bandwidth must be non-negative, got {bandwidth_hz}"
        );
        self.gaussian(density_v_rt_hz * bandwidth_hz.sqrt())
    }

    /// Next buffered standard normal, refilling as needed.
    #[inline]
    fn standard_normal(&mut self) -> f64 {
        if self.pos == NORMAL_REFILL {
            self.refill();
        }
        let z = self.buf[self.pos];
        self.pos += 1;
        z
    }

    /// Synthesizes the next [`NORMAL_REFILL`] standard normals in one
    /// batch: one block of raw draws, then the Box–Muller transform over
    /// the contiguous buffer. Normal `i` of the batch uses raw draws
    /// `2i` and `2i + 1` — the per-call draw order exactly.
    ///
    /// The default (libm) path evaluates the batch's cosines in
    /// [`angle_bucket_order`] rather than draw order, into a scratch
    /// array, then forms `√(−2·ln u₁)·cos` in draw order. Same calls on
    /// the same arguments, so the normals are bit-identical; sorted
    /// angles keep libm's argument-range branches predictable.
    #[inline(never)]
    fn refill(&mut self) {
        let mut raw = [0u64; 2 * NORMAL_REFILL];
        self.rng.fill_u64(&mut raw);
        // De-interleave into struct-of-arrays form: normal `i` of the
        // batch uses raw draws `2i` (magnitude) and `2i + 1` (angle) — the
        // per-call draw order exactly.
        let mut u1 = [0.0f64; NORMAL_REFILL];
        let mut u2 = [0.0f64; NORMAL_REFILL];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just checked.
            unsafe { deinterleave_uniforms_avx2(&raw, &mut u1, &mut u2) };
        } else {
            deinterleave_uniforms(&raw, &mut u1, &mut u2);
        }
        #[cfg(not(target_arch = "x86_64"))]
        deinterleave_uniforms(&raw, &mut u1, &mut u2);
        #[cfg(feature = "fast-math")]
        if self.fast_math {
            fast::synthesize(&u1, &u2, &mut self.buf);
            self.pos = 0;
            return;
        }
        // Box–Muller, through the same libm calls on the same arguments as
        // the historical per-call path — byte-identical stream by
        // construction; only the cosines run in bucket order.
        let mut order = [0usize; NORMAL_REFILL];
        angle_bucket_order(&raw, &mut order);
        let mut cos = [0.0f64; NORMAL_REFILL];
        for &i in &order {
            cos[i] = (2.0 * std::f64::consts::PI * u2[i]).cos();
        }
        for ((z, &a), &c) in self.buf.iter_mut().zip(u1.iter()).zip(cos.iter()) {
            *z = (-2.0 * a.ln()).sqrt() * c;
        }
        self.pos = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The historical per-call reference: draw two uniforms, Box–Muller.
    fn scalar_standard_normal(rng: &mut Xoshiro256pp) -> f64 {
        let u1 = uniform_from_bits(rng.next_u64());
        let u2 = uniform_from_bits(rng.next_u64());
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    #[test]
    fn disabled_source_is_silent() {
        let mut n = NoiseSource::disabled();
        for _ in 0..100 {
            assert_eq!(n.gaussian(1.0), 0.0);
            assert_eq!(n.ktc(1.0e-12), 0.0);
        }
        assert!(!n.is_enabled());
    }

    #[test]
    fn seeding_is_deterministic() {
        let mut a = NoiseSource::new(42);
        let mut b = NoiseSource::new(42);
        for _ in 0..32 {
            assert_eq!(a.gaussian(1.0), b.gaussian(1.0));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = NoiseSource::new(1);
        let mut b = NoiseSource::new(2);
        let same = (0..16)
            .filter(|_| a.gaussian(1.0) == b.gaussian(1.0))
            .count();
        assert!(same < 2);
    }

    #[test]
    fn buffered_stream_matches_scalar_reference_across_refills() {
        // 64+ refills per seed, drained alternately by single draws and by
        // ragged `fill_gaussian` chunks that straddle refill boundaries:
        // the batched, angle-bucketed pipeline must reproduce the per-call
        // Box–Muller sequence bit-for-bit.
        let chunks = [1, 37, 255, 256, 257, 3, 511];
        for seed in [0, 1, 2, 7, 42, 1234, 0xDEAD_BEEF, u64::MAX] {
            let mut src = NoiseSource::new(seed);
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let mut drawn = 0;
            let mut buf = [0.0; 511];
            for &len in chunks.iter().cycle() {
                if drawn >= 64 * NORMAL_REFILL {
                    break;
                }
                let want = scalar_standard_normal(&mut rng);
                assert_eq!(want, src.gaussian(1.0), "seed {seed}, normal {drawn}");
                drawn += 1;
                src.fill_gaussian(1.0, &mut buf[..len]);
                for (k, &got) in buf[..len].iter().enumerate() {
                    let want = scalar_standard_normal(&mut rng);
                    assert_eq!(want, got, "seed {seed}, normal {}", drawn + k);
                }
                drawn += len;
            }
        }
    }

    /// A raw refill block whose angle draw `i` is `angle(i)`; the
    /// magnitude draws never influence the order.
    fn raw_with_angles(angle: impl Fn(usize) -> u64) -> [u64; 2 * NORMAL_REFILL] {
        let mut raw = [0u64; 2 * NORMAL_REFILL];
        for (i, pair) in raw.chunks_exact_mut(2).enumerate() {
            pair[0] = 0x5555_5555_5555_5555 ^ i as u64;
            pair[1] = angle(i);
        }
        raw
    }

    /// Runs [`angle_bucket_order`] and checks that the result is a
    /// permutation of the batch indices, sorted by bucket and stable
    /// within each bucket.
    fn checked_order(raw: &[u64; 2 * NORMAL_REFILL]) -> [usize; NORMAL_REFILL] {
        let mut order = [usize::MAX; NORMAL_REFILL];
        angle_bucket_order(raw, &mut order);
        let mut seen = [false; NORMAL_REFILL];
        for &i in &order {
            assert!(i < NORMAL_REFILL, "index {i} out of range");
            assert!(!seen[i], "index {i} appears twice");
            seen[i] = true;
        }
        for w in order.windows(2) {
            let key = |i: usize| (angle_bucket(raw[2 * i + 1]), i);
            assert!(key(w[0]) < key(w[1]), "{w:?} out of bucket order");
        }
        order
    }

    #[test]
    fn bucket_order_keeps_draw_order_within_one_bucket() {
        for angle in [0, 0x0123_4567_89AB_CDEF, u64::MAX] {
            let order = checked_order(&raw_with_angles(|i| angle ^ i as u64));
            assert!(order.iter().enumerate().all(|(k, &i)| k == i));
        }
    }

    #[test]
    fn bucket_order_splits_alternating_extremes() {
        let order = checked_order(&raw_with_angles(|i| if i % 2 == 0 { 0 } else { u64::MAX }));
        let (low, high) = order.split_at(NORMAL_REFILL / 2);
        assert!(low.iter().enumerate().all(|(k, &i)| i == 2 * k));
        assert!(high.iter().enumerate().all(|(k, &i)| i == 2 * k + 1));
    }

    #[test]
    fn bucket_order_sorts_every_bucket() {
        // Draw `i` lands in bucket `(i · 37) mod 64`, so every bucket is
        // hit four times, in scrambled draw order.
        let raw = raw_with_angles(|i| (((i * 37) % COS_BUCKETS) as u64) << 58 | i as u64);
        let order = checked_order(&raw);
        for (k, &i) in order.iter().enumerate() {
            assert_eq!(
                angle_bucket(raw[2 * i + 1]),
                k / (NORMAL_REFILL / COS_BUCKETS)
            );
        }
    }

    #[test]
    fn fill_gaussian_matches_per_sample_loop() {
        let mut by_call = NoiseSource::new(77);
        let mut by_block = NoiseSource::new(77);
        // Uneven chunks straddling several refill boundaries.
        let total = 2 * NORMAL_REFILL + 101;
        let want: Vec<f64> = (0..total).map(|_| by_call.gaussian(0.25)).collect();
        let mut got = vec![0.0; total];
        for chunk in got.chunks_mut(37) {
            by_block.fill_gaussian(0.25, chunk);
        }
        assert_eq!(want, got);
        // The two sources must stay aligned afterwards, too.
        assert_eq!(by_call.gaussian(1.0), by_block.gaussian(1.0));
    }

    #[test]
    fn zero_sigma_consumes_no_draw() {
        let mut with_zeros = NoiseSource::new(5);
        let mut without = NoiseSource::new(5);
        let a0 = with_zeros.gaussian(1.0);
        assert_eq!(with_zeros.gaussian(0.0), 0.0);
        let mut sink = [0.0; 8];
        with_zeros.fill_gaussian(0.0, &mut sink);
        assert_eq!(sink, [0.0; 8]);
        let a1 = with_zeros.gaussian(1.0);
        assert_eq!(a0, without.gaussian(1.0));
        assert_eq!(a1, without.gaussian(1.0));
    }

    #[test]
    fn gaussian_statistics() {
        let mut n = NoiseSource::new(7);
        let count = 200_000;
        let samples: Vec<f64> = (0..count).map(|_| n.gaussian(2.0)).collect();
        let mean = samples.iter().sum::<f64>() / count as f64;
        let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / count as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.02, "sigma {}", var.sqrt());
    }

    #[test]
    fn ktc_scales_inverse_sqrt_c() {
        let v1 = ktc_noise_rms(1.0e-12);
        let v4 = ktc_noise_rms(4.0e-12);
        assert!((v1 / v4 - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive capacitance")]
    fn zero_capacitance_rejected() {
        let _ = ktc_noise_rms(0.0);
    }

    #[test]
    #[should_panic(expected = "positive capacitance")]
    fn negative_capacitance_rejected() {
        let _ = ktc_noise_rms(-1.0e-12);
    }

    #[test]
    #[should_panic(expected = "positive capacitance")]
    fn ktc_draw_rejects_nonpositive_capacitance() {
        let mut n = NoiseSource::new(1);
        let _ = n.ktc(-1.0e-12);
    }

    #[test]
    fn white_noise_scales_with_sqrt_bandwidth() {
        let mut a = NoiseSource::new(3);
        let mut b = NoiseSource::new(3);
        let x = a.white(10e-9, 1.0e6);
        let y = b.white(10e-9, 4.0e6);
        assert!((y / x - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_bandwidth_rejected() {
        let mut n = NoiseSource::new(1);
        let _ = n.white(10e-9, -1.0);
    }

    #[test]
    fn zero_bandwidth_is_silent_and_draw_free() {
        let mut a = NoiseSource::new(11);
        let mut b = NoiseSource::new(11);
        assert_eq!(a.white(10e-9, 0.0), 0.0);
        assert_eq!(a.gaussian(1.0), b.gaussian(1.0));
    }

    #[test]
    fn zero_sigma_is_zero() {
        let mut n = NoiseSource::new(9);
        assert_eq!(n.gaussian(0.0), 0.0);
    }

    #[test]
    fn raw_block_generator_matches_single_draws() {
        let mut by_one = Xoshiro256pp::seed_from_u64(99);
        let mut by_block = Xoshiro256pp::seed_from_u64(99);
        let mut block = [0u64; 1000];
        by_block.fill_u64(&mut block);
        for (i, &b) in block.iter().enumerate() {
            assert_eq!(by_one.next_u64(), b, "draw {i}");
        }
        assert_eq!(by_one.state, by_block.state);
    }

    #[cfg(feature = "fast-math")]
    mod fast_math {
        use super::*;

        #[test]
        fn fast_kernels_track_libm() {
            let mut rng = Xoshiro256pp::seed_from_u64(4);
            for _ in 0..100_000 {
                let u = uniform_from_bits(rng.next_u64());
                assert!(
                    (fast::ln(u) - u.ln()).abs() < 2e-9,
                    "ln({u}): {} vs {}",
                    fast::ln(u),
                    u.ln()
                );
                let c = fast::cos_two_pi(u);
                let c_ref = (2.0 * std::f64::consts::PI * u).cos();
                assert!((c - c_ref).abs() < 2e-9, "cos(2π·{u}): {c} vs {c_ref}");
            }
        }

        #[test]
        fn fast_normals_stay_close_to_exact_stream() {
            let mut exact = NoiseSource::new(21);
            let mut fast = NoiseSource::new(21).with_fast_math(true);
            let mut max_err = 0.0f64;
            for _ in 0..(4 * NORMAL_REFILL) {
                let a = exact.gaussian(1.0);
                let b = fast.gaussian(1.0);
                max_err = max_err.max((a - b).abs());
            }
            assert!(max_err < 1e-7, "max deviation {max_err}");
            assert!(max_err > 0.0, "fast path unexpectedly bit-identical");
        }

        #[test]
        fn fast_math_defaults_off_even_when_compiled_in() {
            let mut plain = NoiseSource::new(31);
            let mut opted_out = NoiseSource::new(31).with_fast_math(false);
            for _ in 0..NORMAL_REFILL + 3 {
                assert_eq!(plain.gaussian(1.0), opted_out.gaussian(1.0));
            }
        }

        #[test]
        fn fast_statistics_remain_standard_normal() {
            let mut n = NoiseSource::new(8).with_fast_math(true);
            let count = 200_000;
            let samples: Vec<f64> = (0..count).map(|_| n.gaussian(1.0)).collect();
            let mean = samples.iter().sum::<f64>() / count as f64;
            let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / count as f64;
            assert!(mean.abs() < 0.01, "mean {mean}");
            assert!((var.sqrt() - 1.0).abs() < 0.01, "sigma {}", var.sqrt());
        }
    }
}
