//! The quadrature modulation square waves `SQ_kT(t)` and `SQ_kT(t − T/4k)`.
//!
//! Both waves are derived digitally from the master clock: with `N`
//! samples per stimulus period and harmonic index `k`, the in-phase wave
//! has period `N/k` samples and the quadrature wave is the same wave
//! delayed by `N/(4k)` samples. The paper's validity condition — `N/(8k)`
//! integer — guarantees both the delay and the half-period land on sample
//! boundaries.
//!
//! The signature DSP needs the *discrete* fundamental coefficient of the
//! sampled square wave (its magnitude approaches `2/π` for large `N/k`);
//! [`QuadratureSquareWave::fundamental_coefficient`] computes it exactly so
//! amplitude and phase calibration are bit-accurate at any `N`.

use dsp::Complex64;
use std::f64::consts::PI;

/// Error constructing a square-wave pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SquareWaveError {
    /// `N` must be a positive multiple of `8k` (paper Section III.B).
    InvalidRatio {
        /// Oversampling ratio requested.
        n: u32,
        /// Harmonic index requested.
        k: u32,
    },
}

impl std::fmt::Display for SquareWaveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SquareWaveError::InvalidRatio { n, k } => {
                write!(
                    f,
                    "oversampling ratio {n} is not a multiple of 8k = {}",
                    8 * k
                )
            }
        }
    }
}

impl std::error::Error for SquareWaveError {}

/// The pair of modulation square waves for harmonic `k` at oversampling
/// ratio `N`.
///
/// `k = 0` degenerates to the constant `+1` (DC measurement, paper eq. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuadratureSquareWave {
    k: u32,
    n: u32,
}

impl QuadratureSquareWave {
    /// Creates the square-wave pair.
    ///
    /// # Errors
    ///
    /// Returns [`SquareWaveError::InvalidRatio`] when `k > 0` and `N` is
    /// not a positive multiple of `8k`.
    pub fn new(k: u32, n: u32) -> Result<Self, SquareWaveError> {
        if n == 0 || (k > 0 && !n.is_multiple_of(8 * k)) {
            return Err(SquareWaveError::InvalidRatio { n, k });
        }
        Ok(Self { k, n })
    }

    /// Harmonic index `k`.
    pub fn k(self) -> u32 {
        self.k
    }

    /// Oversampling ratio `N`.
    pub fn n(self) -> u32 {
        self.n
    }

    /// In-phase value (`+1`/`−1`) at master-clock sample `sample`.
    pub fn in_phase(self, sample: u64) -> i8 {
        if self.k == 0 {
            return 1;
        }
        // Position within the stimulus period scaled by k; positive while
        // the wave is in the first half of its own period.
        let pos = (u64::from(self.k) * sample) % u64::from(self.n);
        if 2 * pos < u64::from(self.n) {
            1
        } else {
            -1
        }
    }

    /// Quadrature value at sample `sample`: the in-phase wave delayed by a
    /// quarter of its period (`N/4k` samples).
    pub fn quadrature(self, sample: u64) -> i8 {
        if self.k == 0 {
            return 1;
        }
        // sq(t − T/4k): shift the sample index back by a quarter of the
        // wave period (integer because 8k | N), modulo one wave period.
        let delay = u64::from(self.n / (4 * self.k));
        let period = u64::from(self.n / self.k);
        let shifted = (sample % period + period - delay) % period;
        self.in_phase(shifted)
    }

    /// Tabulates one stimulus period (`N` samples) of both polarities.
    /// Both waves repeat every `N/k` samples, so the table covers every
    /// sample of any window when it is walked with a running phase.
    pub(crate) fn polarity_table(self) -> PolarityTable {
        let (in_phase, quadrature) = (0..u64::from(self.n))
            .map(|s| (self.in_phase(s) > 0, self.quadrature(s) > 0))
            .unzip();
        PolarityTable {
            in_phase,
            quadrature,
        }
    }

    /// Exact fundamental DFT coefficient of the sampled in-phase wave:
    /// `c = (1/N)·Σ_{n=0}^{N−1} sq(n)·e^{−2πikn/N}`.
    ///
    /// `|c| → 2/π` for large `N/k`; `arg c` captures the half-sample phase
    /// of the discrete wave. Returns `1` for `k = 0`.
    pub fn fundamental_coefficient(self) -> Complex64 {
        if self.k == 0 {
            return Complex64::ONE;
        }
        let n = mixsig::cast::usize_from_u32(self.n);
        let k = mixsig::cast::usize_from_u32(self.k);
        let mut acc = Complex64::ZERO;
        for i in 0..n {
            let s = f64::from(self.in_phase(mixsig::cast::u64_from_usize(i)));
            acc += Complex64::cis(-2.0 * PI * (k * i) as f64 / n as f64) * s;
        }
        acc / n as f64
    }
}

/// One period of the in-phase and quadrature polarities (`true` = `+1`),
/// built by [`QuadratureSquareWave::polarity_table`].
#[derive(Debug)]
pub(crate) struct PolarityTable {
    in_phase: Vec<bool>,
    quadrature: Vec<bool>,
}

impl PolarityTable {
    /// Fills `q1`/`q2` with the in-phase/quadrature polarities of the
    /// samples from `phase` (a sample index, taken modulo `N`) on, each
    /// XOR-ed with `invert`; returns the phase after the last sample.
    ///
    /// # Panics
    ///
    /// Panics if `q1.len() != q2.len()`.
    pub(crate) fn fill(
        &self,
        phase: usize,
        invert: bool,
        q1: &mut [bool],
        q2: &mut [bool],
    ) -> usize {
        assert_eq!(q1.len(), q2.len(), "polarity blocks must have equal length");
        let period = self.in_phase.len();
        let mut phase = phase % period;
        let mut t = 0;
        while t < q1.len() {
            let len = (period - phase).min(q1.len() - t);
            let runs = [
                (&mut q1[t..t + len], &self.in_phase[phase..phase + len]),
                (&mut q2[t..t + len], &self.quadrature[phase..phase + len]),
            ];
            for (dst, src) in runs {
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d = s ^ invert;
                }
            }
            t += len;
            phase = (phase + len) % period;
        }
        phase
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_walk_matches_per_sample_polarities() {
        // Any window start, any block partitioning: walking the table
        // yields exactly `in_phase`/`quadrature` sample by sample.
        for n in [96u32, 192] {
            for k in 1u32..=4 {
                let sq = QuadratureSquareWave::new(k, n).unwrap();
                let table = sq.polarity_table();
                for start in [0u64, 1, 17, 95, 97, 250] {
                    for invert in [false, true] {
                        let mut phase = usize::try_from(start).unwrap();
                        let mut s = start;
                        for len in [1usize, 5, 96, 200, 13, 450] {
                            let mut q1 = vec![false; len];
                            let mut q2 = vec![true; len];
                            phase = table.fill(phase, invert, &mut q1, &mut q2);
                            for (j, (&b1, &b2)) in q1.iter().zip(&q2).enumerate() {
                                let at = s + j as u64;
                                let ctx = format!("N={n} k={k} start={start} sample {at}");
                                assert_eq!(b1, (sq.in_phase(at) > 0) ^ invert, "{ctx}");
                                assert_eq!(b2, (sq.quadrature(at) > 0) ^ invert, "{ctx}");
                            }
                            s += len as u64;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn paper_condition_enforced() {
        // N = 96: k = 1, 2, 3 valid (96/8k integer); k = 4 → 96/32 = 3 ✓;
        // k = 5 → 96/40 not integer.
        assert!(QuadratureSquareWave::new(1, 96).is_ok());
        assert!(QuadratureSquareWave::new(2, 96).is_ok());
        assert!(QuadratureSquareWave::new(3, 96).is_ok());
        assert!(QuadratureSquareWave::new(4, 96).is_ok());
        assert!(QuadratureSquareWave::new(5, 96).is_err());
    }

    #[test]
    fn error_display() {
        let e = QuadratureSquareWave::new(5, 96).unwrap_err();
        assert!(e.to_string().contains("multiple of 8k"));
    }

    #[test]
    fn k0_is_constant_one() {
        let sq = QuadratureSquareWave::new(0, 96).unwrap();
        for s in 0..200u64 {
            assert_eq!(sq.in_phase(s), 1);
            assert_eq!(sq.quadrature(s), 1);
        }
    }

    #[test]
    fn in_phase_is_half_and_half() {
        let sq = QuadratureSquareWave::new(1, 96).unwrap();
        let plus = (0..96u64).filter(|&s| sq.in_phase(s) == 1).count();
        assert_eq!(plus, 48);
        // First half positive.
        assert_eq!(sq.in_phase(0), 1);
        assert_eq!(sq.in_phase(47), 1);
        assert_eq!(sq.in_phase(48), -1);
        assert_eq!(sq.in_phase(95), -1);
    }

    #[test]
    fn period_is_n_over_k() {
        let sq = QuadratureSquareWave::new(3, 96).unwrap();
        for s in 0..96u64 {
            assert_eq!(sq.in_phase(s), sq.in_phase(s + 32));
            assert_eq!(sq.quadrature(s), sq.quadrature(s + 32));
        }
    }

    #[test]
    fn quadrature_is_quarter_period_delay() {
        for k in [1u32, 2, 3] {
            let sq = QuadratureSquareWave::new(k, 96).unwrap();
            let delay = (96 / (4 * k)) as u64;
            for s in 0..192u64 {
                assert_eq!(sq.quadrature(s + delay), sq.in_phase(s), "k={k}, s={s}");
            }
        }
    }

    #[test]
    fn fundamental_coefficient_magnitude_near_2_over_pi() {
        for k in [1u32, 2, 3] {
            let sq = QuadratureSquareWave::new(k, 96).unwrap();
            let c = sq.fundamental_coefficient();
            let two_over_pi = 2.0 / PI;
            assert!(
                (c.abs() - two_over_pi).abs() < 0.01,
                "k={k}: |c| = {}",
                c.abs()
            );
        }
    }

    #[test]
    fn fundamental_coefficient_exact_for_small_period() {
        // k=1, N=8: |c| = (1/2)/sin(π/8)·(2/8)... compare against a direct
        // closed form |c| = (2/N)·/(2·sin(πk/N))·2 = 1/(N·sin(πk/N))·2.
        let sq = QuadratureSquareWave::new(1, 8).unwrap();
        let c = sq.fundamental_coefficient();
        let expect = 2.0 / (8.0 * (PI / 8.0).sin());
        assert!((c.abs() - expect).abs() < 1e-12, "{} vs {expect}", c.abs());
    }

    #[test]
    fn correlation_identity_with_sine() {
        // mean(sq·A·sin(2πkn/N + φ)) == A·|c|·sin(φ − arg c): the identity
        // the signature DSP relies on.
        let k = 2u32;
        let n = 96usize;
        let sq = QuadratureSquareWave::new(k, n as u32).unwrap();
        let c = sq.fundamental_coefficient();
        for &(a, phi) in &[(1.0, 0.0), (0.5, 1.2), (0.25, -2.5)] {
            let mean: f64 = (0..n)
                .map(|i| {
                    let x = a * (2.0 * PI * (k as usize * i) as f64 / n as f64 + phi).sin();
                    sq.in_phase(i as u64) as f64 * x
                })
                .sum::<f64>()
                / n as f64;
            let expect = a * c.abs() * (phi - c.arg()).sin();
            assert!(
                (mean - expect).abs() < 1e-12,
                "a={a}, φ={phi}: {mean} vs {expect}"
            );
        }
    }

    #[test]
    fn zero_n_rejected() {
        assert!(QuadratureSquareWave::new(1, 0).is_err());
    }
}
