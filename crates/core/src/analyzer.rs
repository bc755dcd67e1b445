//! The network analyzer proper (paper Section III.C).

use crate::engine::SweepEngine;
use crate::error::{millihertz, NetanError};
use crate::sweep::BodePlot;
use ate::{DemoBoard, SignalPath};
use dut::Dut;
use mixsig::clock::MasterClock;
use mixsig::units::{Hertz, Volts};
use sdeval::{Bounded, EvaluatorConfig, HarmonicMeasurement, SinewaveEvaluator};
use sigen::GeneratorConfig;

/// Hardware realism of the analyzer's own circuitry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HardwareProfile {
    /// Ideal blocks: exact capacitors, ideal op-amps, no noise.
    Ideal,
    /// The paper's 0.35 µm CMOS non-idealities, with a fabrication/noise
    /// seed.
    Cmos035um {
        /// Mismatch and noise seed.
        seed: u64,
    },
}

impl HardwareProfile {
    fn generator_config(&self, clk: MasterClock, va: Volts) -> GeneratorConfig {
        match *self {
            HardwareProfile::Ideal => GeneratorConfig::ideal(clk, va),
            HardwareProfile::Cmos035um { seed } => GeneratorConfig::cmos_035um(clk, va, seed),
        }
    }

    fn evaluator_config(&self) -> EvaluatorConfig {
        match *self {
            HardwareProfile::Ideal => EvaluatorConfig::ideal(),
            HardwareProfile::Cmos035um { seed } => EvaluatorConfig::cmos_035um(seed),
        }
    }
}

/// Configuration of a [`NetworkAnalyzer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyzerConfig {
    /// Amplitude programming `VA+ − VA−` of the stimulus generator.
    pub va_diff: Volts,
    /// Hardware realism profile.
    pub hardware: HardwareProfile,
    /// Evaluation periods `M` per measurement (paper uses 200 for Bode,
    /// 400 for distortion).
    pub periods: u32,
    /// Stimulus periods to run before each measurement so generator and
    /// DUT transients decay.
    pub warmup_periods: u32,
    /// Acquisition block length in master-clock samples, forwarded to the
    /// evaluator. Any value produces bit-identical points; this is a
    /// throughput knob only.
    pub block_samples: usize,
}

impl AnalyzerConfig {
    /// Ideal analyzer at the paper's Bode settings (`M = 200`).
    pub fn ideal() -> Self {
        Self {
            va_diff: Volts(0.150),
            hardware: HardwareProfile::Ideal,
            periods: 200,
            warmup_periods: 40,
            block_samples: sdeval::DEFAULT_BLOCK_SAMPLES,
        }
    }

    /// Analyzer with the paper's CMOS non-idealities.
    pub fn cmos_035um(seed: u64) -> Self {
        Self {
            hardware: HardwareProfile::Cmos035um { seed },
            ..Self::ideal()
        }
    }

    /// Returns the configuration with a different evaluation length.
    #[must_use]
    pub fn with_periods(mut self, m: u32) -> Self {
        self.periods = m;
        self
    }

    /// Returns the configuration with a different stimulus amplitude code.
    #[must_use]
    pub fn with_va_diff(mut self, va: Volts) -> Self {
        self.va_diff = va;
        self
    }

    /// Returns the configuration with a different acquisition block
    /// length (`usize::MAX` means "one block per acquisition window").
    #[must_use]
    pub fn with_block_samples(mut self, block_samples: usize) -> Self {
        self.block_samples = block_samples;
        self
    }
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        Self::ideal()
    }
}

/// Stimulus characterization from the calibration bypass (paper Fig. 1
/// dashed path): performed once, reused across the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Stimulus amplitude enclosure, volts.
    pub amplitude: Bounded,
    /// Stimulus phase enclosure relative to the modulation square wave,
    /// radians.
    pub phase: Bounded,
}

/// One point of a Bode characterization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BodePoint {
    /// Stimulus frequency.
    pub frequency: Hertz,
    /// DUT gain enclosure (linear).
    pub gain: Bounded,
    /// DUT gain enclosure in dB.
    pub gain_db: Bounded,
    /// DUT phase shift enclosure in degrees (wrapped to ±180° unless
    /// unwrapped by a sweep).
    pub phase_deg: Bounded,
    /// The DUT's nominal analytic gain at this frequency, dB.
    pub ideal_gain_db: f64,
    /// The DUT's nominal analytic phase at this frequency, degrees.
    pub ideal_phase_deg: f64,
    /// Refinement provenance: the adaptive-refinement round that placed
    /// this point (0 for seed-grid points and for every fixed-grid sweep).
    pub round: u32,
}

/// The on-chip network analyzer bound to a device under test.
pub struct NetworkAnalyzer<'d> {
    dut: &'d dyn Dut,
    config: AnalyzerConfig,
    calibration: Option<Calibration>,
}

impl<'d> NetworkAnalyzer<'d> {
    /// Creates an analyzer for `dut`.
    pub fn new(dut: &'d dyn Dut, config: AnalyzerConfig) -> Self {
        Self {
            dut,
            config,
            calibration: None,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AnalyzerConfig {
        &self.config
    }

    /// The stored calibration, if one has been performed.
    pub fn calibration(&self) -> Option<Calibration> {
        self.calibration
    }

    /// Characterizes the stimulus over the bypass path and stores the
    /// result. The stimulus amplitude/phase are set by the DC references
    /// and digital control only, so one calibration serves the whole sweep
    /// (paper Section III.C); [`measure_point`](Self::measure_point)
    /// calibrates lazily if this was never called.
    ///
    /// # Errors
    ///
    /// Propagates evaluator setup errors.
    pub fn calibrate(&mut self) -> Result<Calibration, NetanError> {
        // Any valid stimulus frequency works; the normalized measurement is
        // frequency-independent. Use 1 kHz.
        let meas = self.measure_path(Hertz(1000.0), 1, SignalPath::CalibrationBypass)?;
        let cal = Calibration {
            amplitude: meas.amplitude,
            phase: meas.phase,
        };
        self.calibration = Some(cal);
        Ok(cal)
    }

    /// Returns the stored calibration, performing one if necessary.
    fn ensure_calibrated(&mut self) -> Result<Calibration, NetanError> {
        match self.calibration {
            Some(c) => Ok(c),
            None => self.calibrate(),
        }
    }

    /// Rejects NaN and non-positive stimulus frequencies.
    pub(crate) fn validate_frequency(f_wave: Hertz) -> Result<(), NetanError> {
        if f_wave.value().partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(NetanError::InvalidFrequency {
                hz_millis: millihertz(f_wave),
            });
        }
        Ok(())
    }

    /// Measures the DUT gain and phase shift at `f_wave` (the master clock
    /// is set to `96·f_wave`, keeping `N` constant).
    ///
    /// # Errors
    ///
    /// Returns [`NetanError::InvalidFrequency`] for non-positive
    /// frequencies — before performing any lazy calibration work — and
    /// propagates evaluator errors.
    pub fn measure_point(&mut self, f_wave: Hertz) -> Result<BodePoint, NetanError> {
        Self::validate_frequency(f_wave)?;
        let cal = self.ensure_calibrated()?;
        self.measure_point_calibrated(cal, f_wave)
    }

    /// Measures one Bode point against an explicit stimulus
    /// characterization. Takes `&self`: every sweep point is an
    /// independent simulation, so [`SweepEngine`]
    /// workers can share one analyzer across threads. The acquisition is
    /// driven block-wise end to end (generator → DUT → ΣΔ consume
    /// [`AnalyzerConfig::block_samples`]-sized blocks), bit-identical to
    /// the per-sample reference chain.
    ///
    /// # Errors
    ///
    /// Returns [`NetanError::InvalidFrequency`] for non-positive
    /// frequencies and propagates evaluator errors.
    pub fn measure_point_calibrated(
        &self,
        cal: Calibration,
        f_wave: Hertz,
    ) -> Result<BodePoint, NetanError> {
        Self::validate_frequency(f_wave)?;
        let out = self.measure_path(f_wave, 1, SignalPath::Dut)?;
        let gain = out.amplitude.ratio(&cal.amplitude);
        let gain_db = gain.map_monotonic(|g| 20.0 * g.max(1e-15).log10());
        let mut phase = out.phase.minus(&cal.phase);
        // Deterministic correction: the continuous-time DUT responds to the
        // zero-order-held stimulus, which lags the sampled stimulus (seen by
        // the calibration path) by half a master-clock sample — a constant
        // 2π/(2·96) at the stimulus frequency. A real instrument calibrates
        // this out the same way.
        let zoh_half_sample = std::f64::consts::PI / 96.0;
        phase = Bounded::new(
            phase.lo + zoh_half_sample,
            phase.est + zoh_half_sample,
            phase.hi + zoh_half_sample,
        );
        // Wrap the phase estimate into (−π, π], carrying the bounds along.
        let wrapped_est = dsp::goertzel::wrap_phase(phase.est);
        let shift = wrapped_est - phase.est;
        let phase_deg = Bounded::new(
            (phase.lo + shift).to_degrees(),
            wrapped_est.to_degrees(),
            (phase.hi + shift).to_degrees(),
        );
        Ok(BodePoint {
            frequency: f_wave,
            gain,
            gain_db,
            phase_deg,
            ideal_gain_db: self.dut.ideal_magnitude_db(f_wave),
            ideal_phase_deg: self.dut.ideal_phase_deg(f_wave),
            round: 0,
        })
    }

    /// Measures a batch of Bode points with `engine`, calibrating lazily.
    /// Points come back in the order of `frequencies` with their raw
    /// (wrapped) phase enclosures, regardless of how the engine schedules
    /// the work.
    ///
    /// # Errors
    ///
    /// Returns [`NetanError::EmptySweep`] for an empty list. The whole
    /// batch is validated up front, so the lowest-index
    /// [`NetanError::InvalidFrequency`] is rejected before calibration or
    /// any simulation; measurement errors surface as the lowest-index
    /// per-point error.
    pub fn measure_points(
        &mut self,
        frequencies: &[Hertz],
        engine: &SweepEngine,
    ) -> Result<Vec<BodePoint>, NetanError> {
        if frequencies.is_empty() {
            return Err(NetanError::EmptySweep);
        }
        for &f in frequencies {
            Self::validate_frequency(f)?;
        }
        let cal = self.ensure_calibrated()?;
        engine.measure(self, cal, frequencies)
    }

    /// Sweeps the analyzer over `frequencies`, unwrapping the phase by
    /// continuity (the paper's Fig. 10b presentation). Serial; see
    /// [`sweep_with`](Self::sweep_with) to fan the points out across a
    /// [`SweepEngine`]'s worker threads.
    ///
    /// # Errors
    ///
    /// Returns [`NetanError::EmptySweep`] for an empty list and propagates
    /// per-point errors.
    pub fn sweep(&mut self, frequencies: &[Hertz]) -> Result<BodePlot, NetanError> {
        self.sweep_with(&SweepEngine::serial(), frequencies)
    }

    /// Sweeps the analyzer over `frequencies` using `engine` to schedule
    /// the points, then unwraps the phase by continuity. Parallel and
    /// serial engines produce bit-identical plots: every point is an
    /// independent, deterministic simulation and the continuity pass runs
    /// over the ordered result.
    ///
    /// # Errors
    ///
    /// Returns [`NetanError::EmptySweep`] for an empty list and propagates
    /// per-point errors.
    pub fn sweep_with(
        &mut self,
        engine: &SweepEngine,
        frequencies: &[Hertz],
    ) -> Result<BodePlot, NetanError> {
        let mut points = self.measure_points(frequencies, engine)?;
        crate::sweep::unwrap_phase_by_continuity(&mut points);
        Ok(BodePlot::new(points))
    }

    /// Adaptively sweeps the analyzer: measures `seed`, then refines per
    /// `policy` — bisecting the intervals whose local gain/phase bend and
    /// endpoint enclosure widths score worst — until the policy is met.
    /// Serial; see [`sweep_adaptive_with`](Self::sweep_adaptive_with) to
    /// fan each round's batch across a [`SweepEngine`].
    ///
    /// # Errors
    ///
    /// Returns [`NetanError::EmptySweep`] for an empty seed and
    /// propagates per-point errors.
    pub fn sweep_adaptive(
        &mut self,
        seed: &[Hertz],
        policy: &crate::adaptive::RefinementPolicy,
    ) -> Result<BodePlot, NetanError> {
        self.sweep_adaptive_with(&SweepEngine::serial(), seed, policy)
    }

    /// Like [`sweep_adaptive`](Self::sweep_adaptive), but measures each
    /// round's candidate batch through `engine`. Bit-identical to the
    /// serial path: refinement decisions depend only on measured values
    /// and candidates are ordered deterministically before dispatch.
    ///
    /// # Errors
    ///
    /// Returns [`NetanError::EmptySweep`] for an empty seed, the
    /// lowest-index [`NetanError::InvalidFrequency`] before calibration
    /// or any simulation, and propagates per-point errors.
    pub fn sweep_adaptive_with(
        &mut self,
        engine: &SweepEngine,
        seed: &[Hertz],
        policy: &crate::adaptive::RefinementPolicy,
    ) -> Result<BodePlot, NetanError> {
        if seed.is_empty() {
            return Err(NetanError::EmptySweep);
        }
        for &f in seed {
            Self::validate_frequency(f)?;
        }
        let cal = self.ensure_calibrated()?;
        crate::adaptive::AdaptiveSweep::with_engine(*policy, *engine).run(self, cal, seed)
    }

    /// Measures harmonics `1..=max_harmonic` of the DUT output at `f_wave`
    /// — the distortion mode of paper Fig. 10c. Each harmonic `k` must
    /// satisfy `96 % 8k == 0` (k = 1, 2, 3 at `N = 96`).
    ///
    /// # Errors
    ///
    /// Propagates evaluator setup errors.
    pub fn measure_harmonics(
        &mut self,
        f_wave: Hertz,
        max_harmonic: u32,
    ) -> Result<Vec<HarmonicMeasurement>, NetanError> {
        self.measure_harmonics_with(&SweepEngine::serial(), f_wave, max_harmonic)
    }

    /// Like [`measure_harmonics`](Self::measure_harmonics), but fans the
    /// independent per-`k` acquisitions across `engine`'s worker pool —
    /// distortion screening rides the same work-stealing loop as the Bode
    /// sweep. Results come back ordered `k = 1..=max_harmonic` and are
    /// bit-identical to the serial path; on failure the lowest-`k` error
    /// is reported.
    ///
    /// # Errors
    ///
    /// Returns [`NetanError::InvalidFrequency`] for non-positive
    /// frequencies and propagates evaluator setup errors.
    pub fn measure_harmonics_with(
        &self,
        engine: &SweepEngine,
        f_wave: Hertz,
        max_harmonic: u32,
    ) -> Result<Vec<HarmonicMeasurement>, NetanError> {
        Self::validate_frequency(f_wave)?;
        let n = mixsig::cast::usize_from_u32(max_harmonic);
        crate::pool::map_indexed(engine.threads(), n, |i| {
            // netan-lint: allow(lossy-cast): i < max_harmonic, which is a u32, so the cast is exact
            self.measure_path(f_wave, i as u32 + 1, SignalPath::Dut)
        })
        .into_iter()
        .collect()
    }

    /// One full acquisition over the requested path, driven block-wise
    /// (generator → DUT → ΣΔ all consume fixed-size blocks). A bypass
    /// acquisition builds a bypass-only board, skipping the DUT
    /// simulation entirely: the analyzer constructs a fresh board per
    /// acquisition, so no DUT state is lost, and the bypass output never
    /// observes the DUT — the calibration result is bit-identical.
    fn measure_path(
        &self,
        f_wave: Hertz,
        k: u32,
        path: SignalPath,
    ) -> Result<HarmonicMeasurement, NetanError> {
        let clk = MasterClock::for_stimulus(f_wave);
        let gen_cfg = self
            .config
            .hardware
            .generator_config(clk, self.config.va_diff);
        let mut board = match path {
            SignalPath::Dut => DemoBoard::new(gen_cfg, self.dut),
            SignalPath::CalibrationBypass => DemoBoard::for_bypass(gen_cfg),
        };
        board.warm_up(mixsig::cast::usize_from_u32(self.config.warmup_periods));
        let eval_cfg = self
            .config
            .hardware
            .evaluator_config()
            .with_block_samples(self.config.block_samples);
        let mut evaluator = SinewaveEvaluator::new(eval_cfg);
        Ok(evaluator.measure_harmonic_blocks(&mut board, k, self.config.periods)?)
    }
}

impl std::fmt::Debug for NetworkAnalyzer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetworkAnalyzer")
            .field("config", &self.config)
            .field("calibrated", &self.calibration.is_some())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dut::ActiveRcFilter;

    fn analyzer_for(dut: &ActiveRcFilter) -> NetworkAnalyzer<'_> {
        NetworkAnalyzer::new(dut, AnalyzerConfig::ideal())
    }

    #[test]
    fn calibration_reads_stimulus_amplitude() {
        let dut = ActiveRcFilter::paper_dut().linearized();
        let mut na = analyzer_for(&dut);
        let cal = na.calibrate().unwrap();
        // Ideal generator with VA = 150 mV → ≈ 0.30 V stimulus.
        assert!((cal.amplitude.est - 0.30).abs() < 0.02, "{}", cal.amplitude);
        assert!(na.calibration().is_some());
    }

    #[test]
    fn calibration_unchanged_by_dut_skip() {
        // The bypass-only board must report exactly what a full board
        // switched to the bypass path reports — the DUT never touches the
        // bypass output, so skipping its simulation is free.
        use ate::DemoBoard;
        use mixsig::clock::MasterClock;
        use sdeval::SinewaveEvaluator;

        let dut = ActiveRcFilter::paper_dut();
        let cfg = AnalyzerConfig::cmos_035um(13).with_periods(50);
        let mut na = NetworkAnalyzer::new(&dut, cfg);
        let cal = na.calibrate().unwrap();

        // Reference: the pre-skip acquisition — full board, bypass path.
        let clk = MasterClock::for_stimulus(Hertz(1000.0));
        let gen_cfg = cfg.hardware.generator_config(clk, cfg.va_diff);
        let mut board = DemoBoard::new(gen_cfg, &dut);
        board.set_path(SignalPath::CalibrationBypass);
        board.warm_up(cfg.warmup_periods as usize);
        let eval_cfg = cfg
            .hardware
            .evaluator_config()
            .with_block_samples(cfg.block_samples);
        let mut evaluator = SinewaveEvaluator::new(eval_cfg);
        let want = evaluator
            .measure_harmonic_blocks(&mut board, 1, cfg.periods)
            .unwrap();
        assert_eq!(cal.amplitude, want.amplitude);
        assert_eq!(cal.phase, want.phase);
    }

    #[test]
    fn passband_point_reads_near_zero_db() {
        let dut = ActiveRcFilter::paper_dut().linearized();
        let mut na = analyzer_for(&dut);
        let p = na.measure_point(Hertz(100.0)).unwrap();
        assert!(p.gain_db.est.abs() < 0.2, "{}", p.gain_db);
        assert!(p.phase_deg.est.abs() < 10.0, "{}", p.phase_deg);
    }

    #[test]
    fn cutoff_point_reads_minus_3db_minus_90deg() {
        let dut = ActiveRcFilter::paper_dut().linearized();
        let mut na = analyzer_for(&dut);
        let p = na.measure_point(Hertz(1000.0)).unwrap();
        assert!((p.gain_db.est + 3.01).abs() < 0.3, "{}", p.gain_db);
        assert!((p.phase_deg.est + 90.0).abs() < 3.0, "{}", p.phase_deg);
        // The enclosure must contain the analytic value.
        assert!(p.gain_db.lo <= p.ideal_gain_db && p.ideal_gain_db <= p.gain_db.hi);
    }

    #[test]
    fn stopband_point_attenuates_hard() {
        let dut = ActiveRcFilter::paper_dut().linearized();
        let mut na = analyzer_for(&dut);
        let p = na.measure_point(Hertz(10_000.0)).unwrap();
        assert!(p.gain_db.est < -38.0, "{}", p.gain_db);
    }

    #[test]
    fn error_band_grows_in_stopband() {
        // Paper: "the relative error increases as the response magnitude
        // decreases".
        let dut = ActiveRcFilter::paper_dut().linearized();
        let mut na = analyzer_for(&dut);
        let pass = na.measure_point(Hertz(200.0)).unwrap();
        let stop = na.measure_point(Hertz(10_000.0)).unwrap();
        let rel = |p: &BodePoint| p.gain.width() / p.gain.est;
        assert!(rel(&stop) > 5.0 * rel(&pass));
    }

    #[test]
    fn sweep_unwraps_phase() {
        let dut = ActiveRcFilter::paper_dut().linearized();
        let mut na = analyzer_for(&dut);
        let freqs: Vec<Hertz> = [200.0, 1000.0, 3000.0, 8000.0, 20_000.0]
            .iter()
            .map(|&f| Hertz(f))
            .collect();
        let plot = na.sweep(&freqs).unwrap();
        let phases: Vec<f64> = plot.points().iter().map(|p| p.phase_deg.est).collect();
        // Monotonically decreasing toward ≈ −180° and beyond; no +wraps.
        for w in phases.windows(2) {
            assert!(w[1] < w[0] + 5.0, "phase jumped: {phases:?}");
        }
        assert!(*phases.last().unwrap() < -150.0);
    }

    #[test]
    fn invalid_frequency_rejected() {
        let dut = ActiveRcFilter::paper_dut();
        let mut na = analyzer_for(&dut);
        assert!(matches!(
            na.measure_point(Hertz(0.0)),
            Err(NetanError::InvalidFrequency { .. })
        ));
    }

    #[test]
    fn empty_sweep_rejected() {
        let dut = ActiveRcFilter::paper_dut();
        let mut na = analyzer_for(&dut);
        assert_eq!(na.sweep(&[]).unwrap_err(), NetanError::EmptySweep);
    }

    #[test]
    fn distortion_mode_sees_harmonics() {
        let dut = ActiveRcFilter::paper_dut(); // includes the nonlinearity
        let cfg = AnalyzerConfig::ideal()
            .with_periods(400)
            .with_va_diff(Volts(0.2)); // 800 mVpp stimulus like Fig. 10c
        let mut na = NetworkAnalyzer::new(&dut, cfg);
        let hs = na.measure_harmonics(Hertz(1600.0), 3).unwrap();
        assert_eq!(hs.len(), 3);
        let a1 = hs[0].amplitude.est;
        let hd2 = 20.0 * (hs[1].amplitude.est / a1).log10();
        let hd3 = 20.0 * (hs[2].amplitude.est / a1).log10();
        // Paper Fig. 10c window.
        assert!(hd2 < -50.0 && hd2 > -66.0, "HD2 {hd2}");
        assert!(hd3 < -55.0 && hd3 > -72.0, "HD3 {hd3}");
    }

    #[test]
    fn debug_shows_calibration_state() {
        let dut = ActiveRcFilter::paper_dut();
        let na = analyzer_for(&dut);
        assert!(format!("{na:?}").contains("calibrated: false"));
    }
}
