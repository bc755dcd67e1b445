//! BIST go/no-go testing against a frequency-response mask.
//!
//! The point of an *on-chip* network analyzer is production self-test:
//! decide pass/fail against a specification without an external ATE. The
//! hard error bounds of the signature DSP make the verdict trichotomous:
//!
//! * **Pass** — the measured enclosure lies entirely inside the mask,
//! * **Fail** — the enclosure lies entirely outside,
//! * **Ambiguous** — the enclosure straddles a limit: the device cannot be
//!   classified *at this test time*; re-test with a larger `M` (the paper's
//!   accuracy-for-test-time trade-off made operational).

use crate::analyzer::BodePoint;
use crate::error::{millihertz, NetanError};
use mixsig::units::Hertz;
use sdeval::Bounded;

/// Verdict of a spec check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecVerdict {
    /// Enclosure entirely inside the limits.
    Pass,
    /// Enclosure entirely outside the limits.
    Fail,
    /// Enclosure straddles a limit — increase `M` and re-test.
    Ambiguous,
}

/// One mask point: gain limits at a frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaskPoint {
    /// Frequency of the check.
    pub frequency: Hertz,
    /// Minimum acceptable gain, dB.
    pub min_db: f64,
    /// Maximum acceptable gain, dB.
    pub max_db: f64,
}

impl MaskPoint {
    /// Creates a mask point, validating it at mask construction rather
    /// than deep inside a run: a non-positive or non-finite frequency
    /// would otherwise surface only once
    /// [`measurement_time`](crate::plan::measurement_time) or the
    /// analyzer's frequency validation hit it, devices into a lot, and
    /// inverted or NaN limits would bin every device `Fail` or
    /// `Ambiguous` without an error.
    ///
    /// # Errors
    ///
    /// [`NetanError::InvalidMaskFrequency`] if `frequency` is not a
    /// positive finite value; [`NetanError::InvertedMaskLimits`] if
    /// `min_db > max_db` or either limit is NaN.
    pub fn try_new(frequency: Hertz, min_db: f64, max_db: f64) -> Result<Self, NetanError> {
        if !(frequency.value().is_finite() && frequency.value() > 0.0) {
            return Err(NetanError::InvalidMaskFrequency {
                hz_millis: millihertz(frequency),
            });
        }
        if min_db.is_nan() || max_db.is_nan() || min_db > max_db {
            return Err(NetanError::InvertedMaskLimits {
                hz_millis: millihertz(frequency),
            });
        }
        Ok(Self {
            frequency,
            min_db,
            max_db,
        })
    }

    /// Creates a mask point.
    ///
    /// # Panics
    ///
    /// Panics if `frequency` is not a positive finite value, or if
    /// `min_db > max_db` (including either limit being NaN) — the errors
    /// [`try_new`](Self::try_new) returns.
    pub fn new(frequency: Hertz, min_db: f64, max_db: f64) -> Self {
        match Self::try_new(frequency, min_db, max_db) {
            Ok(point) => point,
            // netan-lint: allow(panic-in-lib): the documented panic of the trusted-input constructor; untrusted limits go through `try_new`
            Err(e) => panic!("{e}"),
        }
    }

    /// Classifies a gain enclosure against this point's limits.
    ///
    /// A NaN anywhere in the enclosure (`lo`, `est` or `hi`) classifies
    /// [`SpecVerdict::Ambiguous`], never `Pass`: NaN bounds carry no
    /// evidence the response is inside the mask, and the conservative
    /// verdict is the one that triggers a re-test instead of shipping
    /// the device.
    pub fn classify(&self, gain_db: &Bounded) -> SpecVerdict {
        if gain_db.lo.is_nan() || gain_db.est.is_nan() || gain_db.hi.is_nan() {
            SpecVerdict::Ambiguous
        } else if gain_db.lo >= self.min_db && gain_db.hi <= self.max_db {
            SpecVerdict::Pass
        } else if gain_db.hi < self.min_db || gain_db.lo > self.max_db {
            SpecVerdict::Fail
        } else {
            SpecVerdict::Ambiguous
        }
    }
}

/// A gain mask: a set of frequency/limit points.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GainMask {
    points: Vec<MaskPoint>,
}

impl GainMask {
    /// An empty mask.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style mask point addition.
    #[must_use]
    pub fn with_point(mut self, p: MaskPoint) -> Self {
        self.points.push(p);
        self
    }

    /// A mask for the paper's DUT: passband flat within ±1 dB below
    /// 500 Hz, −3 dB ± 1.5 dB at 1 kHz, at least 35 dB attenuation at
    /// 10 kHz.
    pub fn paper_lowpass() -> Self {
        Self::new()
            .with_point(MaskPoint::new(Hertz(200.0), -1.0, 1.0))
            .with_point(MaskPoint::new(Hertz(500.0), -1.5, 0.5))
            .with_point(MaskPoint::new(Hertz(1000.0), -4.5, -1.5))
            .with_point(MaskPoint::new(Hertz(10_000.0), -90.0, -35.0))
    }

    /// The mask points (and therefore the sweep plan for a check).
    pub fn points(&self) -> &[MaskPoint] {
        &self.points
    }

    /// The frequencies a check must measure.
    pub fn frequencies(&self) -> Vec<Hertz> {
        self.points.iter().map(|p| p.frequency).collect()
    }

    /// Classifies a measured Bode point set (must be in mask order, e.g.
    /// produced by sweeping [`GainMask::frequencies`]). The overall verdict
    /// is `Fail` if any point fails, else `Ambiguous` if any point is
    /// ambiguous, else `Pass`.
    ///
    /// # Panics
    ///
    /// Panics if `points.len()` differs from the mask length.
    pub fn classify(&self, points: &[BodePoint]) -> SpecVerdict {
        assert_eq!(
            points.len(),
            self.points.len(),
            "measured points must match the mask"
        );
        let mut verdict = SpecVerdict::Pass;
        for (mask, meas) in self.points.iter().zip(points) {
            match mask.classify(&meas.gain_db) {
                SpecVerdict::Fail => return SpecVerdict::Fail,
                SpecVerdict::Ambiguous => verdict = SpecVerdict::Ambiguous,
                SpecVerdict::Pass => {}
            }
        }
        verdict
    }
}

impl FromIterator<MaskPoint> for GainMask {
    fn from_iter<I: IntoIterator<Item = MaskPoint>>(iter: I) -> Self {
        Self {
            points: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_pass_fail_ambiguous() {
        let p = MaskPoint::new(Hertz(1000.0), -4.0, -2.0);
        assert_eq!(
            p.classify(&Bounded::new(-3.2, -3.0, -2.8)),
            SpecVerdict::Pass
        );
        assert_eq!(
            p.classify(&Bounded::new(-1.5, -1.2, -1.0)),
            SpecVerdict::Fail
        );
        assert_eq!(
            p.classify(&Bounded::new(-2.3, -2.0, -1.8)),
            SpecVerdict::Ambiguous
        );
    }

    #[test]
    fn mask_aggregates_worst_verdict() {
        use crate::analyzer::BodePoint;
        let mask = GainMask::new()
            .with_point(MaskPoint::new(Hertz(100.0), -1.0, 1.0))
            .with_point(MaskPoint::new(Hertz(1000.0), -4.0, -2.0));
        let mk = |db_lo: f64, db: f64, db_hi: f64, f: f64| BodePoint {
            frequency: Hertz(f),
            gain: Bounded::point(1.0),
            gain_db: Bounded::new(db_lo, db, db_hi),
            phase_deg: Bounded::point(0.0),
            ideal_gain_db: db,
            ideal_phase_deg: 0.0,
            round: 0,
        };
        let pass = [mk(-0.1, 0.0, 0.1, 100.0), mk(-3.1, -3.0, -2.9, 1000.0)];
        assert_eq!(mask.classify(&pass), SpecVerdict::Pass);
        let ambiguous = [mk(-0.1, 0.0, 0.1, 100.0), mk(-2.1, -2.0, -1.9, 1000.0)];
        assert_eq!(mask.classify(&ambiguous), SpecVerdict::Ambiguous);
        let fail = [mk(2.0, 2.5, 3.0, 100.0), mk(-2.1, -2.0, -1.9, 1000.0)];
        assert_eq!(mask.classify(&fail), SpecVerdict::Fail);
    }

    #[test]
    fn paper_mask_has_four_points() {
        let m = GainMask::paper_lowpass();
        assert_eq!(m.points().len(), 4);
        assert_eq!(m.frequencies().len(), 4);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_limits_panic() {
        let _ = MaskPoint::new(Hertz(1.0), 1.0, -1.0);
    }

    // Regression: these used to be accepted and only blew up once
    // `measurement_time`/frequency validation met the mask mid-run.
    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_mask_frequency_panics_at_construction() {
        let _ = MaskPoint::new(Hertz(0.0), -1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn negative_mask_frequency_panics_at_construction() {
        let _ = MaskPoint::new(Hertz(-100.0), -1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn nan_mask_frequency_panics_at_construction() {
        let _ = MaskPoint::new(Hertz(f64::NAN), -1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn infinite_mask_frequency_panics_at_construction() {
        let _ = MaskPoint::new(Hertz(f64::INFINITY), -1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn nan_mask_limit_panics_at_construction() {
        let _ = MaskPoint::new(Hertz(1.0), f64::NAN, 1.0);
    }

    #[test]
    fn try_new_rejects_malformed_points_with_typed_errors() {
        let err = |f, lo, hi| MaskPoint::try_new(Hertz(f), lo, hi).unwrap_err();
        let bad_frequency = |hz_millis| NetanError::InvalidMaskFrequency { hz_millis };
        assert_eq!(err(0.0, -1.0, 1.0), bad_frequency(0));
        assert_eq!(err(-2.5, -1.0, 1.0), bad_frequency(-2500));
        let inverted = NetanError::InvertedMaskLimits { hz_millis: 1000 };
        for (lo, hi) in [(1.0, -1.0), (f64::NAN, 1.0), (-1.0, f64::NAN)] {
            assert_eq!(err(1.0, lo, hi), inverted);
        }
        assert!(MaskPoint::try_new(Hertz(1.0), -4.0, -4.0).is_ok());
    }

    // Regression: a NaN enclosure must never classify `Pass`. An est-NaN
    // enclosure with in-band bounds used to slip through as `Pass`.
    #[test]
    fn nan_enclosures_classify_ambiguous_never_pass() {
        let p = MaskPoint::new(Hertz(1000.0), -4.0, -2.0);
        let nan = f64::NAN;
        // `Bounded::new` rejects NaN endpoints, but parsed documents and
        // downstream arithmetic can still materialize them — build the
        // enclosures directly.
        let mk = |lo, est, hi| Bounded { lo, est, hi };
        for b in [
            mk(nan, -3.0, -2.8), // lo NaN
            mk(-3.2, -3.0, nan), // hi NaN
            mk(-3.2, nan, -2.8), // est NaN, bounds in-band
            mk(nan, nan, nan),   // all NaN
        ] {
            assert_eq!(p.classify(&b), SpecVerdict::Ambiguous, "{b:?}");
        }
        // Infinities keep their directional meaning: an enclosure
        // entirely below the mask still fails.
        let below = Bounded::new(f64::NEG_INFINITY, -80.0, -10.0);
        assert_eq!(p.classify(&below), SpecVerdict::Fail);
    }
}
