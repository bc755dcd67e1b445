//! Error type of the network analyzer.

use mixsig::units::Hertz;
use sdeval::EvalError;

/// Errors from network-analyzer operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetanError {
    /// The underlying evaluator rejected the measurement setup.
    Eval(EvalError),
    /// A sweep was requested with no frequency points.
    EmptySweep,
    /// A lot run was requested with no device seeds.
    EmptyLot,
    /// The requested stimulus frequency is not positive.
    InvalidFrequency {
        /// The offending frequency in hertz.
        hz_millis: i64,
    },
    /// A fabricated device's nominal response is non-finite at a plan
    /// frequency (e.g. a mismatch draw produced a NaN pole), so it cannot
    /// be simulated.
    DeviceNotSimulable {
        /// Monte-Carlo seed of the offending device.
        seed: u64,
    },
    /// A planned evaluation length does not fit the hardware's `M`
    /// counter: the tolerance/level combination demands more periods than
    /// a `u32` can hold. Relax the tolerance or raise the expected level.
    PlanOverflow {
        /// Periods the plan would need (saturating; `u64::MAX` when the
        /// requirement is not even finite).
        required_periods: u64,
    },
    /// A lot plan's sweep grid does not contain one of its mask
    /// frequencies, so the mask point could never be measured and
    /// classification would fail mid-lot.
    /// [`LotPlan::new`](crate::lot::LotPlan::new) always unions the
    /// mask into the grid;
    /// this rejects plans assembled some other way up front, before any
    /// simulation.
    MaskFrequencyMissing {
        /// The unmeasured mask frequency in millihertz.
        hz_millis: i64,
    },
    /// An escalation schedule's test-time budget cannot even cover the
    /// stage-0 screening pass over the whole lot — no device would get a
    /// verdict at all. Raise the budget, shrink the lot, or cheapen the
    /// first stage.
    ///
    /// Both fields round **up** to the next simulated millisecond, so a
    /// sub-millisecond budget never misreports as `0` and the displayed
    /// pair never inverts the real comparison.
    BudgetExhausted {
        /// Simulated milliseconds the stage-0 screening pass needs
        /// (rounded up).
        needed_ms: u64,
        /// The schedule's budget in simulated milliseconds (rounded up,
        /// the same way as `needed_ms`).
        budget_ms: u64,
    },
    /// A mask point's frequency is not positive and finite. Rejected by
    /// [`MaskPoint::try_new`](crate::spec::MaskPoint::try_new), before
    /// any plan is built on it.
    InvalidMaskFrequency {
        /// The offending frequency in millihertz (NaN renders as 0).
        hz_millis: i64,
    },
    /// A mask point's limits are inverted (`min_db > max_db`) or NaN:
    /// every device would classify `Fail` or `Ambiguous` there, and the
    /// ambiguous ones would burn re-tests that can never decide them.
    InvertedMaskLimits {
        /// The mask point's frequency in millihertz.
        hz_millis: i64,
    },
    /// An escalation schedule was built with no stages.
    EmptySchedule,
    /// An escalation schedule's stage `M`s do not strictly increase, so
    /// a re-test could not narrow the enclosure it re-measures.
    NonEscalatingStages {
        /// `M` of the earlier stage.
        periods: u32,
        /// `M` of the stage right after it (not larger).
        next: u32,
    },
}

/// `frequency` in millihertz, for the diagnostic fields of
/// [`NetanError`].
pub(crate) fn millihertz(frequency: Hertz) -> i64 {
    // netan-lint: allow(lossy-cast): diagnostic-only millihertz render; `as` saturates NaN/∞ instead of panicking
    (frequency.value() * 1000.0) as i64
}

impl std::fmt::Display for NetanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetanError::Eval(e) => write!(f, "evaluator error: {e}"),
            NetanError::EmptySweep => write!(f, "sweep needs at least one frequency point"),
            NetanError::EmptyLot => write!(f, "lot needs at least one device seed"),
            NetanError::DeviceNotSimulable { seed } => {
                write!(
                    f,
                    "device with seed {seed} has a non-finite nominal response and cannot be simulated"
                )
            }
            NetanError::InvalidFrequency { hz_millis } => {
                write!(
                    f,
                    "stimulus frequency must be positive, got {} Hz",
                    *hz_millis as f64 / 1000.0
                )
            }
            NetanError::PlanOverflow { required_periods } => {
                write!(
                    f,
                    "planned evaluation length overflows the period counter \
                     (≥ {required_periods} periods required); relax the \
                     tolerance or raise the expected level"
                )
            }
            NetanError::MaskFrequencyMissing { hz_millis } => {
                write!(
                    f,
                    "mask frequency {} Hz is not in the sweep grid, so the \
                     mask point would never be measured; build the plan with \
                     LotPlan::new, which unions the mask into the grid",
                    *hz_millis as f64 / 1000.0
                )
            }
            NetanError::BudgetExhausted {
                needed_ms,
                budget_ms,
            } => {
                write!(
                    f,
                    "test-time budget of {} s cannot cover the stage-0 \
                     screening pass ({} s needed); raise the budget or \
                     shrink the lot",
                    *budget_ms as f64 / 1000.0,
                    *needed_ms as f64 / 1000.0
                )
            }
            NetanError::InvalidMaskFrequency { hz_millis } => write!(
                f,
                "mask frequency must be positive and finite, got {} Hz",
                *hz_millis as f64 / 1000.0
            ),
            NetanError::InvertedMaskLimits { hz_millis } => write!(
                f,
                "mask limits inverted at {} Hz: min_db must not exceed max_db, \
                 and neither may be NaN",
                *hz_millis as f64 / 1000.0
            ),
            NetanError::EmptySchedule => {
                write!(f, "an escalation schedule needs at least one stage")
            }
            NetanError::NonEscalatingStages { periods, next } => write!(
                f,
                "escalation stages must strictly increase M ({periods} then {next})"
            ),
        }
    }
}

impl std::error::Error for NetanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetanError::Eval(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EvalError> for NetanError {
    fn from(e: EvalError) -> Self {
        NetanError::Eval(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let e = NetanError::from(EvalError::OddPeriods { m: 3 });
        assert!(e.to_string().contains("evaluator error"));
        assert!(NetanError::EmptySweep.to_string().contains("at least one"));
        let f = NetanError::InvalidFrequency { hz_millis: -1500 };
        assert!(f.to_string().contains("-1.5"));
        assert!(NetanError::EmptyLot.to_string().contains("device seed"));
        let d = NetanError::DeviceNotSimulable { seed: 17 };
        assert!(d.to_string().contains("17"));
        assert!(d.to_string().contains("non-finite"));
        let p = NetanError::PlanOverflow {
            required_periods: 5_000_000_000,
        };
        assert!(p.to_string().contains("5000000000"));
        assert!(p.to_string().contains("overflows"));
        let b = NetanError::BudgetExhausted {
            needed_ms: 12_500,
            budget_ms: 4_000,
        };
        assert!(b.to_string().contains("12.5 s"));
        assert!(b.to_string().contains("4 s"));
        assert!(b.to_string().contains("budget"));
        let m = NetanError::MaskFrequencyMissing { hz_millis: 750 };
        assert!(m.to_string().contains("0.75"));
        assert!(m.to_string().contains("mask frequency"));
    }

    #[test]
    fn source_chains() {
        use std::error::Error;
        let e = NetanError::from(EvalError::HarmonicIndexZero);
        assert!(e.source().is_some());
        assert!(NetanError::EmptySweep.source().is_none());
    }
}
