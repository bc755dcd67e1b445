//! Shared helpers for the figure/table regeneration harnesses
//! (`src/bin/*`).
//!
//! Every table and figure of the paper's evaluation section has a binary
//! here that regenerates its rows/series (timing lives in the stand-alone
//! `perfbench` package at the repository root, not here):
//!
//! | paper artifact | binary |
//! |---|---|
//! | Table I (capacitor values) | `table1` |
//! | Fig. 8a (generator waveforms) | `fig8a` |
//! | Fig. 8b (generator spectrum, SFDR/THD) | `fig8b` |
//! | Fig. 9 (evaluator convergence vs MN) | `fig9` |
//! | Fig. 10a (Bode magnitude + error band) | `fig10a` |
//! | Fig. 10b (Bode phase + error band) | `fig10b` |
//! | Fig. 10c (harmonic distortion vs scope) | `fig10c` |
//! | headline dynamic range claim | `dynamic_range` |
//! | ablation: oversampling ratio N | `ablation_n` |
//! | ablation: circuit non-idealities | `ablation_nonideal` |
//! | ablation: modulator order | `ablation_order` |

// No unsafe code belongs in this crate; the only unsafe in the
// workspace is mixsig's runtime-dispatched AVX2 noise kernels.
#![forbid(unsafe_code)]

use dsp::tone::Tone;

/// Mean of a slice.
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// Sample standard deviation of a slice.
pub fn std_dev(v: &[f64]) -> f64 {
    let m = mean(v);
    (v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (v.len() as f64 - 1.0).max(1.0)).sqrt()
}

/// Minimum and maximum of a slice.
pub fn min_max(v: &[f64]) -> (f64, f64) {
    v.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

/// A streaming tone source at normalized frequency `f` (amplitude `a`,
/// start phase `phi`) — the ubiquitous workload of the harnesses.
pub fn tone_source(f: f64, a: f64, phi: f64) -> impl FnMut() -> f64 {
    let tone = Tone::new(f, a, phi);
    let mut n = 0usize;
    move || {
        let v = tone.sample(n);
        n += 1;
        v
    }
}

/// Prints a standard harness header.
pub fn banner(figure: &str, description: &str) {
    println!("================================================================");
    println!("  {figure} — {description}");
    println!("  (reproduction of Barragán/Vázquez/Rueda, DATE 2008)");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics_helpers() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&v), 2.5);
        assert!((std_dev(&v) - 1.2909944).abs() < 1e-6);
        assert_eq!(min_max(&v), (1.0, 4.0));
    }

    #[test]
    fn tone_source_streams() {
        let mut src = tone_source(0.25, 1.0, 0.0);
        assert!(src().abs() < 1e-12);
        assert!((src() - 1.0).abs() < 1e-12);
    }
}
