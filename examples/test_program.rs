//! Building a production test program: plan the test time for each spec
//! point, and export the ATE digital control patterns (the Agilent 93000's
//! role in the paper's Fig. 7).
//!
//! Run with: `cargo run --release --example test_program`

use ate::ControlProgram;
use mixsig::units::Hertz;
use netan::{plan_measurement, GainMask};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The BIST spec mask for the paper's DUT.
    let mask = GainMask::paper_lowpass();

    println!("test plan for the paper's low-pass spec mask");
    println!(
        "{:>12} {:>14} {:>10} {:>14}",
        "freq (Hz)", "expected (V)", "M", "test time (ms)"
    );
    let mut total = 0.0;
    for point in mask.points() {
        // Expected output level: stimulus ≈ 0.29 V scaled by the mask
        // center gain; plan for ±0.2 dB guaranteed accuracy.
        let center_db = (point.min_db() + point.max_db()) / 2.0;
        let expected = 0.29 * 10f64.powf(center_db / 20.0);
        let plan = plan_measurement(expected, 0.2, point.frequency(), 1.0)?;
        total += plan.test_time.value();
        println!(
            "{:>12.0} {:>14.4} {:>10} {:>14.2}",
            point.frequency().value(),
            expected,
            plan.periods,
            plan.test_time.value() * 1e3
        );
    }
    println!("total acquisition time: {:.1} ms\n", total * 1e3);

    // Export the first 12 vectors of the k = 1 control pattern, ATE style.
    let program = ControlProgram::render(1, 12)?;
    println!("digital control pattern (k = 1), cycle  c4c3c2c1  Φin  q1q2:");
    print!("{}", program.to_pattern_text());

    // How the pattern scales: one full stimulus period is 96 vectors.
    let full = ControlProgram::render(3, 96)?;
    println!(
        "\nk = 3 pattern: {} vectors/period, q1 period {} cycles",
        full.len(),
        96 / 3
    );
    let _ = plan_measurement(0.29, 0.05, Hertz(1000.0), 1.0)?; // tighter spec → longer M
    Ok(())
}
