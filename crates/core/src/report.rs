//! Text, CSV and JSON rendering of analyzer results — and, for lot
//! documents, parsing back ([`parse_lot_json`]).
//!
//! JSON documents are hand-rendered (the workspace builds fully offline,
//! so there is no serde) and self-describing via a `"schema"` field:
//! `netan.bode.v2` for [`bode_json`] (v2 added the per-point `"round"`
//! refinement provenance) and `netan.lot.v4` for [`lot_json`] (v2 added
//! the escalation budget ledger, per-stage summaries and per-device
//! stage provenance; v3 added the [`ShardSpan`] provenance and per-stage
//! `device_time_s` that make shard merges and checkpoint resume exact;
//! v4 added the observed-cost provenance — the report-level `stopping`
//! policy and per-device `stage_times_s` charges); v1–v3 documents of
//! both families remain readable, both by the `plot_report` consumer
//! and by [`parse_lot_json`]. Numbers use Rust's shortest round-trip
//! `f64` formatting; non-finite values render as `null`. Together those
//! two facts make serialization lossless for every serialized field:
//! re-rendering a parsed v4 document reproduces it byte for byte, which
//! is what the [`checkpoint`](crate::checkpoint) driver's
//! resume-equality guarantee rests on.

use crate::analyzer::BodePoint;
use crate::harmonics::DistortionReport;
use crate::json::{write_f64 as json_f64, Json};
use crate::lot::{DeviceReport, LotReport, ShardSpan, StageSummary, StoppingPolicy, VerdictCounts};
use crate::spec::{GainMask, MaskPoint, SpecVerdict};
use crate::sweep::{BodePlot, LowpassFit};
use mixsig::units::{Hertz, Seconds};
use sdeval::Bounded;
use std::fmt::Write as _;

pub use crate::json::ReportParseError;

/// Renders a Bode plot as a human-readable table (the rows of paper
/// Fig. 10a/b).
pub fn bode_table(plot: &BodePlot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>12} {:>10} {:>18} {:>10} {:>10} {:>20} {:>12}",
        "freq (Hz)",
        "gain (dB)",
        "gain band (dB)",
        "ideal",
        "phase (°)",
        "phase band (°)",
        "ideal (°)"
    );
    for p in plot.points() {
        let _ = writeln!(
            out,
            "{:>12.1} {:>10.3} [{:>7.3}, {:>7.3}] {:>10.3} {:>10.2} [{:>8.2}, {:>8.2}] {:>12.2}",
            p.frequency.value(),
            p.gain_db.est,
            p.gain_db.lo,
            p.gain_db.hi,
            p.ideal_gain_db,
            p.phase_deg.est,
            p.phase_deg.lo,
            p.phase_deg.hi,
            p.ideal_phase_deg,
        );
    }
    out
}

/// Renders a Bode plot as CSV with a header row. The trailing `round`
/// column is the adaptive-refinement provenance (0 for fixed-grid
/// sweeps and seed points).
pub fn bode_csv(plot: &BodePlot) -> String {
    let mut out = String::from(
        "freq_hz,gain_db,gain_db_lo,gain_db_hi,ideal_gain_db,phase_deg,phase_deg_lo,phase_deg_hi,ideal_phase_deg,round\n",
    );
    for p in plot.points() {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{}",
            p.frequency.value(),
            p.gain_db.est,
            p.gain_db.lo,
            p.gain_db.hi,
            p.ideal_gain_db,
            p.phase_deg.est,
            p.phase_deg.lo,
            p.phase_deg.hi,
            p.ideal_phase_deg,
            p.round,
        );
    }
    out
}

fn verdict_str(v: SpecVerdict) -> &'static str {
    match v {
        SpecVerdict::Pass => "pass",
        SpecVerdict::Fail => "fail",
        SpecVerdict::Ambiguous => "ambiguous",
    }
}

/// Renders a lot report as a human-readable screening table: one row per
/// device (with its escalation stage, final `M` and cumulative simulated
/// test time), the verdict histogram, the yield enclosure, and — when the
/// run carried stage accounting — one summary line per executed stage
/// plus the budget ledger (prefixed by a `stopping: sequential` line
/// when the run used per-device sequential stopping). A report with
/// shard provenance closes with a
/// `shard: seeds [start, end) — complete|incomplete` footer line.
pub fn lot_table(report: &LotReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>8} {:>10} {:>6} {:>6} {:>9} {:>12} {:>8} {:>16}",
        "seed", "verdict", "stage", "M", "t (s)", "fit f0 (Hz)", "fit Q", "worst |dG| (dB)"
    );
    for d in report.devices() {
        let (f0, q) = match d.fit {
            Some(fit) => (format!("{:.1}", fit.f0.value()), format!("{:.4}", fit.q)),
            None => (String::from("-"), String::from("-")),
        };
        let worst = match d.plot.worst_gain_error_db() {
            Some(e) => format!("{e:.3}"),
            None => String::from("-"),
        };
        let _ = writeln!(
            out,
            "{:>8} {:>10} {:>6} {:>6} {:>9.3} {:>12} {:>8} {:>16}",
            d.seed,
            verdict_str(d.verdict),
            d.stage,
            d.periods,
            d.test_time.value(),
            f0,
            q,
            worst,
        );
    }
    let c = report.counts();
    let _ = writeln!(
        out,
        "lot: {} devices — {} pass, {} fail, {} ambiguous (re-test with larger M)",
        c.total(),
        c.pass,
        c.fail,
        c.ambiguous
    );
    match report.yield_bounds() {
        Some((ylo, yhi)) => {
            let _ = writeln!(out, "yield: [{:.1}%, {:.1}%]", 100.0 * ylo, 100.0 * yhi);
        }
        None => {
            let _ = writeln!(out, "yield: n/a (empty lot)");
        }
    }
    if report.stopping() == StoppingPolicy::Sequential {
        let _ = writeln!(out, "stopping: sequential (per-device stage increments)");
    }
    for s in report.stages() {
        let _ = writeln!(
            out,
            "stage {} (M = {}): {} tested in {:.3} s — {} pass, {} fail, {} ambiguous",
            s.stage,
            s.periods,
            s.tested,
            s.time.value(),
            s.counts.pass,
            s.counts.fail,
            s.counts.ambiguous,
        );
    }
    if !report.stages().is_empty() {
        let spent = report.spent().value();
        match report.budget() {
            Some(b) => {
                let _ = writeln!(
                    out,
                    "budget: spent {:.3} s of {:.3} s{}",
                    spent,
                    b.value(),
                    if report.budget_exhausted() {
                        " (exhausted before the schedule)"
                    } else {
                        ""
                    }
                );
            }
            None => {
                let _ = writeln!(out, "budget: spent {spent:.3} s (no limit)");
            }
        }
    }
    if let Some(s) = report.shard() {
        let _ = writeln!(
            out,
            "shard: seeds [{}, {}) — {}",
            s.seed_start,
            s.seed_end,
            if s.complete { "complete" } else { "incomplete" }
        );
    }
    out
}

/// The seed-range cell of the CSV shard column: `start..end` for a
/// complete span, `~start..end` for a halted (incomplete) one, empty
/// when the report carries no provenance — so rows keep saying which
/// shard produced them even after shard CSVs are concatenated.
fn shard_cell(shard: Option<ShardSpan>) -> String {
    match shard {
        Some(s) if s.complete => format!("{}..{}", s.seed_start, s.seed_end),
        Some(s) => format!("~{}..{}", s.seed_start, s.seed_end),
        None => String::new(),
    }
}

/// Renders a lot report as CSV with a header row: one row per device,
/// twelve columns (`seed, verdict, fit_gain, fit_f0_hz, fit_q,
/// cutoff_hz, worst_gain_err_db, stage, periods, test_time_s,
/// stage_times_s, shard` — `stage`/`periods`/`test_time_s` are the
/// escalation provenance, stage 0 for plain runs; `stage_times_s` is
/// the observed per-stage charge ledger, `;`-joined, empty for pre-v4
/// documents; `shard` is the report's seed range, `start..end`,
/// prefixed `~` when incomplete and empty when unknown); missing
/// fit/cutoff fields render empty.
pub fn lot_csv(report: &LotReport) -> String {
    let mut out = String::from(
        "seed,verdict,fit_gain,fit_f0_hz,fit_q,cutoff_hz,worst_gain_err_db,stage,periods,test_time_s,stage_times_s,shard\n",
    );
    let shard = shard_cell(report.shard());
    for d in report.devices() {
        let (gain, f0, q) = match d.fit {
            Some(fit) => (
                fit.gain.to_string(),
                fit.f0.value().to_string(),
                fit.q.to_string(),
            ),
            None => (String::new(), String::new(), String::new()),
        };
        let cutoff = d
            .plot
            .cutoff_frequency()
            .map(|f| f.value().to_string())
            .unwrap_or_default();
        // An empty plot renders an empty field, not a fake perfect 0.
        let worst = d
            .plot
            .worst_gain_error_db()
            .map(|e| e.to_string())
            .unwrap_or_default();
        let stage_times = d
            .stage_times
            .iter()
            .map(|t| t.value().to_string())
            .collect::<Vec<_>>()
            .join(";");
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{}",
            d.seed,
            verdict_str(d.verdict),
            gain,
            f0,
            q,
            cutoff,
            worst,
            d.stage,
            d.periods,
            d.test_time.value(),
            stage_times,
            shard,
        );
    }
    out
}

fn json_bounded(out: &mut String, b: &Bounded) {
    out.push_str("{\"lo\":");
    json_f64(out, b.lo);
    out.push_str(",\"est\":");
    json_f64(out, b.est);
    out.push_str(",\"hi\":");
    json_f64(out, b.hi);
    out.push('}');
}

fn json_bode_point(out: &mut String, p: &BodePoint, with_round: bool) {
    out.push_str("{\"freq_hz\":");
    json_f64(out, p.frequency.value());
    out.push_str(",\"gain_db\":");
    json_bounded(out, &p.gain_db);
    out.push_str(",\"phase_deg\":");
    json_bounded(out, &p.phase_deg);
    out.push_str(",\"ideal_gain_db\":");
    json_f64(out, p.ideal_gain_db);
    out.push_str(",\"ideal_phase_deg\":");
    json_f64(out, p.ideal_phase_deg);
    if with_round {
        let _ = write!(out, ",\"round\":{}", p.round);
    }
    out.push('}');
}

fn json_points(out: &mut String, points: &[BodePoint], with_round: bool) {
    out.push('[');
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_bode_point(out, p, with_round);
    }
    out.push(']');
}

/// Renders a Bode plot as a JSON document (schema `netan.bode.v2`; v2
/// added the per-point `"round"` adaptive-refinement provenance, 0 for
/// fixed-grid sweeps).
pub fn bode_json(plot: &BodePlot) -> String {
    let mut out = String::from("{\"schema\":\"netan.bode.v2\",\"points\":");
    json_points(&mut out, plot.points(), true);
    out.push('}');
    out
}

fn json_counts(out: &mut String, c: &crate::lot::VerdictCounts) {
    let _ = write!(
        out,
        "{{\"pass\":{},\"fail\":{},\"ambiguous\":{}}}",
        c.pass, c.fail, c.ambiguous
    );
}

/// Renders a lot report as a JSON document (schema `netan.lot.v4`): the
/// shard provenance (`null` when unknown), the stopping policy, the
/// mask, the verdict histogram, the yield enclosure (`null` for an
/// empty lot), the escalation budget ledger and per-stage summaries (v3
/// adds each stage's uniform `device_time_s`, `null` for
/// device-dependent charges), and per-device verdict, stage provenance,
/// observed per-stage charges (`stage_times_s`, v4), f0/Q fit and full
/// point set. v1 documents (no `budget`/`stages`, no per-device
/// provenance), v2 documents (no `shard`/`device_time_s`) and v3
/// documents (no `stopping`/`stage_times_s`) remain readable, by the
/// `plot_report` consumer and by [`parse_lot_json`].
pub fn lot_json(report: &LotReport) -> String {
    let mut out = String::from("{\"schema\":\"netan.lot.v4\",\"stopping\":");
    let _ = write!(
        out,
        "\"{}\"",
        match report.stopping() {
            StoppingPolicy::Staged => "staged",
            StoppingPolicy::Sequential => "sequential",
        }
    );
    out.push_str(",\"shard\":");
    match report.shard() {
        Some(s) => {
            let _ = write!(
                out,
                "{{\"seed_start\":{},\"seed_end\":{},\"complete\":{}}}",
                s.seed_start, s.seed_end, s.complete
            );
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"mask\":[");
    for (i, m) in report.mask().points().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"freq_hz\":");
        json_f64(&mut out, m.frequency.value());
        out.push_str(",\"min_db\":");
        json_f64(&mut out, m.min_db);
        out.push_str(",\"max_db\":");
        json_f64(&mut out, m.max_db);
        out.push('}');
    }
    out.push_str("],\"counts\":");
    json_counts(&mut out, &report.counts());
    out.push_str(",\"yield\":");
    match report.yield_bounds() {
        Some((ylo, yhi)) => {
            out.push_str("{\"lo\":");
            json_f64(&mut out, ylo);
            out.push_str(",\"hi\":");
            json_f64(&mut out, yhi);
            out.push('}');
        }
        // An empty lot has no yield — not a 0 % one.
        None => out.push_str("null"),
    }
    out.push_str(",\"budget\":{\"limit_s\":");
    match report.budget() {
        Some(b) => json_f64(&mut out, b.value()),
        None => out.push_str("null"),
    }
    out.push_str(",\"spent_s\":");
    json_f64(&mut out, report.spent().value());
    let _ = write!(out, ",\"exhausted\":{}}}", report.budget_exhausted());
    out.push_str(",\"stages\":[");
    for (i, s) in report.stages().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"stage\":{},\"periods\":{},\"tested\":{},\"time_s\":",
            s.stage, s.periods, s.tested
        );
        json_f64(&mut out, s.time.value());
        out.push_str(",\"device_time_s\":");
        match s.device_time {
            Some(c) => json_f64(&mut out, c.value()),
            None => out.push_str("null"),
        }
        out.push_str(",\"counts\":");
        json_counts(&mut out, &s.counts);
        out.push('}');
    }
    out.push_str("],\"devices\":[");
    for (i, d) in report.devices().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"seed\":{},\"verdict\":\"{}\",\"stage\":{},\"periods\":{},\"test_time_s\":",
            d.seed,
            verdict_str(d.verdict),
            d.stage,
            d.periods
        );
        json_f64(&mut out, d.test_time.value());
        out.push_str(",\"stage_times_s\":[");
        for (k, t) in d.stage_times.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            json_f64(&mut out, t.value());
        }
        out.push(']');
        out.push_str(",\"fit\":");
        match d.fit {
            Some(fit) => {
                out.push_str("{\"gain\":");
                json_f64(&mut out, fit.gain);
                out.push_str(",\"f0_hz\":");
                json_f64(&mut out, fit.f0.value());
                out.push_str(",\"q\":");
                json_f64(&mut out, fit.q);
                out.push('}');
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"cutoff_hz\":");
        match d.plot.cutoff_frequency() {
            Some(f) => json_f64(&mut out, f.value()),
            None => out.push_str("null"),
        }
        // Lot documents stay at schema v1: no per-point round field.
        out.push_str(",\"points\":");
        json_points(&mut out, d.plot.points(), false);
        out.push('}');
    }
    out.push_str("]}");
    out
}

fn parse_bounded(j: &Json) -> Result<Bounded, ReportParseError> {
    // Constructed as a literal, not via `Bounded::new`: a `null` bound
    // reads back as NaN, which the ordering assert would reject.
    Ok(Bounded {
        lo: j.field("lo")?.as_f64()?,
        est: j.field("est")?.as_f64()?,
        hi: j.field("hi")?.as_f64()?,
    })
}

fn parse_counts(j: &Json) -> Result<VerdictCounts, ReportParseError> {
    Ok(VerdictCounts {
        pass: j.field("pass")?.as_int("count")?,
        fail: j.field("fail")?.as_int("count")?,
        ambiguous: j.field("ambiguous")?.as_int("count")?,
    })
}

fn parse_device(d: &Json, version: u32) -> Result<DeviceReport, ReportParseError> {
    let verdict = match d.field("verdict")?.as_str()? {
        "pass" => SpecVerdict::Pass,
        "fail" => SpecVerdict::Fail,
        "ambiguous" => SpecVerdict::Ambiguous,
        other => {
            return Err(ReportParseError::doc(format!("unknown verdict {other:?}")));
        }
    };
    let fit = match d.field("fit")? {
        Json::Null => None,
        f => Some(LowpassFit {
            gain: f.field("gain")?.as_f64()?,
            f0: Hertz(f.field("f0_hz")?.as_f64()?),
            q: f.field("q")?.as_f64()?,
        }),
    };
    let mut points = Vec::new();
    for p in d.field("points")?.as_arr()? {
        let gain_db = parse_bounded(p.field("gain_db")?)?;
        // Lot documents serialize the dB enclosure only; the linear
        // gain is rebuilt from it. Derived JSON fields (cutoff, worst
        // error) use the dB side, so re-rendering stays byte-exact; the
        // f0/Q fit — which does use linear gains — is parsed above, not
        // recomputed.
        let db_to_lin = |db: f64| 10f64.powf(db / 20.0);
        points.push(BodePoint {
            frequency: Hertz(p.field("freq_hz")?.as_f64()?),
            gain: Bounded {
                lo: db_to_lin(gain_db.lo),
                est: db_to_lin(gain_db.est),
                hi: db_to_lin(gain_db.hi),
            },
            gain_db,
            phase_deg: parse_bounded(p.field("phase_deg")?)?,
            ideal_gain_db: p.field("ideal_gain_db")?.as_f64()?,
            ideal_phase_deg: p.field("ideal_phase_deg")?.as_f64()?,
            round: 0,
        });
    }
    // v1 devices carry no escalation provenance: stage 0, M unknown.
    let (stage, periods, test_time) = if version >= 2 {
        (
            d.field("stage")?.as_int("stage")?,
            d.field("periods")?.as_int("periods")?,
            Seconds(d.field("test_time_s")?.as_f64()?),
        )
    } else {
        (0, 0, Seconds(0.0))
    };
    // Pre-v4 documents carry no observed per-stage charges.
    let mut stage_times = Vec::new();
    if version >= 4 {
        for t in d.field("stage_times_s")?.as_arr()? {
            stage_times.push(Seconds(t.as_f64()?));
        }
    }
    Ok(DeviceReport {
        seed: d.field("seed")?.as_int("seed")?,
        plot: BodePlot::new(points),
        verdict,
        fit,
        stage,
        periods,
        test_time,
        stage_times,
    })
}

/// Parses a `netan.lot.v1`/`v2`/`v3`/`v4` JSON document — the exact
/// inverse of [`lot_json`] for every serialized field.
///
/// Derived fields (`counts`, `yield`, `spent_s`, `cutoff_hz`) are
/// recomputed, not read; combined with shortest-round-trip number
/// formatting, re-rendering a parsed v4 document with [`lot_json`]
/// reproduces it **byte for byte**. Fields a schema version predates
/// load as their neutral values (v1: stage-0 provenance with `M = 0`
/// and zero test time, no budget/stages; v2: no shard span, no
/// per-stage `device_time_s`; v3: staged stopping, empty per-device
/// `stage_times_s`). The per-point linear `gain` enclosure is not
/// serialized and is rebuilt from the dB enclosure; the f0/Q `fit` is
/// parsed verbatim, never refitted.
///
/// # Errors
///
/// [`ReportParseError`] on malformed JSON, an unsupported schema, or a
/// missing/mistyped field, with the byte offset where the parser
/// stopped.
pub fn parse_lot_json(text: &str) -> Result<LotReport, ReportParseError> {
    let doc = Json::parse(text)?;
    lot_report_from_json(&doc)
}

/// Interprets an already-parsed [`Json`] document as a lot report.
///
/// This is [`parse_lot_json`] minus the text parsing step; it exists so
/// callers that embed a `netan.lot.v*` document inside a larger frame
/// (e.g. the `netan.job.v1` service protocol) can hand over the nested
/// value without re-rendering it to text first.
///
/// # Errors
///
/// [`ReportParseError`] on an unsupported schema or a missing/mistyped
/// field (offset 0: interpretation happens after parsing).
pub fn lot_report_from_json(doc: &Json) -> Result<LotReport, ReportParseError> {
    let schema = doc.field("schema")?.as_str()?;
    let version = match schema {
        "netan.lot.v1" => 1,
        "netan.lot.v2" => 2,
        "netan.lot.v3" => 3,
        "netan.lot.v4" => 4,
        other => {
            return Err(ReportParseError::doc(format!(
                "unsupported schema {other:?} (expected netan.lot.v1/v2/v3/v4)"
            )));
        }
    };

    let mut mask = GainMask::new();
    for m in doc.field("mask")?.as_arr()? {
        mask = mask.with_point(MaskPoint::try_new(
            Hertz(m.field("freq_hz")?.as_f64()?),
            m.field("min_db")?.as_f64()?,
            m.field("max_db")?.as_f64()?,
        )?);
    }

    let mut devices = Vec::new();
    for d in doc.field("devices")?.as_arr()? {
        devices.push(parse_device(d, version)?);
    }

    let mut report = LotReport::new(mask, devices);
    if version >= 2 {
        let mut stages = Vec::new();
        for s in doc.field("stages")?.as_arr()? {
            let device_time = if version >= 3 {
                match s.field("device_time_s")? {
                    Json::Null => None,
                    c => Some(Seconds(c.as_f64()?)),
                }
            } else {
                None
            };
            stages.push(StageSummary {
                stage: s.field("stage")?.as_int("stage")?,
                periods: s.field("periods")?.as_int("periods")?,
                tested: s.field("tested")?.as_int("tested")?,
                counts: parse_counts(s.field("counts")?)?,
                time: Seconds(s.field("time_s")?.as_f64()?),
                device_time,
            });
        }
        let budget = doc.field("budget")?;
        let limit = match budget.field("limit_s")? {
            Json::Null => None,
            b => Some(Seconds(b.as_f64()?)),
        };
        report = report
            .with_stages(stages)
            .with_budget(limit, budget.field("exhausted")?.as_bool()?);
    }
    if version >= 3 {
        if let shard @ Json::Obj(_) = doc.field("shard")? {
            report = report.with_shard(ShardSpan {
                seed_start: shard.field("seed_start")?.as_int("seed")?,
                seed_end: shard.field("seed_end")?.as_int("seed")?,
                complete: shard.field("complete")?.as_bool()?,
            });
        }
    }
    if version >= 4 {
        let stopping = match doc.field("stopping")?.as_str()? {
            "staged" => StoppingPolicy::Staged,
            "sequential" => StoppingPolicy::Sequential,
            other => {
                return Err(ReportParseError::doc(format!(
                    "unknown stopping policy {other:?}"
                )));
            }
        };
        report = report.with_stopping(stopping);
    }
    Ok(report)
}

/// Renders a distortion report (the read-offs of paper Fig. 10c).
pub fn distortion_table(report: &DistortionReport) -> String {
    let mut out = String::new();
    let fund = report.fundamental();
    let _ = writeln!(
        out,
        "fundamental: {:.4} V  [{:.4}, {:.4}]",
        fund.est, fund.lo, fund.hi
    );
    for m in &report.measurements()[1..] {
        let Some(hd) = report.hd_dbc(m.k) else {
            continue;
        };
        let _ = writeln!(
            out,
            "H{}: {:>7.2} dBc  [{:>7.2}, {:>7.2}]   ({:.3} mV)",
            m.k,
            hd.est,
            hd.lo,
            hd.hi,
            m.amplitude.est * 1e3,
        );
    }
    let _ = writeln!(out, "THD: {:.2} dB", report.thd_db());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::BodePoint;
    use mixsig::units::Hertz;
    use sdeval::{Bounded, HarmonicMeasurement, SignaturePair};

    fn plot() -> BodePlot {
        BodePlot::new(vec![BodePoint {
            frequency: Hertz(1000.0),
            gain: Bounded::new(0.7, 0.707, 0.72),
            gain_db: Bounded::new(-3.1, -3.01, -2.9),
            phase_deg: Bounded::new(-91.0, -90.0, -89.0),
            ideal_gain_db: -3.01,
            ideal_phase_deg: -90.0,
            round: 0,
        }])
    }

    #[test]
    fn table_contains_values() {
        let t = bode_table(&plot());
        assert!(t.contains("1000.0"));
        assert!(t.contains("-3.01"));
        assert!(t.contains("-90.00"));
    }

    #[test]
    fn csv_round_trips_fields() {
        let c = bode_csv(&plot());
        let mut lines = c.lines();
        let header = lines.next().unwrap();
        assert_eq!(header.split(',').count(), 10);
        assert!(header.ends_with(",round"));
        let row = lines.next().unwrap();
        assert_eq!(row.split(',').count(), 10);
        assert!(row.starts_with("1000"));
        assert!(row.ends_with(",0"));
    }

    fn synthetic_lot() -> LotReport {
        use crate::lot::{DeviceReport, StageSummary, VerdictCounts};
        use crate::spec::{GainMask, MaskPoint};
        use crate::sweep::LowpassFit;
        use mixsig::units::Seconds;
        let mask = GainMask::new()
            .with_point(MaskPoint::new(Hertz(100.0), -1.0, 1.0))
            .with_point(MaskPoint::new(Hertz(1000.0), -4.5, -1.5));
        let device = |seed: u64,
                      verdict: SpecVerdict,
                      fit: Option<LowpassFit>,
                      stage: usize,
                      periods: u32| DeviceReport {
            seed,
            plot: plot(),
            verdict,
            fit,
            stage,
            periods,
            test_time: Seconds(0.25 * (stage + 1) as f64),
            stage_times: vec![Seconds(0.25); stage + 1],
        };
        let fit = LowpassFit {
            gain: 1.0,
            f0: Hertz(1000.0),
            q: 0.72,
        };
        LotReport::new(
            mask,
            vec![
                device(0, SpecVerdict::Pass, Some(fit), 0, 50),
                device(1, SpecVerdict::Ambiguous, Some(fit), 1, 200),
                device(2, SpecVerdict::Fail, None, 0, 50),
            ],
        )
        .with_stages(vec![
            StageSummary {
                stage: 0,
                periods: 50,
                tested: 3,
                counts: VerdictCounts {
                    pass: 1,
                    fail: 1,
                    ambiguous: 1,
                },
                time: Seconds(0.75),
                device_time: Some(Seconds(0.25)),
            },
            StageSummary {
                stage: 1,
                periods: 200,
                tested: 1,
                counts: VerdictCounts {
                    pass: 1,
                    fail: 1,
                    ambiguous: 1,
                },
                time: Seconds(0.25),
                device_time: None,
            },
        ])
        .with_budget(Some(Seconds(2.0)), true)
    }

    #[test]
    fn lot_table_lists_devices_stages_and_yield() {
        let t = lot_table(&synthetic_lot());
        assert!(t.contains("verdict"));
        assert!(t.contains("stage"));
        assert!(t.contains("ambiguous"));
        assert!(t.contains("1 pass, 1 fail, 1 ambiguous"));
        assert!(t.contains("yield: [33.3%, 66.7%]"));
        assert!(t.contains("stage 0 (M = 50): 3 tested"));
        assert!(t.contains("stage 1 (M = 200): 1 tested"));
        assert!(t.contains("budget: spent 1.000 s of 2.000 s (exhausted before the schedule)"));
        // One header + three devices + histogram + yield + two stage
        // lines + budget line.
        assert_eq!(t.lines().count(), 9);
    }

    #[test]
    fn lot_table_without_stage_accounting_stays_compact() {
        let report = LotReport::new(crate::spec::GainMask::new(), Vec::new());
        let t = lot_table(&report);
        assert!(t.contains("yield: n/a (empty lot)"));
        assert!(!t.contains("budget:"));
        // Header + histogram + yield only.
        assert_eq!(t.lines().count(), 3);
    }

    #[test]
    fn lot_csv_layout_is_stable() {
        let c = lot_csv(&synthetic_lot());
        let lines: Vec<&str> = c.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[0],
            "seed,verdict,fit_gain,fit_f0_hz,fit_q,cutoff_hz,worst_gain_err_db,stage,periods,test_time_s,stage_times_s,shard"
        );
        for row in &lines[1..] {
            assert_eq!(row.split(',').count(), 12, "row {row}");
        }
        // The fit-less device renders empty fit columns and carries its
        // stage-0 provenance in the trailing columns; no shard
        // provenance renders an empty trailing cell.
        assert!(lines[3].starts_with("2,fail,,,"));
        assert!(lines[3].ends_with(",0,50,0.25,0.25,"));
        // The escalated device reports stage 1, its cumulative time and
        // the `;`-joined observed per-stage charges.
        assert!(lines[2].ends_with(",1,200,0.5,0.25;0.25,"));
    }

    #[test]
    fn lot_csv_shard_column_carries_the_seed_range() {
        use crate::lot::ShardSpan;
        let report = synthetic_lot().with_shard(ShardSpan::complete(0..3));
        let c = lot_csv(&report);
        for row in c.lines().skip(1) {
            assert!(row.ends_with(",0..3"), "row {row}");
        }
        let halted = synthetic_lot().with_shard(ShardSpan {
            seed_start: 0,
            seed_end: 8,
            complete: false,
        });
        for row in lot_csv(&halted).lines().skip(1) {
            assert!(row.ends_with(",~0..8"), "row {row}");
        }
    }

    #[test]
    fn lot_table_shard_footer_lines() {
        use crate::lot::ShardSpan;
        let plain = lot_table(&synthetic_lot());
        assert!(!plain.contains("shard:"));
        let t = lot_table(&synthetic_lot().with_shard(ShardSpan::complete(0..3)));
        assert!(t.contains("shard: seeds [0, 3) — complete"));
        // Header + 3 devices + histogram + yield + 2 stages + budget +
        // shard footer.
        assert_eq!(t.lines().count(), 10);
        let halted = lot_table(&synthetic_lot().with_shard(ShardSpan {
            seed_start: 0,
            seed_end: 8,
            complete: false,
        }));
        assert!(halted.contains("shard: seeds [0, 8) — incomplete"));
    }

    #[test]
    fn bode_json_is_self_describing() {
        let j = bode_json(&plot());
        assert!(j.starts_with("{\"schema\":\"netan.bode.v2\""));
        assert!(j.contains("\"freq_hz\":1000"));
        assert!(j.contains("\"gain_db\":{\"lo\":-3.1,\"est\":-3.01,\"hi\":-2.9}"));
        assert!(j.contains("\"round\":0"));
        assert!(j.ends_with("]}"));
    }

    #[test]
    fn lot_json_points_carry_no_round_field() {
        // Lot points still omit the per-point adaptive provenance.
        let j = lot_json(&synthetic_lot());
        assert!(j.starts_with("{\"schema\":\"netan.lot.v4\""));
        assert!(!j.contains("\"round\":"));
    }

    #[test]
    fn lot_json_carries_mask_counts_stages_and_devices() {
        let j = lot_json(&synthetic_lot());
        assert!(j.starts_with(
            "{\"schema\":\"netan.lot.v4\",\"stopping\":\"staged\",\"shard\":null,\"mask\":["
        ));
        assert!(j.contains("\"counts\":{\"pass\":1,\"fail\":1,\"ambiguous\":1}"));
        assert!(j.contains("\"verdict\":\"ambiguous\""));
        assert!(j.contains("\"fit\":null"));
        assert!(j.contains("\"min_db\":-4.5"));
        // v2: budget ledger, per-stage summaries, per-device provenance.
        assert!(j.contains("\"budget\":{\"limit_s\":2,\"spent_s\":1,\"exhausted\":true}"));
        // v3: each stage's uniform per-device cost (null when unknown).
        assert!(j.contains(
            "\"stages\":[{\"stage\":0,\"periods\":50,\"tested\":3,\"time_s\":0.75,\"device_time_s\":0.25"
        ));
        assert!(j.contains(
            "{\"stage\":1,\"periods\":200,\"tested\":1,\"time_s\":0.25,\"device_time_s\":null"
        ));
        assert!(j.contains(
            "\"seed\":1,\"verdict\":\"ambiguous\",\"stage\":1,\"periods\":200,\"test_time_s\":0.5"
        ));
        // v4: observed per-stage charges ride along with each device.
        assert!(j.contains("\"test_time_s\":0.5,\"stage_times_s\":[0.25,0.25]"));
        assert_eq!(j.matches("\"seed\":").count(), 3);
        // Balanced braces/brackets — a cheap well-formedness check.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn lot_json_shard_provenance_round_trips() {
        use crate::lot::ShardSpan;
        let report = synthetic_lot().with_shard(ShardSpan {
            seed_start: 4,
            seed_end: 9,
            complete: false,
        });
        let j = lot_json(&report);
        assert!(j.contains("\"shard\":{\"seed_start\":4,\"seed_end\":9,\"complete\":false}"));
        let parsed = parse_lot_json(&j).expect("own output parses");
        assert_eq!(parsed.shard(), report.shard());
        assert_eq!(lot_json(&parsed), j);
    }

    #[test]
    fn parse_lot_json_reproduces_the_document_byte_for_byte() {
        let report = synthetic_lot();
        let j = lot_json(&report);
        let parsed = parse_lot_json(&j).expect("own output parses");
        assert_eq!(lot_json(&parsed), j);
        // Everything serialized is reconstructed exactly.
        assert_eq!(parsed.stages(), report.stages());
        assert_eq!(parsed.budget(), report.budget());
        assert_eq!(parsed.budget_exhausted(), report.budget_exhausted());
        assert_eq!(parsed.mask(), report.mask());
        assert_eq!(parsed.len(), report.len());
        for (p, d) in parsed.devices().iter().zip(report.devices()) {
            assert_eq!(p.seed, d.seed);
            assert_eq!(p.verdict, d.verdict);
            assert_eq!(p.fit, d.fit);
            assert_eq!(
                (p.stage, p.periods, p.test_time),
                (d.stage, d.periods, d.test_time)
            );
            assert_eq!(p.stage_times, d.stage_times);
            for (pp, dp) in p.plot.points().iter().zip(d.plot.points()) {
                assert_eq!(pp.gain_db, dp.gain_db);
                assert_eq!(pp.phase_deg, dp.phase_deg);
                assert_eq!(pp.frequency, dp.frequency);
            }
        }
    }

    #[test]
    fn parse_lot_json_reads_v1_and_v2_documents() {
        // A v1 document: no budget/stages/shard, no device provenance.
        let v1 = r#"{"schema":"netan.lot.v1","mask":[{"freq_hz":1000,"min_db":-4.5,"max_db":-1.5}],"counts":{"pass":1,"fail":0,"ambiguous":0},"yield":{"lo":1,"hi":1},"devices":[{"seed":3,"verdict":"pass","fit":null,"cutoff_hz":null,"points":[{"freq_hz":1000,"gain_db":{"lo":-3.1,"est":-3.01,"hi":-2.9},"phase_deg":{"lo":-91,"est":-90,"hi":-89},"ideal_gain_db":-3.01,"ideal_phase_deg":-90}]}]}"#;
        let r = parse_lot_json(v1).expect("v1 parses");
        assert_eq!(r.len(), 1);
        assert_eq!(r.devices()[0].seed, 3);
        assert_eq!(r.devices()[0].verdict, SpecVerdict::Pass);
        // v1 carries no provenance: neutral values.
        assert_eq!(r.devices()[0].periods, 0);
        assert!(r.stages().is_empty());
        assert_eq!(r.shard(), None);

        // A v2 document gains budget + stages + device provenance.
        let v2 = r#"{"schema":"netan.lot.v2","mask":[],"counts":{"pass":0,"fail":0,"ambiguous":1},"yield":{"lo":0,"hi":1},"budget":{"limit_s":null,"spent_s":0.5,"exhausted":false},"stages":[{"stage":0,"periods":50,"tested":1,"time_s":0.5,"counts":{"pass":0,"fail":0,"ambiguous":1}}],"devices":[{"seed":0,"verdict":"ambiguous","stage":0,"periods":50,"test_time_s":0.5,"fit":null,"cutoff_hz":null,"points":[]}]}"#;
        let r = parse_lot_json(v2).expect("v2 parses");
        assert_eq!(r.stages().len(), 1);
        assert_eq!(r.stages()[0].periods, 50);
        assert_eq!(r.stages()[0].device_time, None);
        assert_eq!(r.devices()[0].periods, 50);
        assert_eq!(r.shard(), None);
        // Pre-v4 documents load the neutral observed-cost provenance.
        assert_eq!(r.stopping(), crate::lot::StoppingPolicy::Staged);
        assert!(r.devices()[0].stage_times.is_empty());
    }

    #[test]
    fn parse_lot_json_reads_v3_documents_with_neutral_v4_fields() {
        // A v3 document is a v4 one minus `stopping`/`stage_times_s`.
        let v3 = r#"{"schema":"netan.lot.v3","shard":{"seed_start":0,"seed_end":1,"complete":true},"mask":[],"counts":{"pass":0,"fail":0,"ambiguous":1},"yield":{"lo":0,"hi":1},"budget":{"limit_s":null,"spent_s":0.5,"exhausted":false},"stages":[{"stage":0,"periods":50,"tested":1,"time_s":0.5,"device_time_s":0.5,"counts":{"pass":0,"fail":0,"ambiguous":1}}],"devices":[{"seed":0,"verdict":"ambiguous","stage":0,"periods":50,"test_time_s":0.5,"fit":null,"cutoff_hz":null,"points":[]}]}"#;
        let r = parse_lot_json(v3).expect("v3 parses");
        assert_eq!(r.stopping(), crate::lot::StoppingPolicy::Staged);
        assert!(r.devices()[0].stage_times.is_empty());
        assert_eq!(r.stages()[0].device_time, Some(Seconds(0.5)));
        assert_eq!(r.shard().map(|s| s.seed_end), Some(1));
        // Re-rendering upgrades the document to v4 with the neutral
        // fields made explicit.
        let j = lot_json(&r);
        assert!(j.starts_with("{\"schema\":\"netan.lot.v4\",\"stopping\":\"staged\""));
        assert!(j.contains("\"stage_times_s\":[]"));
    }

    #[test]
    fn lot_json_sequential_stopping_round_trips() {
        let report = synthetic_lot().with_stopping(crate::lot::StoppingPolicy::Sequential);
        let j = lot_json(&report);
        assert!(j.starts_with("{\"schema\":\"netan.lot.v4\",\"stopping\":\"sequential\""));
        let parsed = parse_lot_json(&j).expect("own output parses");
        assert_eq!(parsed.stopping(), crate::lot::StoppingPolicy::Sequential);
        assert_eq!(lot_json(&parsed), j);
        // The table names the policy only when it is the non-default.
        assert!(lot_table(&report).contains("stopping: sequential"));
        assert!(!lot_table(&synthetic_lot()).contains("stopping:"));
    }

    #[test]
    fn parse_lot_json_rejects_malformed_documents() {
        let bad = [
            "",
            "{",
            "nope",
            r#"{"schema":"netan.bode.v2"}"#,
            r#"{"schema":"netan.lot.v3"}"#,
            r#"{"schema":"netan.lot.v3","shard":null,"mask":[],"devices":[]} trailing"#,
            r#"{"schema":"netan.lot.v1","mask":[],"devices":[{"seed":0,"verdict":"maybe","fit":null,"points":[]}]}"#,
        ];
        for doc in bad {
            assert!(parse_lot_json(doc).is_err(), "accepted: {doc:?}");
        }
        let err = parse_lot_json(r#"{"schema":"netan.lot.v9"}"#).unwrap_err();
        assert!(err.to_string().contains("unsupported schema"));
    }

    #[test]
    fn parse_lot_json_null_reads_back_as_nan_and_rerenders_null() {
        // A NaN phase bound rendered as null must survive a full
        // parse → re-render cycle. The synthetic lot's points are all
        // finite, so the null is patched in JSON space.
        let j = lot_json(&synthetic_lot()).replace("\"est\":-90,", "\"est\":null,");
        let parsed = parse_lot_json(&j).expect("null bound parses");
        assert!(parsed.devices()[0].plot.points()[0].phase_deg.est.is_nan());
        assert_eq!(lot_json(&parsed), j);
    }

    #[test]
    fn lot_json_empty_lot_renders_null_yield() {
        let report = LotReport::new(crate::spec::GainMask::new(), Vec::new());
        let j = lot_json(&report);
        assert!(j.contains("\"yield\":null"));
        assert!(j.contains("\"counts\":{\"pass\":0,\"fail\":0,\"ambiguous\":0}"));
        assert!(j.contains("\"budget\":{\"limit_s\":null,\"spent_s\":0,\"exhausted\":false}"));
        assert!(j.contains("\"stages\":[]"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn non_finite_values_render_as_null() {
        let mut s = String::new();
        json_f64(&mut s, f64::NAN);
        s.push(',');
        json_f64(&mut s, f64::INFINITY);
        s.push(',');
        json_f64(&mut s, 1.5);
        assert_eq!(s, "null,null,1.5");
    }

    #[test]
    fn distortion_table_lists_harmonics() {
        let mk = |k: u32, a: f64| HarmonicMeasurement {
            k,
            amplitude: Bounded::new(a * 0.99, a, a * 1.01),
            phase: Bounded::point(0.0),
            signatures: SignaturePair {
                i1: 0.0,
                i2: 0.0,
                m: 2,
                n: 96,
                k,
            },
            samples_consumed: 0,
        };
        let r = DistortionReport::new(vec![mk(1, 0.2), mk(2, 0.0002)]);
        let t = distortion_table(&r);
        assert!(t.contains("fundamental"));
        assert!(t.contains("H2"));
        assert!(t.contains("THD"));
    }
}
