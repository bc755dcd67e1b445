//! Sharded lot runs: the shard/budget driver and checkpoint/resume.
//!
//! [`ShardDrive`] is the one place a sharded lot's ledger is threaded:
//! it splits the lot into fixed-size seed shards, hands each shard the
//! budget the merged shards left over (`global − Σ observed spend`,
//! read off [`LotReport::spent`]), merges shards in seed order with
//! [`LotReport::merge`] whatever order they finish in, and re-brands
//! the merged lot to the one global budget. [`LotCheckpoint`] steps it
//! synchronously; the `netan-serve` worker pool steps it concurrently,
//! so both produce the same bytes by construction.
//!
//! [`LotCheckpoint`] persists each completed shard's `netan.lot.v4`
//! document under a directory, written atomically (temp file + rename)
//! so a crash leaves at worst an ignorable temp file. Restarting the
//! same drive loads every shard whose document is present, parseable
//! and span-matched, and measures anything missing, torn or stale
//! again. Because `netan.lot.v4` re-renders parsed documents byte for
//! byte ([`parse_lot_json`]) and loaded shards contribute their
//! persisted ledgers like fresh ones, an interrupted and resumed lot
//! produces the **identical** document an uninterrupted run would have,
//! budgeted or not.

use crate::analyzer::AnalyzerConfig;
use crate::error::NetanError;
use crate::lot::{EscalationSchedule, LotEngine, LotPlan, LotReport, ShardSpan};
use crate::report::{lot_json, parse_lot_json};
use dut::Dut;
use mixsig::units::Seconds;
use std::collections::BTreeMap;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Error from a checkpointed lot drive.
///
/// Deliberately not `Copy`/`Eq`: it carries paths and
/// [`io::Error`] sources. Unreadable or unparseable shard files are
/// **not** errors — they are treated as absent and re-measured — so
/// this type only surfaces problems that genuinely stop the drive.
#[derive(Debug)]
pub enum CheckpointError {
    /// The checkpoint directory or a shard document could not be
    /// written.
    Io {
        /// The path being written when the failure occurred.
        path: PathBuf,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// The lot itself failed (validation or a device error) — same
    /// semantics as the underlying engine run.
    Lot(NetanError),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { path, source } => {
                write!(f, "checkpoint i/o failed at {}: {source}", path.display())
            }
            CheckpointError::Lot(e) => write!(f, "lot run failed: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => Some(source),
            CheckpointError::Lot(e) => Some(e),
        }
    }
}

impl From<NetanError> for CheckpointError {
    fn from(e: NetanError) -> Self {
        CheckpointError::Lot(e)
    }
}

/// Drives a lot in fixed-size seed shards with per-shard persistence
/// and resume.
///
/// # Example
///
/// ```
/// use netan::{AnalyzerConfig, GainMask, LotCheckpoint, LotEngine, LotPlan};
/// use dut::ActiveRcFilter;
///
/// let plan = LotPlan::from_mask(GainMask::paper_lowpass());
/// let dir = std::env::temp_dir().join(format!("netan-ckpt-doc-{}", std::process::id()));
/// let ckpt = LotCheckpoint::new(&dir, 2);
/// let report = ckpt.run(
///     &LotEngine::serial(),
///     |seed| ActiveRcFilter::paper_dut().linearized().fabricate(0.02, seed),
///     0..4,
///     &plan,
///     AnalyzerConfig::ideal().with_periods(50),
/// )?;
/// assert_eq!(report.len(), 4);
/// assert!(report.shard().unwrap().complete);
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok::<(), netan::CheckpointError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LotCheckpoint {
    dir: PathBuf,
    shard_devices: u64,
    shard_limit: Option<usize>,
}

impl LotCheckpoint {
    /// A checkpoint driver persisting under `dir` (created on first
    /// persist), splitting lots into shards of `shard_devices` seeds
    /// (the final shard of a lot may be smaller).
    ///
    /// Resume matches shards by their exact seed span, so a drive must
    /// keep the same `shard_devices` across restarts to reuse its
    /// checkpoints — a mismatched split is re-measured, never
    /// mis-merged.
    ///
    /// # Panics
    ///
    /// Panics if `shard_devices` is zero.
    pub fn new(dir: impl Into<PathBuf>, shard_devices: u64) -> Self {
        assert!(shard_devices > 0, "shards need at least one device");
        Self {
            dir: dir.into(),
            shard_devices,
            shard_limit: None,
        }
    }

    /// Halts the drive after `limit` freshly measured shards (loaded
    /// checkpoints are free), returning the partial merge with the
    /// *intended* span marked `complete: false` — the hook the
    /// kill-and-resume tests and the `production_screening --halt-after`
    /// flag use to interrupt a lot deterministically.
    #[must_use]
    pub fn with_shard_limit(mut self, limit: usize) -> Self {
        self.shard_limit = Some(limit);
        self
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Devices per shard.
    pub fn shard_devices(&self) -> u64 {
        self.shard_devices
    }

    /// The path of the shard document covering `span`.
    pub fn shard_path(&self, span: &Range<u64>) -> PathBuf {
        self.dir
            .join(format!("shard-{:08}-{:08}.json", span.start, span.end))
    }

    /// Drives `lot` through `engine.run_range` shard by shard,
    /// persisting and resuming as described on the type: exactly
    /// [`run_escalated`](Self::run_escalated) with the one-stage,
    /// unbudgeted schedule `[config]`.
    ///
    /// # Errors
    ///
    /// As [`run_escalated`](Self::run_escalated).
    pub fn run<D, F>(
        &self,
        engine: &LotEngine,
        factory: F,
        lot: Range<u64>,
        plan: &LotPlan,
        config: AnalyzerConfig,
    ) -> Result<LotReport, CheckpointError>
    where
        D: Dut,
        F: Fn(u64) -> D + Sync,
    {
        let schedule = EscalationSchedule::new(vec![config]);
        self.run_escalated(engine, factory, lot, plan, &schedule)
    }

    /// Drives `lot` through `engine.run_escalated_range` shard by
    /// shard, stepping a [`ShardDrive`] synchronously: a budget is
    /// global, each shard running on what the merged shards, loaded
    /// checkpoints included, left over. Resume-equality holds budgeted
    /// or not; byte-identity to a monolithic `run_escalated` holds for
    /// unbudgeted schedules (see the [sharding notes](crate::lot#sharding)).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if a shard document cannot be persisted;
    /// [`CheckpointError::Lot`] for engine failures, such as an empty
    /// `lot` or a remaining global budget that cannot cover a shard's
    /// screening pass ([`NetanError::BudgetExhausted`]).
    pub fn run_escalated<D, F>(
        &self,
        engine: &LotEngine,
        factory: F,
        lot: Range<u64>,
        plan: &LotPlan,
        schedule: &EscalationSchedule,
    ) -> Result<LotReport, CheckpointError>
    where
        D: Dut,
        F: Fn(u64) -> D + Sync,
    {
        if lot.start >= lot.end {
            return Err(CheckpointError::Lot(NetanError::EmptyLot));
        }
        let mut drive = ShardDrive::new(lot, self.shard_devices, plan, schedule);
        let mut fresh = 0usize;
        while let Some(span) = drive.next_span() {
            let report = match self.load_shard(&span, plan) {
                Some(loaded) => loaded,
                // Deterministic halt: hand back the merged prefix,
                // marked as the incomplete prefix of the intended lot.
                None if self.shard_limit.is_some_and(|limit| fresh >= limit) => break,
                None => {
                    let schedule = drive.shard_schedule();
                    let ran =
                        engine.run_escalated_range(&factory, span.clone(), plan, &schedule)?;
                    self.persist_shard(&span, &ran)?;
                    fresh += 1;
                    ran
                }
            };
            drive.record(span, report, ());
            drive.merge_ready();
        }
        Ok(drive.finish())
    }

    /// Loads the persisted shard covering `span`, or `None` when it
    /// must be (re-)measured: file absent or unreadable, document
    /// unparseable (e.g. a torn write), span/mask mismatched, or not
    /// marked complete. External drivers such as `netan-serve` resume
    /// from the same documents through it.
    pub fn load_shard(&self, span: &Range<u64>, plan: &LotPlan) -> Option<LotReport> {
        let text = std::fs::read_to_string(self.shard_path(span)).ok()?;
        let report = parse_lot_json(&text).ok()?;
        let shard = report.shard()?;
        let matches = shard.complete
            && shard.seed_start == span.start
            && shard.seed_end == span.end
            && report.mask() == plan.mask();
        matches.then_some(report)
    }

    /// Persists a completed shard document atomically: written to a
    /// sibling temp file, then renamed into place.
    pub fn persist_shard(
        &self,
        span: &Range<u64>,
        report: &LotReport,
    ) -> Result<(), CheckpointError> {
        let io_err = |path: &Path| {
            let path = path.to_path_buf();
            move |source| CheckpointError::Io { path, source }
        };
        std::fs::create_dir_all(&self.dir).map_err(io_err(&self.dir))?;
        let path = self.shard_path(span);
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, format!("{}\n", lot_json(report))).map_err(io_err(&tmp))?;
        std::fs::rename(&tmp, &path).map_err(io_err(&path))?;
        Ok(())
    }
}

/// A lot's shard spans in seed order, produced lazily: `shard_devices`
/// seeds each (at least 1), the last span possibly smaller. No span
/// list is ever built, so 2⁶⁴ one-device shards cost nothing to count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpans {
    rest: Range<u64>,
    shard_devices: u64,
}

impl ShardSpans {
    /// The spans tiling `lot` in shards of `shard_devices` seeds.
    pub fn new(lot: Range<u64>, shard_devices: u64) -> Self {
        Self {
            rest: lot,
            shard_devices: shard_devices.max(1),
        }
    }

    /// How many spans are left, in O(1).
    pub fn shard_count(&self) -> u64 {
        let len = self.rest.end.saturating_sub(self.rest.start);
        len.div_ceil(self.shard_devices)
    }
}

impl Iterator for ShardSpans {
    type Item = Range<u64>;

    fn next(&mut self) -> Option<Range<u64>> {
        let start = self.rest.start;
        if start >= self.rest.end {
            return None;
        }
        let end = self.rest.end.min(start.saturating_add(self.shard_devices));
        self.rest.start = end;
        Some(start..end)
    }
}

/// The one shard/budget driver of a sharded lot (see the
/// [module docs](self)). `T` tags each recorded shard (the service
/// marks resumed shards with it) and comes back out of
/// [`merge_ready`](Self::merge_ready) with the shard's span.
#[derive(Debug, Clone)]
pub struct ShardDrive<T = ()> {
    lot: Range<u64>,
    shard_devices: u64,
    schedule: EscalationSchedule,
    /// The merged prefix `lot.start..frontier`.
    merged: LotReport,
    frontier: u64,
    /// First seed [`dispatch`](Self::dispatch) has not handed out.
    dispatched: u64,
    /// Recorded shards waiting for their turn to merge, by first seed.
    ready: BTreeMap<u64, (Range<u64>, LotReport, T)>,
}

impl<T> ShardDrive<T> {
    /// A drive over `lot` in shards of `shard_devices` seeds, screening
    /// against `plan` under `schedule`, whose budget (if any) is global.
    pub fn new(
        lot: Range<u64>,
        shard_devices: u64,
        plan: &LotPlan,
        schedule: &EscalationSchedule,
    ) -> Self {
        Self {
            frontier: lot.start,
            dispatched: lot.start,
            lot,
            shard_devices,
            schedule: schedule.clone(),
            merged: LotReport::empty(plan),
            ready: BTreeMap::new(),
        }
    }

    /// How many shards the lot splits into, in O(1).
    pub fn shard_count(&self) -> u64 {
        ShardSpans::new(self.lot.clone(), self.shard_devices).shard_count()
    }

    /// The span at the merge frontier, `None` once the lot has merged.
    pub fn next_span(&self) -> Option<Range<u64>> {
        ShardSpans::new(self.frontier..self.lot.end, self.shard_devices).next()
    }

    /// Hands out the spans that may run now. Unbudgeted shards are
    /// independent: the first call yields them all. A budgeted shard
    /// runs on what the merged prefix left over: one span per call,
    /// once every earlier shard has merged.
    pub fn dispatch(&mut self) -> ShardSpans {
        let end = match self.schedule.budget() {
            None => self.lot.end,
            Some(_) if self.dispatched == self.frontier => {
                self.next_span().map_or(self.frontier, |span| span.end)
            }
            Some(_) => self.dispatched,
        };
        let spans = ShardSpans::new(self.dispatched..end, self.shard_devices);
        self.dispatched = end;
        spans
    }

    /// The schedule the next shard runs under: a budget becomes the
    /// remainder `global − merged.spent()`, floored at 0.
    pub fn shard_schedule(&self) -> EscalationSchedule {
        match self.schedule.budget() {
            Some(global) => {
                let left = (global.value() - self.merged.spent().value()).max(0.0);
                self.schedule.clone().with_budget(Seconds(left))
            }
            None => self.schedule.clone(),
        }
    }

    /// Records a finished shard the drive handed out, in any order.
    pub fn record(&mut self, span: Range<u64>, report: LotReport, tag: T) {
        self.ready.insert(span.start, (span, report, tag));
    }

    /// Merges the recorded shard at the frontier, if any, returning its
    /// span and tag; call until `None` to merge in seed order.
    pub fn merge_ready(&mut self) -> Option<(Range<u64>, T)> {
        let (span, report, tag) = self.ready.remove(&self.frontier)?;
        let identity = LotReport::new(self.merged.mask().clone(), Vec::new());
        self.merged = std::mem::replace(&mut self.merged, identity).merge(report);
        self.frontier = span.end;
        Some((span, tag))
    }

    /// The merged prefix of the lot.
    pub fn merged(&self) -> &LotReport {
        &self.merged
    }

    /// How many shards have merged.
    pub fn merged_shards(&self) -> u64 {
        ShardSpans::new(self.lot.start..self.frontier, self.shard_devices).shard_count()
    }

    /// Whether the whole lot has merged.
    pub fn is_complete(&self) -> bool {
        self.frontier >= self.lot.end
    }

    /// The merged report, answering for the one global budget rather
    /// than the per-shard remainders. A drive stopped early marks the
    /// intended span `complete: false`.
    pub fn finish(self) -> LotReport {
        let complete = self.is_complete();
        let mut report = self.merged;
        if let Some(global) = self.schedule.budget() {
            let exhausted = report.budget_exhausted();
            report = report.with_budget(Some(global), exhausted);
        }
        if !complete {
            report = report.with_shard(ShardSpan {
                seed_start: self.lot.start,
                seed_end: self.lot.end,
                complete: false,
            });
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GainMask;
    use dut::ActiveRcFilter;

    fn factory(seed: u64) -> ActiveRcFilter {
        ActiveRcFilter::paper_dut()
            .linearized()
            .fabricate(0.05, seed)
    }

    fn plan() -> LotPlan {
        LotPlan::from_mask(GainMask::paper_lowpass())
    }

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("netan-ckpt-{tag}-{}", std::process::id()))
    }

    #[test]
    fn constructor_and_paths() {
        let c = LotCheckpoint::new("/tmp/x", 16);
        assert_eq!(c.dir(), Path::new("/tmp/x"));
        assert_eq!(c.shard_devices(), 16);
        assert_eq!(
            c.shard_path(&(0..16)),
            Path::new("/tmp/x/shard-00000000-00000016.json")
        );
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn zero_shard_size_panics() {
        let _ = LotCheckpoint::new("/tmp/x", 0);
    }

    #[test]
    fn empty_lot_is_a_lot_error() {
        let ckpt = LotCheckpoint::new(temp_dir("empty"), 4);
        let err = ckpt
            .run(
                &LotEngine::serial(),
                factory,
                3..3,
                &plan(),
                AnalyzerConfig::ideal().with_periods(50),
            )
            .unwrap_err();
        assert!(matches!(err, CheckpointError::Lot(NetanError::EmptyLot)));
        assert!(err.to_string().contains("lot run failed"));
    }

    #[test]
    fn drive_halt_and_resume_reproduce_the_uninterrupted_document() {
        let dir = temp_dir("resume");
        std::fs::remove_dir_all(&dir).ok();
        let plan = plan();
        let config = AnalyzerConfig::ideal().with_periods(50);
        let engine = LotEngine::serial();

        // The uninterrupted reference: same lot, no checkpoint dir.
        let whole = engine.run_range(factory, 0..6, &plan, config).unwrap();

        // Halt after two fresh shards: 4 of 6 devices measured.
        let halted = LotCheckpoint::new(&dir, 2)
            .with_shard_limit(2)
            .run(&engine, factory, 0..6, &plan, config)
            .unwrap();
        assert_eq!(halted.len(), 4);
        let span = halted.shard().expect("halted drive declares its span");
        assert_eq!(
            (span.seed_start, span.seed_end, span.complete),
            (0, 6, false)
        );

        // Resume: the two persisted shards load, the third runs fresh.
        let resumed = LotCheckpoint::new(&dir, 2)
            .run(&engine, factory, 0..6, &plan, config)
            .unwrap();
        assert_eq!(
            crate::report::lot_json(&resumed),
            crate::report::lot_json(&whole)
        );

        // A second resume is a pure replay from disk — same bytes again.
        let replayed = LotCheckpoint::new(&dir, 2)
            .run(&engine, factory, 0..6, &plan, config)
            .unwrap();
        assert_eq!(
            crate::report::lot_json(&replayed),
            crate::report::lot_json(&whole)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_shard_document_is_re_measured() {
        let dir = temp_dir("torn");
        std::fs::remove_dir_all(&dir).ok();
        let plan = plan();
        let config = AnalyzerConfig::ideal().with_periods(50);
        let engine = LotEngine::serial();
        let ckpt = LotCheckpoint::new(&dir, 2);
        let whole = engine.run_range(factory, 0..4, &plan, config).unwrap();
        ckpt.run(&engine, factory, 0..4, &plan, config).unwrap();

        // Corrupt the first shard mid-document, as a crash during a
        // non-atomic write would have.
        let victim = ckpt.shard_path(&(0..2));
        let text = std::fs::read_to_string(&victim).unwrap();
        std::fs::write(&victim, &text[..text.len() / 2]).unwrap();

        let recovered = ckpt.run(&engine, factory, 0..4, &plan, config).unwrap();
        assert_eq!(
            crate::report::lot_json(&recovered),
            crate::report::lot_json(&whole)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn budgeted_drive_threads_the_global_budget_and_resumes_identically() {
        use crate::plan::grid_time;
        let plan = plan();
        let config = AnalyzerConfig::ideal().with_periods(50);
        let engine = LotEngine::serial();
        // Budget: screening for all 6 devices plus roughly one re-test —
        // later shards must see what earlier shards left over.
        let c0 = grid_time(50, plan.grid());
        let c1 = grid_time(200, plan.grid());
        let budget = Seconds(6.0 * c0.value() + 1.5 * c1.value());
        let schedule = EscalationSchedule::from_periods(config, &[50, 200]).with_budget(budget);

        let dir_a = temp_dir("budget-a");
        std::fs::remove_dir_all(&dir_a).ok();
        let whole = LotCheckpoint::new(&dir_a, 2)
            .run_escalated(&engine, factory, 0..6, &plan, &schedule)
            .unwrap();
        // The merged lot answers for the global budget, not the sum of
        // the per-shard remainders.
        assert_eq!(whole.budget(), Some(budget));
        assert!(whole.spent().value() <= budget.value() + c1.value());

        // Kill after one fresh shard, then resume: the remaining budget
        // is recomputed from the persisted observed ledgers, so the
        // resumed drive reproduces the uninterrupted document exactly.
        let dir_b = temp_dir("budget-b");
        std::fs::remove_dir_all(&dir_b).ok();
        let ckpt = LotCheckpoint::new(&dir_b, 2);
        let halted = ckpt
            .clone()
            .with_shard_limit(1)
            .run_escalated(&engine, factory, 0..6, &plan, &schedule)
            .unwrap();
        assert!(!halted.shard().unwrap().complete);
        let resumed = ckpt
            .run_escalated(&engine, factory, 0..6, &plan, &schedule)
            .unwrap();
        assert_eq!(
            crate::report::lot_json(&resumed),
            crate::report::lot_json(&whole)
        );
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    #[test]
    fn drive_merges_out_of_order_shards_like_an_in_order_feed() {
        let plan = plan();
        let schedule = EscalationSchedule::from_periods(AnalyzerConfig::ideal(), &[50, 100]);
        let spans: Vec<_> = ShardSpans::new(0..5, 2).collect();
        assert_eq!(spans, [0..2, 2..4, 4..5]);
        let run = |span| LotEngine::serial().run_escalated_range(factory, span, &plan, &schedule);
        let shards: Vec<_> = spans.iter().map(|s| run(s.clone()).unwrap()).collect();
        let feed = |order: &[usize]| {
            let mut drive = ShardDrive::new(0..5, 2, &plan, &schedule);
            let mut merged = Vec::new();
            for &i in order {
                drive.record(spans[i].clone(), shards[i].clone(), i);
                while let Some((span, i)) = drive.merge_ready() {
                    assert_eq!(span, spans[i]);
                    merged.push(span);
                }
            }
            assert!(drive.is_complete());
            (merged, lot_json(&drive.finish()))
        };
        let in_order = feed(&[0, 1, 2]);
        assert_eq!(in_order.0, spans);
        assert_eq!(feed(&[2, 0, 1]), in_order);
        assert_eq!(feed(&[1, 2, 0]), in_order);
        assert_eq!(in_order.1, lot_json(&run(0..5).unwrap()));
    }

    #[test]
    fn drive_dispatches_budgeted_shards_one_at_a_time_under_the_remainder() {
        let plan = plan();
        let schedule = EscalationSchedule::from_periods(AnalyzerConfig::ideal(), &[50]);
        let mut free: ShardDrive = ShardDrive::new(0..5, 2, &plan, &schedule);
        let all: Vec<_> = free.dispatch().collect();
        assert_eq!(all, [0..2, 2..4, 4..5]);
        assert_eq!(free.dispatch().next(), None);

        // A budget smaller than the first shard's spend leaves 0, not less.
        let global = Seconds(1e-3);
        let budgeted = schedule.clone().with_budget(global);
        let mut drive: ShardDrive = ShardDrive::new(0..5, 2, &plan, &budgeted);
        assert_eq!(drive.dispatch().collect::<Vec<_>>(), all[..1]);
        assert_eq!(drive.dispatch().next(), None, "one shard outstanding");
        assert_eq!(drive.shard_schedule().budget(), Some(global));
        let first = LotEngine::serial().run_range(factory, 0..2, &plan, schedule.stages()[0]);
        drive.record(0..2, first.unwrap(), ());
        assert_eq!(drive.merge_ready(), Some((0..2, ())));
        assert_eq!(drive.dispatch().collect::<Vec<_>>(), all[1..2]);
        assert_eq!(drive.shard_schedule().budget(), Some(Seconds(0.0)));

        // A lot of 2⁶⁴ − 1 one-device shards is counted, not built.
        let huge: ShardDrive = ShardDrive::new(0..u64::MAX, 1, &plan, &schedule);
        assert_eq!(huge.shard_count(), u64::MAX);
        assert_eq!(huge.next_span(), Some(0..1));
    }

    #[test]
    fn halt_before_any_shard_returns_the_empty_incomplete_prefix() {
        let dir = temp_dir("limit0");
        std::fs::remove_dir_all(&dir).ok();
        let plan = plan();
        let halted = LotCheckpoint::new(&dir, 2)
            .with_shard_limit(0)
            .run(
                &LotEngine::serial(),
                factory,
                0..4,
                &plan,
                AnalyzerConfig::ideal().with_periods(50),
            )
            .unwrap();
        assert!(halted.is_empty());
        let span = halted.shard().unwrap();
        assert_eq!(
            (span.seed_start, span.seed_end, span.complete),
            (0, 4, false)
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
