//! Crash-resilient sweep harness: fault-injected trials, per-trial
//! isolation with bounded retry, and a JSONL journal enabling
//! checkpoint/resume (`repro --resume`).
//!
//! Every modexp trial runs here: [`run_modexp_sweep`] is the one trial
//! path behind [`run_modexp_iterations`](crate::run_modexp_iterations),
//! the `repro serve` jobs and every modexp figure. It runs each per-key
//! trial behind [`microsampler_par::map_isolated`]: a trial that
//! deadlocks, exhausts its cycle budget, fails its functional check or
//! panics is *quarantined*. With [`SweepOptions::isolate`] the sweep
//! completes with partial results and the quarantine list flows into the
//! `repro --json` run report instead of sinking hours of work; without it
//! (the default) the sweep panics naming the first quarantined trial.
//!
//! # Journal format
//!
//! The journal is append-only JSONL: one `microsampler-trial-v1` object
//! per line, written as each trial finishes (so a crash loses at most the
//! in-flight trials). Completed lines carry the trial's iteration
//! snapshots with per-unit hashes and feature orders — everything the
//! analyzer needs — but not raw matrices; quarantined lines carry the
//! failure class, message, and attempt count. On resume, completed trials
//! are restored from the journal and only the missing ones re-run;
//! quarantined trials are retried.

use microsampler_core::{SeqConfig, SequentialAnalyzer, StopTrace, STOP_SCHEMA};
use microsampler_kernels::inputs::random_keys;
use microsampler_kernels::modexp::{self, ModexpKernel, ModexpVariant};
use microsampler_obs::{diag, diag_warn, json, Value};
use microsampler_par::{CancelToken, FailureClass, IsolationPolicy, RunControl, TrialOutcome};
use microsampler_sim::{
    CoreConfig, FaultConfig, IterationTrace, PipelineStats, TraceConfig, UnitTrace,
};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Schema tag on every trial journal line.
pub const TRIAL_SCHEMA: &str = "microsampler-trial-v1";

/// Schema tag on progress-heartbeat lines interleaved into the journal.
pub const HEARTBEAT_SCHEMA: &str = "microsampler-heartbeat-v1";

/// Schema tag on the journal-header line (first line of a fresh journal)
/// carrying the sweep config hash that `--resume` validates.
pub const HEADER_SCHEMA: &str = "microsampler-journal-header-v1";

/// Harness-wide sweep configuration, installed by the `repro` CLI via
/// [`set_options`] and consulted by
/// [`run_modexp_iterations`](crate::run_modexp_iterations), which runs
/// under the default when none are installed.
#[derive(Clone, Debug, Default)]
pub struct SweepOptions {
    /// Fault-injection rates applied to every trial (re-seeded per trial
    /// and per attempt via [`FaultConfig::for_trial`]).
    pub faults: Option<FaultConfig>,
    /// Trial index whose core is wedged at [`microsampler_sim::WEDGE_CYCLE`]
    /// (a deliberate deadlock, for exercising quarantine end-to-end).
    pub wedge_trial: Option<usize>,
    /// Pool the surviving trials when some are quarantined. When false,
    /// [`run_modexp_sweep`] panics naming the first quarantined trial, so
    /// a plain run still fails loudly on a functional mismatch.
    pub isolate: bool,
    /// Retry/timeout policy for isolated trials.
    pub policy: IsolationPolicy,
    /// Append-only JSONL trial journal.
    pub journal: Option<PathBuf>,
    /// Restore completed trials from the journal before running.
    pub resume: bool,
    /// Per-trial cycle budget override (default: the kernel's own
    /// [`modexp::cycle_budget`]).
    pub max_cycles: Option<u64>,
    /// Cooperative cancellation: once the token latches, trials that have
    /// not started are skipped (not journaled) and counted under
    /// [`SweepOutcome::cancelled`].
    pub cancel: Option<CancelToken>,
    /// Per-sweep wall-clock deadline (`repro serve` job timeouts): trials
    /// not started before it are skipped like cancelled ones.
    pub deadline: Option<std::time::Instant>,
    /// Sequential (anytime) auditing: judge a confidence sequence at
    /// doubling key-count look points and stop the sweep as soon as it
    /// closes, recording the skipped tail as
    /// [`TrialEventKind::EarlyStopped`] and the stopping trace in
    /// [`SweepOutcome::stop`] (and the journal).
    pub sequential: Option<SeqConfig>,
}

static OPTIONS: Mutex<Option<SweepOptions>> = Mutex::new(None);

/// Installs (or clears) the process-wide sweep options.
pub fn set_options(opts: Option<SweepOptions>) {
    *OPTIONS.lock().unwrap_or_else(|p| p.into_inner()) = opts;
}

/// The currently installed sweep options, if any.
pub fn options() -> Option<SweepOptions> {
    OPTIONS.lock().unwrap_or_else(|p| p.into_inner()).clone()
}

/// What happened to one trial, for the run report's `trials` section.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrialEventKind {
    /// Ran to completion this invocation.
    Completed,
    /// Restored from the resume journal without re-running.
    Restored,
    /// Exhausted its attempt budget and was dropped from the pool.
    Quarantined,
    /// Skipped because the sweep was cancelled or hit its deadline; will
    /// re-run on the next resume (never journaled as finished).
    Cancelled,
    /// Skipped because the confidence sequence closed before this trial
    /// was needed. Unlike cancellation this is a *finished* sweep: the
    /// verdict is final and the trial only runs again if a later sweep
    /// asks for more budget.
    EarlyStopped,
}

/// One entry in the per-run trial event registry.
#[derive(Clone, Debug)]
pub struct TrialEvent {
    /// Stable trial id (also the journal key).
    pub id: String,
    /// Outcome kind.
    pub kind: TrialEventKind,
    /// Failure class for quarantined trials.
    pub class: Option<FailureClass>,
    /// Failure message for quarantined trials.
    pub message: Option<String>,
    /// Attempts made (0 for restored trials).
    pub attempts: u32,
}

static EVENTS: Mutex<Vec<TrialEvent>> = Mutex::new(Vec::new());

/// Clears the trial event registry (call per experiment).
pub fn reset_events() {
    EVENTS.lock().unwrap_or_else(|p| p.into_inner()).clear();
}

/// Appends one event to the registry.
pub fn record_event(event: TrialEvent) {
    EVENTS.lock().unwrap_or_else(|p| p.into_inner()).push(event);
}

/// Snapshot of the registry.
pub fn events() -> Vec<TrialEvent> {
    EVENTS.lock().unwrap_or_else(|p| p.into_inner()).clone()
}

/// Renders the registry for the run report: completed/restored counts
/// plus the full quarantine list (stable schema: `completed`, `restored`,
/// `quarantined` with `id`/`class`/`message`/`attempts` each).
pub fn events_to_json() -> Value {
    let events = events();
    let count = |k: TrialEventKind| events.iter().filter(|e| e.kind == k).count();
    let quarantined: Vec<Value> = events
        .iter()
        .filter(|e| e.kind == TrialEventKind::Quarantined)
        .map(|e| {
            Value::object()
                .field("id", e.id.as_str())
                .field("class", e.class.map_or("unknown", FailureClass::name))
                .field("message", e.message.as_deref().unwrap_or(""))
                .field("attempts", e.attempts)
                .build()
        })
        .collect();
    Value::object()
        .field("completed", count(TrialEventKind::Completed))
        .field("restored", count(TrialEventKind::Restored))
        .field("cancelled", count(TrialEventKind::Cancelled))
        .field("early_stopped", count(TrialEventKind::EarlyStopped))
        .field("quarantined", Value::Array(quarantined))
        .build()
}

/// A trial dropped from the pooled results after exhausting its retries.
#[derive(Clone, Debug)]
pub struct QuarantinedTrial {
    /// Stable trial id.
    pub id: String,
    /// How the final attempt failed.
    pub class: FailureClass,
    /// Error or panic message from the final attempt.
    pub message: String,
    /// Attempts made.
    pub attempts: u32,
}

/// Result of [`run_modexp_sweep`].
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// Pooled iterations from completed and restored trials, in key order.
    pub iterations: Vec<IterationTrace>,
    /// Trials run to completion this invocation.
    pub completed: usize,
    /// Trials restored from the resume journal.
    pub restored: usize,
    /// Trials skipped by cancellation or the sweep deadline (they remain
    /// unjournaled, so a resume re-runs exactly these).
    pub cancelled: usize,
    /// Trials skipped because the confidence sequence closed first
    /// (sequential sweeps only).
    pub early_stopped: usize,
    /// Trials dropped after exhausting their retries.
    pub quarantined: Vec<QuarantinedTrial>,
    /// Stopping trace for sequential sweeps (`None` for fixed-budget).
    pub stop: Option<StopTrace>,
}

fn unit_to_json(u: &UnitTrace) -> Value {
    Value::object()
        .field("hash", u.hash)
        .field("hash_timeless", u.hash_timeless)
        .field("cycle_rows", u.cycle_rows)
        .field("order", Value::array(u.order.iter().copied()))
        .build()
}

fn iteration_to_json(it: &IterationTrace) -> Value {
    Value::object()
        .field("label", it.label)
        .field("start_cycle", it.start_cycle)
        .field("end_cycle", it.end_cycle)
        .field("dropped_cycles", it.dropped_cycles)
        .field("pipeline", it.pipeline.to_json())
        .field("units", Value::Array(it.units.iter().map(unit_to_json).collect()))
        .build()
}

/// One completed journal line (compact JSON, no trailing newline).
fn completed_line(id: &str, iterations: &[IterationTrace]) -> String {
    Value::object()
        .field("schema", TRIAL_SCHEMA)
        .field("id", id)
        .field("status", "completed")
        .field("iterations", Value::Array(iterations.iter().map(iteration_to_json).collect()))
        .build()
        .render_compact()
}

/// One quarantined journal line (compact JSON, no trailing newline).
fn quarantined_line(q: &QuarantinedTrial) -> String {
    Value::object()
        .field("schema", TRIAL_SCHEMA)
        .field("id", q.id.as_str())
        .field("status", "quarantined")
        .field("class", q.class.name())
        .field("message", q.message.as_str())
        .field("attempts", q.attempts)
        .build()
        .render_compact()
}

/// Content hash of the sweep knobs that change what a journaled trial's
/// *data means*: the [`FaultConfig`] rates and fault seed, which perturb
/// the recorded traces themselves. Trial ids already pin the variant,
/// core config, key width, key seed, and key index, and knobs that only
/// decide whether a trial finishes (`wedge_trial`, `max_cycles`) leave
/// completed records bit-identical — so raising `--keys`, changing
/// thread counts, or lifting a wedge keeps the hash stable, while
/// resuming a journal recorded under different fault noise is rejected
/// rather than silently pooling incomparable trials.
pub fn options_config_hash(opts: &SweepOptions) -> String {
    let f = opts.faults.unwrap_or_default();
    let canonical = Value::object()
        .field("fault_seed", f.seed)
        .field("squash_per_64k", f.squash_per_64k as u64)
        .field("evict_per_64k", f.evict_per_64k as u64)
        .field("mshr_stall_per_64k", f.mshr_stall_per_64k as u64)
        .field("drop_row_per_64k", f.drop_row_per_64k as u64)
        .field("bitflip_per_64k", f.bitflip_per_64k as u64)
        .build()
        .render_compact();
    let k0 = 0x4d69_6372_6f53_616d; // "MicroSam", matching the serve job key
    let k1 = 0x6a6f_7572_6e61_6c21; // "journal!"
    format!("{:016x}", microsampler_stats::siphash24(k0, k1, canonical.as_bytes()))
}

/// One journal-header line (compact JSON, no trailing newline). Written
/// as the first line of a fresh journal; resumes compare its config hash
/// against the resuming sweep's.
fn header_line(config_hash: &str) -> String {
    Value::object()
        .field("schema", HEADER_SCHEMA)
        .field("config_hash", config_hash)
        .build()
        .render_compact()
}

fn need_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key).and_then(Value::as_u64).ok_or_else(|| format!("missing or non-integer `{key}`"))
}

fn unit_from_json(v: &Value) -> Result<UnitTrace, String> {
    let order: Vec<u64> = v
        .get("order")
        .and_then(Value::as_array)
        .ok_or("unit lacks `order`")?
        .iter()
        .map(|x| x.as_u64().ok_or_else(|| "non-integer feature in `order`".to_string()))
        .collect::<Result<_, _>>()?;
    Ok(UnitTrace {
        hash: need_u64(v, "hash")?,
        hash_timeless: need_u64(v, "hash_timeless")?,
        // The tracer maintains `features == set(order)`; rebuild instead
        // of journaling both.
        features: order.iter().copied().collect(),
        order,
        rows: None,
        cycle_rows: need_u64(v, "cycle_rows")?,
    })
}

fn iteration_from_json(v: &Value) -> Result<IterationTrace, String> {
    let units = v
        .get("units")
        .and_then(Value::as_array)
        .ok_or("iteration lacks `units`")?
        .iter()
        .map(unit_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(IterationTrace {
        label: need_u64(v, "label")?,
        start_cycle: need_u64(v, "start_cycle")?,
        end_cycle: need_u64(v, "end_cycle")?,
        dropped_cycles: need_u64(v, "dropped_cycles")?,
        // Journals written before the pipeline counters existed lack this
        // field; restore them with zeroed counters.
        pipeline: v.get("pipeline").map(PipelineStats::from_json).unwrap_or_default(),
        units,
    })
}

/// Parsed journal contents: completed trials by id. Quarantined lines are
/// validated but not restored — a resumed run retries them.
#[derive(Clone, Debug, Default)]
pub struct JournalState {
    /// Completed trials: id → iteration snapshots.
    pub completed: BTreeMap<String, Vec<IterationTrace>>,
    /// Config hash from the journal header, when the journal has one
    /// (journals written before the header existed restore as `None`
    /// and resume without validation).
    pub config_hash: Option<String>,
}

/// Loads a trial journal written by a previous sweep.
///
/// A crash (or `kill -9`) mid-append can tear the final line: the file
/// then ends with a partial record and no trailing newline. Such a torn
/// tail is skipped with a diagnostic — the trial it belonged to simply
/// re-runs on resume — while malformed *complete* lines (newline-
/// terminated) remain hard errors, since they indicate corruption rather
/// than an interrupted append.
///
/// # Errors
///
/// Returns a message naming the offending line for unreadable files,
/// invalid JSON, schema mismatches, and malformed trial records.
pub fn load_journal(path: &Path) -> Result<JournalState, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read journal {}: {e}", path.display()))?;
    let mut state = JournalState::default();
    let last_idx = text.lines().count().saturating_sub(1);
    let torn_tail_possible = !text.is_empty() && !text.ends_with('\n');
    for (idx, line) in text.lines().enumerate() {
        let context = |msg: String| format!("journal {} line {}: {msg}", path.display(), idx + 1);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match parse_journal_line(line, &mut state) {
            Ok(()) => {}
            Err(msg) if torn_tail_possible && idx == last_idx => {
                diag_warn!(
                    "journal {} line {}: skipping torn trailing record \
                     (crash mid-append?): {msg}",
                    path.display(),
                    idx + 1
                );
            }
            Err(msg) => return Err(context(msg)),
        }
    }
    Ok(state)
}

/// Parses and applies one journal line to `state`.
fn parse_journal_line(line: &str, state: &mut JournalState) -> Result<(), String> {
    let v = json::parse(line).map_err(|e| e.to_string())?;
    let schema = v.get("schema").and_then(Value::as_str);
    if schema == Some(HEARTBEAT_SCHEMA) {
        // Progress heartbeats interleave with trial lines; they carry
        // no restorable state.
        return Ok(());
    }
    if schema == Some(HEADER_SCHEMA) {
        let hash =
            v.get("config_hash").and_then(Value::as_str).ok_or("header missing `config_hash`")?;
        state.config_hash = Some(hash.to_owned());
        return Ok(());
    }
    if schema == Some(STOP_SCHEMA) {
        // Stopping traces are statistical receipts for report consumers;
        // they carry no restorable trial state.
        return Ok(());
    }
    if schema != Some(TRIAL_SCHEMA) {
        return Err(format!("expected schema {TRIAL_SCHEMA}"));
    }
    let id = v.get("id").and_then(Value::as_str).ok_or("missing `id`")?.to_owned();
    match v.get("status").and_then(Value::as_str) {
        Some("completed") => {
            let iterations = v
                .get("iterations")
                .and_then(Value::as_array)
                .ok_or("missing `iterations`")?
                .iter()
                .map(iteration_from_json)
                .collect::<Result<Vec<_>, _>>()?;
            // Later lines win: a re-run trial supersedes its older
            // journal entry.
            state.completed.insert(id, iterations);
        }
        Some("quarantined") => {}
        _ => return Err("missing or unknown `status`".to_string()),
    }
    Ok(())
}

/// Repairs a journal's final line before the file is reopened for append.
///
/// A crash, `kill -9`, or per-job timeout mid-append leaves the file
/// without a trailing newline. Appending straight after that would glue
/// the next record onto the remnant, corrupting *both* lines; instead, a
/// complete-but-unterminated final record gets its newline back, and a
/// truncated one is dropped with a warning — the same torn-tail rule
/// [`load_journal`] applies on read, here made durable so the append
/// path stays line-oriented.
fn compact_torn_tail(path: &Path) {
    let Ok(text) = std::fs::read_to_string(path) else { return };
    if text.is_empty() || text.ends_with('\n') {
        return;
    }
    let tail_start = text.rfind('\n').map_or(0, |i| i + 1);
    let tail = text[tail_start..].trim();
    let mut scratch = JournalState::default();
    if !tail.is_empty() && parse_journal_line(tail, &mut scratch).is_ok() {
        // The record is whole; only its newline was lost.
        let done = File::options().append(true).open(path).and_then(|mut f| f.write_all(b"\n"));
        if let Err(e) = done {
            diag_warn!("journal {}: cannot terminate final record: {e}", path.display());
        }
        return;
    }
    diag_warn!(
        "journal {}: dropping torn trailing record ({} bytes) left by an interrupted append",
        path.display(),
        text.len() - tail_start
    );
    let done = File::options().write(true).open(path).and_then(|f| f.set_len(tail_start as u64));
    if let Err(e) = done {
        diag_warn!("journal {}: cannot drop torn record: {e}", path.display());
    }
}

/// Key-count look points for a sequential sweep over `n_keys` keys:
/// doubling boundaries from `max(n_keys/8, 1)`, always ending at
/// `n_keys`. An early-stop run and a full-budget run therefore share
/// the same look prefix, which is what makes the verdict-identity
/// guarantee checkable.
pub fn look_points(n_keys: usize) -> Vec<usize> {
    let mut points = Vec::new();
    if n_keys == 0 {
        return points;
    }
    let mut bound = (n_keys / 8).max(1);
    while bound < n_keys {
        points.push(bound);
        bound *= 2;
    }
    points.push(n_keys);
    points
}

/// Deterministic pooled-budget allocator for the sequential audit
/// (`repro audit`): hands each still-undecided item doubling trial
/// chunks out of a shared pool, so budget freed by early-stopped items
/// reflows to the borderline ones.
///
/// Grants depend only on `(n_items, per_item)` and the sequence of
/// [`retire`](AdaptiveAllocator::retire) calls between rounds — never on
/// timing or thread count — so re-runs reproduce the same allocation. A
/// run in which nothing retires grants every item exactly `per_item`
/// trials (chunks of `per_item/8, per_item/8, per_item/4, per_item/2`),
/// making the fixed-budget audit a special case of the adaptive one.
pub struct AdaptiveAllocator {
    chunk0: usize,
    pool: usize,
    spent: Vec<usize>,
    alive: Vec<bool>,
}

impl AdaptiveAllocator {
    /// A pool of `n_items * per_item` trials over `n_items` items.
    pub fn new(n_items: usize, per_item: usize) -> AdaptiveAllocator {
        AdaptiveAllocator {
            chunk0: (per_item / 8).max(1),
            pool: n_items * per_item,
            spent: vec![0; n_items],
            alive: vec![true; n_items],
        }
    }

    /// Grants for one round, in item order: an item's next chunk doubles
    /// its spend (`max(spent, chunk0)`), clamped to its fair share of
    /// the remaining pool. Retired items (and an exhausted pool) grant 0.
    pub fn round(&mut self) -> Vec<usize> {
        let alive_count = self.alive.iter().filter(|a| **a).count();
        let mut grants = vec![0; self.spent.len()];
        if alive_count == 0 {
            return grants;
        }
        let share = self.pool / alive_count;
        for (i, spent) in self.spent.iter_mut().enumerate() {
            if !self.alive[i] {
                continue;
            }
            let grant = (*spent).max(self.chunk0).min(share).min(self.pool);
            self.pool -= grant;
            *spent += grant;
            grants[i] = grant;
        }
        grants
    }

    /// Stops granting to item `i`; its unused share stays in the pool.
    pub fn retire(&mut self, i: usize) {
        self.alive[i] = false;
    }

    /// Trials granted to item `i` so far.
    pub fn spent(&self, i: usize) -> usize {
        self.spent[i]
    }

    /// Trials left in the shared pool.
    pub fn remaining(&self) -> usize {
        self.pool
    }
}

fn append_line(journal: &Mutex<File>, line: &str) {
    let mut file = journal.lock().unwrap_or_else(|p| p.into_inner());
    if let Err(e) = writeln!(file, "{line}") {
        diag_warn!("trial journal write failed: {e}");
    }
}

/// One heartbeat journal line (compact JSON, no trailing newline).
fn heartbeat_line(
    task: &str,
    completed: usize,
    total: usize,
    elapsed_sec: f64,
    trials_per_sec: f64,
    eta_sec: f64,
) -> String {
    Value::object()
        .field("schema", HEARTBEAT_SCHEMA)
        .field("task", task)
        .field("completed", completed)
        .field("total", total)
        .field("elapsed_sec", elapsed_sec)
        .field("trials_per_sec", trials_per_sec)
        .field("eta_sec", if eta_sec.is_finite() { Value::from(eta_sec) } else { Value::Null })
        .build()
        .render_compact()
}

/// Live sweep progress: counts finished trials — completed **and**
/// quarantined — and emits a throttled heartbeat (stderr line via
/// [`diag::progress_rate`], JSONL event via the trial journal).
///
/// The final tick always emits, so consumers can assert the heartbeat
/// reaches `total/total` even when every emission in between was
/// throttled away. The displayed count is clamped to `total`: a trial
/// whose `Ok` result is reclassified as a post-hoc timeout and then
/// retried ticks once per classified attempt, and the clamp keeps the
/// heartbeat monotone and bounded despite that double count.
struct Heartbeat<'a> {
    task: &'a str,
    total: usize,
    journal: Option<&'a Mutex<File>>,
    done: AtomicUsize,
    start: Instant,
    last_emit: Mutex<Option<Instant>>,
}

impl<'a> Heartbeat<'a> {
    fn new(task: &'a str, total: usize, journal: Option<&'a Mutex<File>>) -> Heartbeat<'a> {
        Heartbeat {
            task,
            total,
            journal,
            done: AtomicUsize::new(0),
            start: Instant::now(),
            last_emit: Mutex::new(None),
        }
    }

    /// Marks one trial finished and emits a heartbeat if one is due
    /// (first tick, ~1 s since the last emission, or sweep complete).
    fn tick(&self) {
        let finished = (self.done.fetch_add(1, Ordering::Relaxed) + 1).min(self.total);
        let due = {
            let mut last = self.last_emit.lock().unwrap_or_else(|p| p.into_inner());
            let due = finished >= self.total
                || last.is_none_or(|t| t.elapsed() >= Duration::from_secs(1));
            if due {
                *last = Some(Instant::now());
            }
            due
        };
        if !due {
            return;
        }
        let elapsed = self.start.elapsed().as_secs_f64();
        let rate = if elapsed > 0.0 { finished as f64 / elapsed } else { 0.0 };
        let eta = if rate > 0.0 { (self.total - finished) as f64 / rate } else { f64::INFINITY };
        diag::progress_rate(self.task, finished, self.total, rate, eta);
        if let Some(j) = self.journal {
            append_line(j, &heartbeat_line(self.task, finished, self.total, elapsed, rate, eta));
        }
    }

    /// A guard that ticks on unwind when `armed` — the only way a
    /// panicking final attempt can still count toward progress, since the
    /// panic skips every statement after it in the trial closure.
    fn panic_guard(&'a self, armed: bool) -> PanicTick<'a> {
        PanicTick { heartbeat: self, armed }
    }
}

struct PanicTick<'a> {
    heartbeat: &'a Heartbeat<'a>,
    armed: bool,
}

impl Drop for PanicTick<'_> {
    fn drop(&mut self) {
        if self.armed && std::thread::panicking() {
            self.heartbeat.tick();
        }
    }
}

/// Runs a modexp variant over `n_keys` random keys with per-trial fault
/// isolation, journaling, and resume, per `opts`.
///
/// Trial ids are stable across invocations (variant, core config,
/// key-bytes, seed, key index), so a journal written at one thread count
/// resumes correctly at any other. Pooled iterations are concatenated in
/// key order regardless of which trials were restored, so the analysis is
/// bit-identical to an uninterrupted sweep over the same surviving
/// trials.
///
/// # Panics
///
/// Without [`SweepOptions::isolate`], panics naming the first quarantined
/// trial once every trial has finished and been journaled.
pub fn run_modexp_sweep(
    variant: ModexpVariant,
    config: &CoreConfig,
    n_keys: usize,
    key_bytes: usize,
    seed: u64,
    opts: &SweepOptions,
) -> SweepOutcome {
    let kernel = ModexpKernel::new(variant, key_bytes);
    let keys = random_keys(n_keys, key_bytes, seed);
    let fb = if config.fast_bypass { "+fb" } else { "" };
    let trial_id = |i: usize| -> String {
        format!("{}/{}{fb}/kb{key_bytes}/s{seed}/key{i:04}", variant.name(), config.name)
    };

    let sweep_id = format!("{}/{}{fb}/kb{key_bytes}/s{seed}", variant.name(), config.name);

    let mut restored: BTreeMap<usize, Vec<IterationTrace>> = BTreeMap::new();
    if opts.resume {
        if let Some(path) = &opts.journal {
            match load_journal(path) {
                Ok(state) => {
                    let want = options_config_hash(opts);
                    match &state.config_hash {
                        Some(have) if *have != want => diag_warn!(
                            "resume ignored: journal {} was recorded under fault config \
                             hash {have}, this sweep is {want} (FaultConfig rates or \
                             seed changed)",
                            path.display()
                        ),
                        _ => {
                            for i in 0..n_keys {
                                if let Some(iters) = state.completed.get(&trial_id(i)) {
                                    restored.insert(i, iters.clone());
                                }
                            }
                        }
                    }
                }
                Err(e) => diag_warn!("resume ignored: {e}"),
            }
        }
    }

    let journal: Option<Mutex<File>> = opts.journal.as_ref().and_then(|path| {
        compact_torn_tail(path);
        match File::options().create(true).append(true).open(path) {
            Ok(f) => {
                let empty = f.metadata().map(|m| m.len() == 0).unwrap_or(false);
                let file = Mutex::new(f);
                if empty {
                    append_line(&file, &header_line(&options_config_hash(opts)));
                }
                Some(file)
            }
            Err(e) => {
                diag_warn!("cannot open trial journal {}: {e}", path.display());
                None
            }
        }
    });

    let all_work: Vec<usize> = (0..n_keys).filter(|i| !restored.contains_key(i)).collect();
    let heartbeat = Heartbeat::new(variant.name(), all_work.len(), journal.as_ref());
    let max_attempts = opts.policy.max_attempts.max(1);
    let ctl = RunControl { cancel: opts.cancel.clone(), deadline: opts.deadline };
    let run_trial = |_: usize, &i: &usize, attempt: u32| -> Result<Vec<IterationTrace>, String> {
        // A trial finishes by completing OR by exhausting its retries;
        // both must tick the heartbeat, or a quarantined trial leaves the
        // progress count short of total forever. Failures tick only on
        // their *final* attempt so retries don't inflate the count; a
        // panic is caught above this closure, so its tick rides on a
        // drop guard armed iff this panic would be terminal.
        let panic_is_final = !opts.policy.retry_panics || attempt + 1 >= max_attempts;
        let _panic_tick = heartbeat.panic_guard(panic_is_final);
        let error_is_final = !opts.policy.retry_sim_errors || attempt + 1 >= max_attempts;
        let fail = |message: String| {
            if error_is_final {
                heartbeat.tick();
            }
            message
        };
        let wedge = opts.wedge_trial == Some(i);
        // Re-seed per trial *and* per attempt: a retry explores a fresh
        // fault schedule, while `--threads N` determinism holds because
        // the schedule depends only on (seed, trial, attempt).
        let faults = match opts.faults {
            Some(fc) => {
                let mut fc = fc.for_trial(i as u64, attempt);
                fc.wedge = fc.wedge || wedge;
                Some(fc)
            }
            None if wedge => Some(FaultConfig { wedge: true, ..FaultConfig::default() }),
            None => None,
        };
        let mut cfg = config.clone();
        cfg.faults = faults;
        let trace = TraceConfig { faults, ..TraceConfig::default() };
        let key = &keys[i];
        let mut machine = kernel
            .machine(cfg, key, trace)
            .map_err(|e| fail(format!("{}: {e}", variant.name())))?;
        let budget = opts.max_cycles.unwrap_or_else(|| modexp::cycle_budget(key_bytes));
        let run = machine.run(budget).map_err(|e| fail(format!("{}: {e}", variant.name())))?;
        let want = kernel.reference(key);
        if run.exit_code != want {
            return Err(fail(format!(
                "{} functional mismatch: got {}, want {want}",
                variant.name(),
                run.exit_code
            )));
        }
        if let Some(j) = &journal {
            append_line(j, &completed_line(&trial_id(i), &run.iterations));
        }
        heartbeat.tick();
        Ok(run.iterations)
    };

    let mut fresh: BTreeMap<usize, TrialOutcome<Vec<IterationTrace>>> = BTreeMap::new();
    let mut stop: Option<StopTrace> = None;
    // First key index NOT covered by this sweep: n_keys unless the
    // confidence sequence closed early.
    let mut stop_bound = n_keys;
    match opts.sequential {
        None => {
            let outcomes = microsampler_par::map_isolated(&opts.policy, &ctl, &all_work, run_trial);
            fresh.extend(all_work.iter().copied().zip(outcomes));
        }
        Some(cfg) => {
            let mut analyzer = SequentialAnalyzer::new(cfg);
            let mut next_key = 0usize;
            let mut interrupted = false;
            for bound in look_points(n_keys) {
                let segment: Vec<usize> =
                    (next_key..bound).filter(|i| !restored.contains_key(i)).collect();
                let outcomes =
                    microsampler_par::map_isolated(&opts.policy, &ctl, &segment, run_trial);
                fresh.extend(segment.iter().copied().zip(outcomes));
                // Pool this segment in key order — restored and fresh
                // interleave exactly as an uninterrupted sweep would, so
                // the look sequence (and therefore the stopping point) is
                // identical on resume. Quarantined trials are excluded,
                // as in the batch analysis over surviving trials.
                for i in next_key..bound {
                    if let Some(iters) = restored.get(&i) {
                        analyzer.ingest_all(iters);
                    } else {
                        match fresh.get(&i) {
                            Some(TrialOutcome::Completed(iters)) => analyzer.ingest_all(iters),
                            Some(TrialOutcome::Failed(f)) if f.class == FailureClass::Cancelled => {
                                interrupted = true;
                            }
                            _ => {}
                        }
                    }
                }
                next_key = bound;
                if interrupted {
                    // A cancelled/deadline-skipped trial leaves this look
                    // point with partial data; judging it would make the
                    // stopping point depend on where the interruption
                    // landed. Leave the sequence open for the resume.
                    break;
                }
                if analyzer.look(bound as u64).is_decided() {
                    break;
                }
            }
            if next_key >= n_keys && !interrupted {
                analyzer.resolve(n_keys as u64);
            }
            if analyzer.verdict().is_decided() {
                stop_bound = next_key;
            } else if next_key < n_keys {
                // Interrupted mid-sequence: drain the remaining trials
                // through the (latched) cancel gate so they are accounted
                // as cancelled exactly like the fixed-budget path, and
                // the resume re-runs precisely that set.
                let rest: Vec<usize> =
                    (next_key..n_keys).filter(|i| !restored.contains_key(i)).collect();
                let outcomes = microsampler_par::map_isolated(&opts.policy, &ctl, &rest, run_trial);
                fresh.extend(rest.iter().copied().zip(outcomes));
            }
            let trace = analyzer.trace().clone();
            if !trace.looks.is_empty() {
                if let Some(j) = &journal {
                    append_line(j, &trace.to_json(&sweep_id).render_compact());
                }
            }
            stop = Some(trace);
        }
    }

    let mut out = SweepOutcome {
        iterations: Vec::new(),
        completed: 0,
        restored: 0,
        cancelled: 0,
        early_stopped: 0,
        quarantined: Vec::new(),
        stop,
    };
    for i in 0..n_keys {
        if i >= stop_bound {
            // Past the stopping point. Restored trials beyond it keep
            // their journal records (a later full-budget resume can still
            // use them) but are not pooled, so an early-stopped resume is
            // bit-identical to an early-stopped fresh run.
            out.early_stopped += 1;
            record_event(TrialEvent {
                id: trial_id(i),
                kind: TrialEventKind::EarlyStopped,
                class: None,
                message: None,
                attempts: 0,
            });
            continue;
        }
        if let Some(iters) = restored.remove(&i) {
            out.restored += 1;
            record_event(TrialEvent {
                id: trial_id(i),
                kind: TrialEventKind::Restored,
                class: None,
                message: None,
                attempts: 0,
            });
            out.iterations.extend(iters);
            continue;
        }
        match fresh.remove(&i) {
            Some(TrialOutcome::Completed(iters)) => {
                out.completed += 1;
                record_event(TrialEvent {
                    id: trial_id(i),
                    kind: TrialEventKind::Completed,
                    class: None,
                    message: None,
                    attempts: 0,
                });
                out.iterations.extend(iters);
            }
            // Cancelled/deadline-skipped trials are neither journaled nor
            // quarantined: a resume re-runs exactly this set.
            Some(TrialOutcome::Failed(f)) if f.class == FailureClass::Cancelled => {
                out.cancelled += 1;
                record_event(TrialEvent {
                    id: trial_id(i),
                    kind: TrialEventKind::Cancelled,
                    class: Some(f.class),
                    message: Some(f.message),
                    attempts: f.attempts,
                });
            }
            Some(TrialOutcome::Failed(f)) => {
                let q = QuarantinedTrial {
                    id: trial_id(i),
                    class: f.class,
                    message: f.message,
                    attempts: f.attempts,
                };
                diag_warn!(
                    "quarantined {} after {} attempts ({}): {}",
                    q.id,
                    q.attempts,
                    q.class,
                    q.message
                );
                if let Some(j) = &journal {
                    append_line(j, &quarantined_line(&q));
                }
                record_event(TrialEvent {
                    id: q.id.clone(),
                    kind: TrialEventKind::Quarantined,
                    class: Some(q.class),
                    message: Some(q.message.clone()),
                    attempts: q.attempts,
                });
                out.quarantined.push(q);
            }
            None => unreachable!("every non-restored index has an outcome"),
        }
    }
    if let (false, Some(q)) = (opts.isolate, out.quarantined.first()) {
        panic!(
            "trial {} quarantined after {} attempts ({}): {}",
            q.id, q.attempts, q.class, q.message
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_iteration(label: u64) -> IterationTrace {
        let unit = |hash: u64| UnitTrace {
            hash,
            hash_timeless: hash ^ 0xff,
            features: [hash, 3].into_iter().collect(),
            order: vec![hash, 3],
            rows: None,
            cycle_rows: 7,
        };
        IterationTrace {
            label,
            start_cycle: 100,
            end_cycle: 140,
            dropped_cycles: 2,
            pipeline: PipelineStats {
                cycles: 40,
                committed: 66,
                rob_full_cycles: 5,
                ..PipelineStats::default()
            },
            units: vec![unit(0xdead_beef_dead_beef), unit(42)],
        }
    }

    #[test]
    fn journal_lines_round_trip() {
        let iters = vec![sample_iteration(0), sample_iteration(1)];
        let path = std::env::temp_dir()
            .join(format!("microsampler-journal-roundtrip-{}.jsonl", std::process::id()));
        let text = format!(
            "{}\n{}\n",
            completed_line("v/mega/kb4/s42/key0000", &iters),
            quarantined_line(&QuarantinedTrial {
                id: "v/mega/kb4/s42/key0001".into(),
                class: FailureClass::SimError,
                message: "deadlock".into(),
                attempts: 2,
            })
        );
        std::fs::write(&path, text).unwrap();
        let state = load_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(state.completed.len(), 1, "quarantined lines are not restored");
        let restored = &state.completed["v/mega/kb4/s42/key0000"];
        assert_eq!(restored, &iters, "features/order/hashes survive the round trip");
        assert_eq!(restored[0].units[0].features, iters[0].units[0].features);
        assert_eq!(restored[0].pipeline, iters[0].pipeline, "profiling counters round-trip");
    }

    #[test]
    fn journal_without_pipeline_field_restores_zeroed_counters() {
        // A journal line from before the pipeline counters: same schema,
        // no `pipeline` object.
        let mut it = sample_iteration(0);
        it.pipeline = PipelineStats::default();
        let line = completed_line("v/mega/kb4/s42/key0000", &[it.clone()]);
        let stripped = {
            let v = json::parse(&line).unwrap();
            // Re-render without the pipeline field via a hand-built line.
            let iters = v.get("iterations").unwrap().as_array().unwrap();
            let legacy: Vec<Value> = iters
                .iter()
                .map(|i| {
                    Value::object()
                        .field("label", i.get("label").unwrap().clone())
                        .field("start_cycle", i.get("start_cycle").unwrap().clone())
                        .field("end_cycle", i.get("end_cycle").unwrap().clone())
                        .field("dropped_cycles", i.get("dropped_cycles").unwrap().clone())
                        .field("units", i.get("units").unwrap().clone())
                        .build()
                })
                .collect();
            Value::object()
                .field("schema", TRIAL_SCHEMA)
                .field("id", "v/mega/kb4/s42/key0000")
                .field("status", "completed")
                .field("iterations", Value::Array(legacy))
                .build()
                .render_compact()
        };
        let path = std::env::temp_dir()
            .join(format!("microsampler-journal-legacy-{}.jsonl", std::process::id()));
        std::fs::write(&path, format!("{stripped}\n")).unwrap();
        let state = load_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let restored = &state.completed["v/mega/kb4/s42/key0000"];
        assert_eq!(restored[0].pipeline, PipelineStats::default());
        assert_eq!(restored[0], it);
    }

    #[test]
    fn load_journal_skips_heartbeat_lines() {
        let iters = vec![sample_iteration(0)];
        let text = format!(
            "{}\n{}\n",
            heartbeat_line("sweep", 3, 8, 1.5, 2.0, 2.5),
            completed_line("v/mega/kb4/s42/key0000", &iters),
        );
        let path = std::env::temp_dir()
            .join(format!("microsampler-journal-heartbeat-{}.jsonl", std::process::id()));
        std::fs::write(&path, text).unwrap();
        let state = load_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(state.completed.len(), 1, "heartbeat lines restore nothing");
        // The heartbeat line itself is well-formed JSON with the documented fields.
        let hb = json::parse(&heartbeat_line("sweep", 8, 8, 4.0, 2.0, 0.0)).unwrap();
        assert_eq!(hb.get("schema").unwrap().as_str(), Some(HEARTBEAT_SCHEMA));
        assert_eq!(hb.get("completed").unwrap().as_u64(), Some(8));
        assert_eq!(hb.get("total").unwrap().as_u64(), Some(8));
        assert!(hb.get("trials_per_sec").unwrap().as_f64().is_some());
        assert!(hb.get("elapsed_sec").unwrap().as_f64().is_some());
    }

    #[test]
    fn heartbeat_panic_guard_ticks_only_terminal_panics() {
        let hb = Heartbeat::new("t", 4, None);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = hb.panic_guard(true);
            panic!("trial exploded");
        }));
        assert!(unwound.is_err());
        assert_eq!(hb.done.load(Ordering::Relaxed), 1, "terminal panic ticks");
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = hb.panic_guard(false);
            panic!("will be retried");
        }));
        assert!(unwound.is_err());
        assert_eq!(hb.done.load(Ordering::Relaxed), 1, "retried panic must not tick");
        // A normal (non-unwinding) drop never ticks, armed or not.
        drop(hb.panic_guard(true));
        assert_eq!(hb.done.load(Ordering::Relaxed), 1);
        hb.tick();
        assert_eq!(hb.done.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn load_journal_skips_torn_trailing_line() {
        // Simulate a kill -9 mid-append: a complete record followed by a
        // truncated one with no trailing newline.
        let iters = vec![sample_iteration(0)];
        let full = completed_line("v/mega/kb4/s42/key0000", &iters);
        let second = completed_line("v/mega/kb4/s42/key0001", &iters);
        let torn = &second[..second.len() / 2];
        let path = std::env::temp_dir()
            .join(format!("microsampler-journal-torn-{}.jsonl", std::process::id()));
        std::fs::write(&path, format!("{full}\n{torn}")).unwrap();
        let state = load_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(state.completed.len(), 1, "the torn record is skipped, not fatal");
        assert!(state.completed.contains_key("v/mega/kb4/s42/key0000"));
    }

    #[test]
    fn load_journal_accepts_valid_final_line_without_newline() {
        // A writer that never got to flush the trailing newline but wrote
        // the full record: still restorable.
        let iters = vec![sample_iteration(0)];
        let line = completed_line("v/mega/kb4/s42/key0000", &iters);
        let path = std::env::temp_dir()
            .join(format!("microsampler-journal-nonewline-{}.jsonl", std::process::id()));
        std::fs::write(&path, &line).unwrap();
        let state = load_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(state.completed.len(), 1);
    }

    #[test]
    fn load_journal_still_rejects_torn_line_mid_file() {
        // A truncated record *followed by more lines* is corruption, not
        // an interrupted append — the newline after it proves the writer
        // kept going.
        let iters = vec![sample_iteration(0)];
        let full = completed_line("v/mega/kb4/s42/key0000", &iters);
        let torn = &full[..full.len() / 2];
        let path = std::env::temp_dir()
            .join(format!("microsampler-journal-midtorn-{}.jsonl", std::process::id()));
        std::fs::write(&path, format!("{torn}\n{full}\n")).unwrap();
        let got = load_journal(&path);
        std::fs::remove_file(&path).ok();
        let err = got.expect_err("mid-file truncation is a hard error");
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn cancelled_sweep_skips_unstarted_trials_without_journaling_them() {
        let token = CancelToken::new();
        token.cancel();
        let path = std::env::temp_dir()
            .join(format!("microsampler-journal-cancelled-{}.jsonl", std::process::id()));
        std::fs::write(&path, "").unwrap();
        reset_events();
        let opts = SweepOptions {
            cancel: Some(token),
            journal: Some(path.clone()),
            isolate: true,
            ..SweepOptions::default()
        };
        let out = run_modexp_sweep(
            ModexpVariant::V2Safe,
            &microsampler_sim::CoreConfig::mega_boom(),
            3,
            1,
            42,
            &opts,
        );
        let journal_text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        reset_events();
        assert_eq!(out.cancelled, 3, "pre-cancelled sweep skips every trial");
        assert_eq!(out.completed, 0);
        assert!(out.quarantined.is_empty(), "cancellation is not quarantine");
        assert!(
            !journal_text.contains(TRIAL_SCHEMA),
            "cancelled trials leave no journal records: {journal_text}"
        );
    }

    #[test]
    fn load_journal_rejects_malformed_lines() {
        let dir = std::env::temp_dir();
        let cases = [
            ("not json at all", "bad-json"),
            ("{\"schema\":\"wrong-schema\",\"id\":\"x\",\"status\":\"completed\"}", "bad-schema"),
            ("{\"schema\":\"microsampler-trial-v1\",\"status\":\"completed\"}", "no-id"),
            ("{\"schema\":\"microsampler-trial-v1\",\"id\":\"x\"}", "no-status"),
            (
                "{\"schema\":\"microsampler-trial-v1\",\"id\":\"x\",\"status\":\"completed\"}",
                "no-iterations",
            ),
        ];
        for (line, tag) in cases {
            let path = dir.join(format!("microsampler-journal-{tag}-{}.jsonl", std::process::id()));
            std::fs::write(&path, format!("{line}\n")).unwrap();
            let got = load_journal(&path);
            std::fs::remove_file(&path).ok();
            assert!(got.is_err(), "{tag} must be rejected");
            assert!(got.unwrap_err().contains("line 1"), "{tag} error names the line");
        }
        assert!(load_journal(Path::new("/nonexistent/journal.jsonl")).is_err());
    }

    #[test]
    fn allocator_with_no_stops_grants_exactly_the_fixed_budget() {
        let mut alloc = AdaptiveAllocator::new(27, 96);
        let mut per_round = Vec::new();
        loop {
            let grants = alloc.round();
            if grants.iter().all(|&g| g == 0) {
                break;
            }
            assert!(grants.iter().all(|&g| g == grants[0]), "symmetric items, equal grants");
            per_round.push(grants[0]);
        }
        assert_eq!(per_round, vec![12, 12, 24, 48], "doubling chunks sum to per_item");
        assert_eq!(alloc.remaining(), 0, "the pool is exactly exhausted");
        for i in 0..27 {
            assert_eq!(alloc.spent(i), 96);
        }
    }

    #[test]
    fn allocator_reflows_freed_budget_to_survivors() {
        let mut alloc = AdaptiveAllocator::new(4, 96);
        assert_eq!(alloc.round(), vec![12, 12, 12, 12]);
        // Three items decide after the first chunk; their budget reflows.
        alloc.retire(0);
        alloc.retire(1);
        alloc.retire(2);
        let mut total = alloc.spent(3);
        loop {
            let grants = alloc.round();
            assert_eq!(grants[0] + grants[1] + grants[2], 0, "retired items grant nothing");
            if grants[3] == 0 {
                break;
            }
            total += grants[3];
        }
        assert_eq!(total, alloc.spent(3));
        assert!(
            alloc.spent(3) > 96,
            "the survivor runs past its own budget on reflowed trials: {}",
            alloc.spent(3)
        );
        assert!(alloc.spent(3) + 3 * 12 <= 4 * 96, "reflow never exceeds the pool");
    }

    #[test]
    fn look_points_double_and_always_cover_the_budget() {
        assert_eq!(look_points(96), vec![12, 24, 48, 96]);
        assert_eq!(look_points(16), vec![2, 4, 8, 16]);
        assert_eq!(look_points(27), vec![3, 6, 12, 24, 27]);
        assert_eq!(look_points(8), vec![1, 2, 4, 8]);
        assert_eq!(look_points(1), vec![1]);
        assert_eq!(look_points(0), Vec::<usize>::new());
    }

    #[test]
    fn config_hash_tracks_fault_noise_only() {
        let base = SweepOptions::default();
        let noisy = SweepOptions {
            faults: Some(FaultConfig { evict_per_64k: 64, ..FaultConfig::default() }),
            ..SweepOptions::default()
        };
        assert_ne!(options_config_hash(&base), options_config_hash(&noisy));
        let reseeded = SweepOptions {
            faults: Some(FaultConfig { seed: 7, ..FaultConfig::default() }),
            ..SweepOptions::default()
        };
        assert_ne!(options_config_hash(&base), options_config_hash(&reseeded));
        // Knobs that only decide *whether* a trial finishes leave
        // completed records bit-identical, so they don't taint resumes.
        let budget =
            SweepOptions { max_cycles: Some(500), wedge_trial: Some(1), ..SweepOptions::default() };
        assert_eq!(options_config_hash(&base), options_config_hash(&budget));
        // An explicit all-zero FaultConfig injects nothing, like None.
        let explicit =
            SweepOptions { faults: Some(FaultConfig::default()), ..SweepOptions::default() };
        assert_eq!(options_config_hash(&base), options_config_hash(&explicit));
    }

    #[test]
    fn journal_header_round_trips_config_hash() {
        let path = std::env::temp_dir()
            .join(format!("microsampler-journal-header-{}.jsonl", std::process::id()));
        std::fs::write(&path, format!("{}\n", header_line("deadbeef01234567"))).unwrap();
        let state = load_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(state.config_hash.as_deref(), Some("deadbeef01234567"));
        assert!(state.completed.is_empty());
    }

    #[test]
    fn load_journal_skips_stop_trace_lines() {
        let iters = vec![sample_iteration(0)];
        let text = format!(
            "{}\n{}\n",
            StopTrace::default().to_json("v/mega/kb4/s42").render_compact(),
            completed_line("v/mega/kb4/s42/key0000", &iters),
        );
        let path = std::env::temp_dir()
            .join(format!("microsampler-journal-stopline-{}.jsonl", std::process::id()));
        std::fs::write(&path, text).unwrap();
        let state = load_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(state.completed.len(), 1, "stop traces restore nothing");
    }

    #[test]
    fn compact_torn_tail_repairs_unterminated_and_torn_tails() {
        let iters = vec![sample_iteration(0)];
        let full = completed_line("v/mega/kb4/s42/key0000", &iters);
        let path = std::env::temp_dir()
            .join(format!("microsampler-journal-compact-{}.jsonl", std::process::id()));

        // A complete final record missing only its newline gets it back —
        // appending straight after it would glue two records together.
        std::fs::write(&path, &full).unwrap();
        compact_torn_tail(&path);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), format!("{full}\n"));

        // A truncated final record is dropped back to the last newline.
        std::fs::write(&path, format!("{full}\n{}", &full[..full.len() / 2])).unwrap();
        compact_torn_tail(&path);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), format!("{full}\n"));

        // A torn sole line empties the file.
        std::fs::write(&path, &full[..10]).unwrap();
        compact_torn_tail(&path);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "");

        // Terminated files are untouched.
        std::fs::write(&path, format!("{full}\n")).unwrap();
        compact_torn_tail(&path);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), format!("{full}\n"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_mismatched_fault_config() {
        let path = std::env::temp_dir()
            .join(format!("microsampler-journal-hashgate-{}.jsonl", std::process::id()));
        std::fs::write(&path, "").unwrap();
        let noisy = SweepOptions {
            isolate: true,
            journal: Some(path.clone()),
            faults: Some(FaultConfig { evict_per_64k: 16, ..FaultConfig::default() }),
            ..SweepOptions::default()
        };
        reset_events();
        let first = run_modexp_sweep(
            ModexpVariant::V2Safe,
            &microsampler_sim::CoreConfig::mega_boom(),
            2,
            1,
            42,
            &noisy,
        );
        assert_eq!(first.completed, 2);

        // Resuming under different fault noise must not pool the old trials.
        reset_events();
        let clean_resume = SweepOptions { faults: None, resume: true, ..noisy.clone() };
        let second = run_modexp_sweep(
            ModexpVariant::V2Safe,
            &microsampler_sim::CoreConfig::mega_boom(),
            2,
            1,
            42,
            &clean_resume,
        );
        assert_eq!(second.restored, 0, "mismatched fault config must not restore");
        assert_eq!(second.completed, 2, "trials re-run under the new config");

        // Resuming under the same fault config restores everything.
        reset_events();
        let same_resume = SweepOptions { resume: true, ..noisy.clone() };
        let third = run_modexp_sweep(
            ModexpVariant::V2Safe,
            &microsampler_sim::CoreConfig::mega_boom(),
            2,
            1,
            42,
            &same_resume,
        );
        std::fs::remove_file(&path).ok();
        reset_events();
        assert_eq!(third.restored, 2);
        assert_eq!(third.completed, 0);
    }

    #[test]
    fn sequential_sweep_stops_early_and_resume_reproduces_the_stopping_point() {
        use microsampler_core::SeqVerdict;
        let path = std::env::temp_dir()
            .join(format!("microsampler-journal-seq-{}.jsonl", std::process::id()));
        std::fs::write(&path, "").unwrap();
        let opts = SweepOptions {
            isolate: true,
            journal: Some(path.clone()),
            sequential: Some(SeqConfig::default()),
            ..SweepOptions::default()
        };
        reset_events();
        let out = run_modexp_sweep(
            ModexpVariant::Naive,
            &microsampler_sim::CoreConfig::mega_boom(),
            16,
            1,
            42,
            &opts,
        );
        let stop = out.stop.clone().expect("sequential sweeps carry a stop trace");
        assert_eq!(stop.verdict, SeqVerdict::Leaky, "naive modexp is the known leak");
        assert!(!stop.fallback, "an obvious leak closes the sequence, not the fallback");
        assert!(out.early_stopped > 0, "the full key budget must not be needed");
        assert_eq!(out.completed + out.early_stopped, 16);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains(STOP_SCHEMA), "the journal records the stopping trace");

        // A resume replays the journal and reproduces the same stopping
        // point — same looks, same verdict, same pooled iterations —
        // without running a single trial.
        reset_events();
        let resumed = run_modexp_sweep(
            ModexpVariant::Naive,
            &microsampler_sim::CoreConfig::mega_boom(),
            16,
            1,
            42,
            &SweepOptions { resume: true, ..opts.clone() },
        );
        std::fs::remove_file(&path).ok();
        reset_events();
        assert_eq!(resumed.completed, 0, "nothing re-runs on resume");
        assert_eq!(resumed.restored, out.completed);
        assert_eq!(resumed.early_stopped, out.early_stopped);
        let rstop = resumed.stop.expect("resumed sweep still carries a stop trace");
        assert_eq!(rstop.verdict, stop.verdict);
        assert_eq!(rstop.looks, stop.looks, "stopping points are bit-identical on resume");
        assert_eq!(resumed.iterations, out.iterations);
    }

    #[test]
    fn sequential_clean_sweep_matches_batch_verdict() {
        let opts = SweepOptions {
            isolate: true,
            sequential: Some(SeqConfig::default()),
            ..SweepOptions::default()
        };
        reset_events();
        let out = run_modexp_sweep(
            ModexpVariant::V2Safe,
            &microsampler_sim::CoreConfig::mega_boom(),
            8,
            1,
            42,
            &opts,
        );
        reset_events();
        let stop = out.stop.expect("sequential sweeps carry a stop trace");
        assert_eq!(stop.verdict, microsampler_core::SeqVerdict::Clean);
        // Whatever trials the sequence used, the verdict agrees with the
        // batch rule over the pooled iterations.
        let report = microsampler_core::analyze(&out.iterations);
        assert!(!report.is_leaky());
    }

    #[test]
    fn events_registry_renders_stable_json() {
        reset_events();
        record_event(TrialEvent {
            id: "a".into(),
            kind: TrialEventKind::Completed,
            class: None,
            message: None,
            attempts: 0,
        });
        record_event(TrialEvent {
            id: "b".into(),
            kind: TrialEventKind::Quarantined,
            class: Some(FailureClass::Panicked),
            message: Some("boom".into()),
            attempts: 1,
        });
        let v = events_to_json();
        reset_events();
        assert_eq!(v.get("completed").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("restored").unwrap().as_u64(), Some(0));
        let q = v.get("quarantined").unwrap().as_array().unwrap();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].get("id").unwrap().as_str(), Some("b"));
        assert_eq!(q[0].get("class").unwrap().as_str(), Some("panicked"));
        assert_eq!(q[0].get("attempts").unwrap().as_u64(), Some(1));
    }
}
