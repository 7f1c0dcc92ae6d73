//! Layer-by-layer benchmark of the MicroSampler workspace.
//!
//! Every workload runs a fixed amount of work (a *pass*) over inputs made
//! from the workload seed, repeatedly, for a set number of seconds.
//!
//! * Untraced runs (`trace = false`) report the end-to-end metrics
//!   ([`END_TO_END`]) as medians over the passes.
//! * Traced runs (`trace = true`) alternate untraced passes with traced
//!   ones. A traced pass drives the same work through each layer's public
//!   functions one call at a time, times every call from outside, and
//!   must reproduce the untraced pass's output digest. Side probes
//!   measure what the blocking path cannot split (snapshot folding, the
//!   untraced core tick, log emission). The per-layer metrics
//!   ([`PER_LAYER`]) come from these.
//!
//! Every pass is checked: the workload's correctness gate, the output
//! digest (equal across passes, equal to the committed tiny-size
//! reference in `reference.json`, and equal to earlier runs of the same
//! seed), and the deterministic counters.

pub mod measure;

mod audit;
mod casestudy;
#[cfg(unix)]
mod serve;
mod textlog;

use measure::{median, timed, Ledger, Tally};
use microsampler_obs::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// End-to-end metrics, reported by untraced runs: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("trials_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics and counters, reported by traced runs: `(name,
/// unit)`. A layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("isa.assemble_us", "us"),
    ("sim.machine_new_us", "us"),
    ("sim.run_ns_per_cycle", "ns"),
    ("sim.tick_untraced_ns_per_cycle", "ns"),
    ("sim.tick_self_ns_per_cycle", "ns"),
    ("trace.fold_ns_per_row", "ns"),
    ("trace.log_emit_ns_per_cycle", "ns"),
    ("trace.parse_ns_per_byte", "ns"),
    ("core.analyze_ns_per_iteration", "ns"),
    ("core.seq_ingest_ns_per_iteration", "ns"),
    ("core.seq_look_us", "us"),
    ("stats.association_us_per_table", "us"),
    ("par.utilization", "ratio"),
    ("serve.ack_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.exec_ms", "ms"),
    ("serve.replay_ms", "ms"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("latency_tail_pct", "%"),
    ("latency_samples", "count"),
    ("fail_ratio", "ratio"),
    ("obs.trace_overhead_s", "s"),
    ("unattributed_s", "s"),
    ("isa.self_s", "s"),
    ("kernels.self_s", "s"),
    ("sim.self_s", "s"),
    ("trace.self_s", "s"),
    ("stats.self_s", "s"),
    ("core.self_s", "s"),
    ("par.self_s", "s"),
    ("bench.self_s", "s"),
    ("serve.self_s", "s"),
    ("sim.cycles", "count"),
    ("sim.committed", "count"),
    ("sim.ipc", "ratio"),
    ("trace.rows_sampled", "count"),
    ("trace.hash_bytes", "count"),
    ("trace.log_bytes", "count"),
    ("stats.categories_per_table", "count"),
    ("core.seq_looks", "count"),
    ("audit.rounds", "count"),
    ("audit.trials_simulated", "count"),
    ("audit.budget_spent_ratio", "ratio"),
    ("serve.wal_bytes", "count"),
    ("serve.journal_bytes", "count"),
    ("serve.replay_ratio", "ratio"),
];

/// The per-layer metrics that count work rather than time it: they must
/// repeat exactly for a given workload and seed.
pub const COUNTERS: &[&str] = &[
    "sim.cycles",
    "sim.committed",
    "sim.ipc",
    "trace.rows_sampled",
    "trace.hash_bytes",
    "trace.log_bytes",
    "stats.categories_per_table",
    "core.seq_looks",
    "audit.rounds",
    "audit.trials_simulated",
    "audit.budget_spent_ratio",
    "serve.wal_bytes",
    "serve.journal_bytes",
    "serve.replay_ratio",
];

/// Layers whose self time a traced pass accounts (`<layer>.self_s`).
pub const LAYERS: &[&str] =
    &["isa", "kernels", "sim", "trace", "stats", "core", "par", "bench", "serve"];

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// ME-V1-CV, ME-V1-MV and ME-V2-Safe through
    /// `run_modexp_iterations` → `analyze` on MegaBoom.
    Casestudy,
    /// The sequential 27-primitive `run_audit`, over several seeds.
    Audit,
    /// ME-V1-CV through the text-log path: log → parse → analyze.
    Textlog,
    /// A closed-loop client against a `serve` daemon.
    Serve,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] =
        [Workload::Casestudy, Workload::Audit, Workload::Textlog, Workload::Serve];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Casestudy => "casestudy",
            Workload::Audit => "audit",
            Workload::Textlog => "textlog",
            Workload::Serve => "serve",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work one pass does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The benchmark size.
    Full,
    /// A few milliseconds of work, for self-tests and the reference
    /// digest.
    Tiny,
}

/// One benchmark run's settings.
#[derive(Clone, Debug)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// How long to keep repeating passes.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Pass size.
    pub size: Size,
    /// Scratch directory for daemon state and the cross-run digest
    /// record.
    pub work_dir: PathBuf,
    /// Executable to start as the `serve` daemon (this benchmark's own
    /// binary, which has a daemon mode).
    pub daemon_exe: Option<PathBuf>,
}

/// What one run found.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted (passes, trials, jobs, checks).
    pub attempted: u64,
    /// Failed operations and the reasons.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// The output digest of the workload's pass.
    pub digest: String,
    /// Extra facts for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.attempted > 0
    }

    fn fail(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }

    /// The metrics of one mode, in table order.
    pub fn reported(&self, trace: bool) -> Vec<(&'static str, &'static str, f64)> {
        let table = if trace { PER_LAYER } else { END_TO_END };
        table
            .iter()
            .map(|&(name, unit)| (name, unit, self.metrics.get(name).copied().unwrap_or(0.0)))
            .collect()
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics
    /// of the run's mode with their units.
    pub fn to_json(&self, trace: bool) -> Value {
        let metrics = self
            .reported(trace)
            .into_iter()
            .map(|(name, unit, value)| {
                (
                    name.to_string(),
                    Value::object().field("value", value).field("unit", unit).build(),
                )
            })
            .collect();
        Value::object()
            .field("correct", self.correct())
            .field("attempted", self.attempted.max(1))
            .field("failed", self.failures.len() as u64)
            .field("metrics", Value::Object(metrics))
            .build()
    }
}

/// One pass's results.
#[derive(Clone, Debug, Default)]
pub(crate) struct Pass {
    /// Wall seconds of the pass's work.
    pub wall_s: f64,
    /// Output digest.
    pub digest: String,
    /// Kernel trials simulated.
    pub trials: u64,
    /// Operations the pass attempted (trials, jobs, gates).
    pub ops: u64,
    /// Failed gates.
    pub failures: Vec<String>,
    /// Deterministic counters; must repeat exactly.
    pub counters: BTreeMap<&'static str, f64>,
    /// Set-up time spent inside the pass (the daemon start for `serve`).
    pub setup_s: Option<f64>,
    /// Peak resident memory during the pass, in MiB: of this process,
    /// or of the worker process when the work runs in another one.
    pub rss_mb: Option<f64>,
}

/// Per-layer measurements collected by traced passes and probes.
#[derive(Debug, Default)]
pub(crate) struct Trace {
    /// Self-time ledger of the traced pass in progress.
    pub ledger: Ledger,
    /// Per-call tallies keyed by metric name.
    pub tallies: BTreeMap<&'static str, Tally>,
    /// Directly measured per-layer values (latencies, ratios).
    pub values: BTreeMap<&'static str, f64>,
    /// Probe failures.
    pub failures: Vec<String>,
    /// Probe operations attempted.
    pub ops: u64,
}

impl Trace {
    /// Adds `secs` spent on `units` of work to the tally `name`.
    pub fn tally(&mut self, name: &'static str, secs: f64, units: f64) {
        self.tallies.entry(name).or_default().add(secs, units);
    }
}

/// A workload: set-up, an untraced pass, a traced pass that must
/// reproduce it, and the probes that split what the traced pass cannot.
pub(crate) trait Workbench: Sized {
    fn setup(opts: &Options) -> Result<Self, String>;
    fn pass(&mut self) -> Result<Pass, String>;
    fn traced_pass(&mut self, trace: &mut Trace) -> Result<Pass, String>;
    fn probes(&mut self, trace: &mut Trace) -> Result<(), String>;
    /// Correctness checks too costly to repeat every pass; run once,
    /// untimed. Returns the failures.
    fn check(&mut self) -> Vec<String> {
        Vec::new()
    }
    /// Per-layer values derived after the probes (splits of blocking
    /// path spans by probe rates).
    fn finish(&self, _trace: &mut Trace, _ledger: &mut Ledger) {}
}

/// Every run makes at least this many untraced passes.
const MIN_PASSES: usize = 3;

/// Input seed of the committed reference digests.
pub const REFERENCE_SEED: u64 = 0;

const REFERENCE: &str = include_str!("../reference.json");

/// Runs one workload and returns what it measured and found.
pub fn run(opts: &Options) -> Outcome {
    reset_process_state(Some(default_threads()));
    let mut out = match opts.workload {
        Workload::Casestudy => drive::<casestudy::Bench>(opts),
        Workload::Audit => drive::<audit::Bench>(opts),
        Workload::Textlog => drive::<textlog::Bench>(opts),
        #[cfg(unix)]
        Workload::Serve => drive::<serve::Bench>(opts),
        #[cfg(not(unix))]
        Workload::Serve => {
            let mut out = Outcome::default();
            out.fail("the serve workload needs unix-domain sockets");
            out
        }
    };
    reset_process_state(None);
    if opts.size == Size::Full && out.correct() {
        check_reference(opts, &mut out);
        check_earlier_runs(opts, &mut out);
    }
    let attempted = out.attempted.max(1) as f64;
    out.metrics.insert("fail_ratio".into(), out.failures.len() as f64 / attempted);
    out
}

/// Clears every piece of process-global state the workspace keeps, so
/// workloads run in one process cannot leak into each other: sweep
/// options, the obs metrics registry and span layer, and the `par`
/// thread override (`Some(n)` installs `n`, `None` clears it).
pub fn reset_process_state(threads: Option<usize>) {
    microsampler_bench::sweep::set_options(None);
    microsampler_bench::sweep::reset_events();
    microsampler_obs::metrics::reset();
    microsampler_obs::metrics::set_enabled(threads.is_some());
    microsampler_obs::span::set_enabled(false);
    microsampler_par::set_threads(threads);
}

/// Sums of the registry cells the simulator exports per run, then
/// clears the registry for the next pass.
pub(crate) fn take_sim_counters() -> BTreeMap<&'static str, f64> {
    let snapshot = microsampler_obs::metrics::snapshot();
    microsampler_obs::metrics::reset();
    let sum = |name: &str| snapshot.iter().find(|(n, _)| n == name).map_or(0.0, |(_, a)| a.sum);
    let mut counters = BTreeMap::new();
    for name in ["sim.cycles", "sim.committed", "trace.rows_sampled", "trace.hash_bytes"] {
        counters.insert(name, sum(name));
    }
    counters
}

fn drive<B: Workbench>(opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    out.attempted += 1;
    let (made, secs) = timed(|| B::setup(opts));
    let mut bench = match made {
        Ok(b) => b,
        Err(e) => {
            out.fail(format!("set-up: {e}"));
            return out;
        }
    };
    setups.push(secs);
    // The set-up's warm-up runs are not pass work.
    microsampler_obs::metrics::reset();

    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut passes: Vec<Pass> = Vec::new();
    let mut traced: Vec<(Pass, Ledger)> = Vec::new();
    let mut trace = Trace::default();
    loop {
        out.attempted += 1;
        reset_peak_rss();
        match bench.pass() {
            Ok(mut p) => {
                if p.rss_mb.is_none() {
                    p.rss_mb = measure::peak_rss_mb("self");
                }
                passes.push(p);
            }
            Err(e) => {
                out.fail(format!("untraced pass: {e}"));
                return out;
            }
        }
        if opts.trace {
            trace.ledger = Ledger::default();
            out.attempted += 1;
            match bench.traced_pass(&mut trace) {
                Ok(p) => traced.push((p, std::mem::take(&mut trace.ledger))),
                Err(e) => {
                    out.fail(format!("traced pass: {e}"));
                    return out;
                }
            }
        }
        if !opts.trace {
            // Set up again between passes (and drop the copy), so the
            // set-up time is sampled across the run as the passes are.
            let (made, secs) = timed(|| B::setup(opts).map(drop));
            out.attempted += 1;
            match made {
                Ok(()) => setups.push(secs),
                Err(e) => out.fail(format!("set-up: {e}")),
            }
            microsampler_obs::metrics::reset();
        }
        let enough = if opts.trace { 1 } else { MIN_PASSES };
        if Instant::now() >= deadline && passes.len() >= enough {
            break;
        }
    }

    // Every pass must agree with the first one on outputs and counters.
    let first = passes[0].clone();
    out.digest = first.digest.clone();
    for (i, p) in passes.iter().chain(traced.iter().map(|(p, _)| p)).enumerate() {
        out.attempted += p.ops;
        for f in &p.failures {
            out.fail(format!("pass {i}: {f}"));
        }
        if p.digest != first.digest {
            out.fail(format!("pass {i}: digest {} differs from {}", p.digest, first.digest));
        }
        if p.counters != first.counters {
            out.fail(format!(
                "pass {i}: counters {:?} differ from {:?}",
                p.counters, first.counters
            ));
        }
    }
    for (name, value) in &first.counters {
        out.metrics.insert(name.to_string(), *value);
    }
    out.attempted += 1;
    for f in bench.check() {
        out.fail(f);
    }
    let cycles = first.counters.get("sim.cycles").copied().unwrap_or(0.0);
    let committed = first.counters.get("sim.committed").copied().unwrap_or(0.0);
    out.metrics.insert("sim.ipc".into(), if cycles > 0.0 { committed / cycles } else { 0.0 });

    if !opts.trace {
        let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
        let mut setup_s = median(&setups);
        let inner: Vec<f64> = passes.iter().filter_map(|p| p.setup_s).collect();
        if !inner.is_empty() {
            setup_s += median(&inner);
        }
        let wall_s = median(&walls);
        let mcycles: Vec<f64> = passes
            .iter()
            .map(|p| p.counters.get("sim.cycles").copied().unwrap_or(0.0) / p.wall_s / 1e6)
            .collect();
        let trials: Vec<f64> = passes.iter().map(|p| p.trials as f64 / p.wall_s).collect();
        let rss: Vec<f64> = passes.iter().filter_map(|p| p.rss_mb).collect();
        for (name, value) in [
            ("setup_s", setup_s),
            ("wall_s", wall_s),
            ("sim_mcycles_per_s", median(&mcycles)),
            ("trials_per_s", median(&trials)),
            ("peak_rss_mb", rss.iter().copied().fold(f64::INFINITY, f64::min)),
        ] {
            out.metrics.insert(name.to_string(), value);
        }
        out.notes.push(format!(
            "{} untraced passes; {} cycles and {} trials per pass; pass walls {:?}",
            passes.len(),
            cycles,
            first.trials,
            walls
        ));
        return out;
    }

    out.attempted += 1;
    if let Err(e) = bench.probes(&mut trace) {
        out.fail(format!("probes: {e}"));
    }
    out.attempted += trace.ops;
    for f in std::mem::take(&mut trace.failures) {
        out.fail(f);
    }
    let untraced: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let mut traced_walls = Vec::new();
    let mut unattributed = Vec::new();
    let mut total = Ledger::default();
    for (p, mut ledger) in traced {
        bench.finish(&mut trace, &mut ledger);
        traced_walls.push(p.wall_s);
        unattributed.push(p.wall_s - ledger.attributed());
        for (layer, secs) in &ledger.self_s {
            *total.self_s.entry(layer).or_insert(0.0) += secs;
        }
        total.par_busy_s += ledger.par_busy_s;
        total.par_capacity_s += ledger.par_capacity_s;
    }
    let n = traced_walls.len() as f64;
    for layer in LAYERS {
        let secs = total.self_s.get(layer).copied().unwrap_or(0.0) / n;
        out.metrics.insert(format!("{layer}.self_s"), secs);
    }
    out.metrics.insert("par.utilization".into(), total.utilization());
    out.metrics.insert("unattributed_s".into(), median(&unattributed));
    out.metrics.insert("obs.trace_overhead_s".into(), median(&traced_walls) - median(&untraced));
    for (name, tally) in &trace.tallies {
        let scale = if name.contains("_us") {
            1e6
        } else if name.contains("_ms") {
            1e3
        } else {
            1e9
        };
        out.metrics.insert(name.to_string(), tally.per_unit(scale));
    }
    for (name, value) in &trace.values {
        out.metrics.insert(name.to_string(), *value);
    }
    out.notes.push(format!(
        "{} untraced and {} traced passes; traced wall {:.4} s, untraced {:.4} s",
        passes.len(),
        traced_walls.len(),
        median(&traced_walls),
        median(&untraced)
    ));
    out
}

/// Seed number `i` derived from a workload seed: one per kernel, audit
/// campaign or serve spec.
pub(crate) fn derive_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i as u64 * 1_000_003)
}

/// Resets this process's peak resident set size (`VmHWM`) to its
/// current size, so the next reading is the peak of what follows. A
/// no-op where `/proc/self/clear_refs` is unavailable.
fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").ok();
}

/// Runs the workload at the tiny size on the reference seed and compares
/// its digest with the committed one in `reference.json`.
fn check_reference(opts: &Options, out: &mut Outcome) {
    let tiny = Options {
        size: Size::Tiny,
        seed: REFERENCE_SEED,
        seconds: 0.0,
        trace: false,
        ..opts.clone()
    };
    let got = run(&tiny);
    out.attempted += 1;
    if !got.correct() {
        out.fail(format!("reference run failed: {:?}", got.failures));
        return;
    }
    match reference_digest(opts.workload) {
        Some(want) if want == got.digest => {}
        Some(want) => out.fail(format!(
            "reference digest {} differs from the committed {want} (behaviour changed)",
            got.digest
        )),
        None => out.fail(format!("reference.json has no digest for {}", opts.workload.name())),
    }
}

/// The committed tiny-size digest of `workload`.
pub fn reference_digest(workload: Workload) -> Option<String> {
    let doc = microsampler_obs::json::parse(REFERENCE).ok()?;
    doc.get("digests")?.get(workload.name())?.as_str().map(str::to_string)
}

/// Compares this run's digest and counters with the ones an earlier run
/// of the same workload and seed left in the work directory, and records
/// them when there are none. Counters and outputs must repeat exactly.
/// Records are keyed by the committed reference digest too, so
/// regenerating `reference.json` after an intended change of behaviour
/// leaves the older records unused.
fn check_earlier_runs(opts: &Options, out: &mut Outcome) {
    let dir = opts.work_dir.join("runs");
    let reference = reference_digest(opts.workload).unwrap_or_default();
    let path = dir.join(format!("{}-{}-{reference}.txt", opts.workload.name(), opts.seed));
    let mut record = BTreeMap::from([("digest".to_string(), out.digest.clone())]);
    if opts.trace {
        for &name in COUNTERS {
            let value = out.metrics.get(name).copied().unwrap_or(0.0);
            record.insert(name.to_string(), value.to_string());
        }
    }
    out.attempted += 1;
    let earlier = std::fs::read_to_string(&path).unwrap_or_default();
    let mut merged: BTreeMap<String, String> = earlier
        .lines()
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    for (k, v) in record {
        match merged.get(&k) {
            Some(old) if *old != v => {
                out.fail(format!("{k} is {v} but an earlier run of seed {} had {old}", opts.seed))
            }
            _ => {
                merged.insert(k, v);
            }
        }
    }
    let text: String = merged.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        out.notes.push(format!("could not record this run in {}: {e}", path.display()));
    }
}

/// The host facts a reader needs to compare results: cores, worker
/// threads, compiler and commit.
pub fn fingerprint() -> String {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    format!(
        "nproc={} threads={} rustc=\"{rustc}\" commit={commit}",
        microsampler_par::available(),
        default_threads()
    )
}

/// Worker threads the benchmark uses: the host's cores, at most two, so
/// the load has the same shape on every host.
pub fn default_threads() -> usize {
    microsampler_par::available().clamp(1, 2)
}
