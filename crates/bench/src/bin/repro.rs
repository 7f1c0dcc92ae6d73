//! Regenerates the paper's evaluation tables and figures.
//!
//! `repro --help` and `repro <subcommand> --help` list the flags each
//! surface accepts, generated from the one flag table that parsing uses.
//!
//! `--faults` injects seed-deterministic microarchitectural faults into
//! every modexp trial (see `microsampler_sim::FaultConfig`); `--journal`
//! checkpoints each finished trial as a JSONL record and `--resume`
//! restores completed trials from such a journal, re-running only the
//! missing ones. Any of the fault/journal/retry flags routes trials
//! through the crash-isolation harness: a deadlocked, over-budget, or
//! panicking trial is quarantined (with bounded retries) and the sweep
//! completes on the surviving trials, reporting the quarantine list under
//! `trials` in `--json` run reports.
//!
//! `--threads N` sizes the worker pool for trial fan-out and analysis.
//! Precedence: the `--threads` flag wins over the `MICROSAMPLER_THREADS`
//! env var, which wins over the default of every available core. Results
//! are bit-identical at any thread count.
//!
//! `repro lint` runs the static constant-time taint analyzer
//! (`microsampler-ct`) over Table V primitives and the seeded-leaky
//! fixtures; `--all` additionally cross-validates the static verdicts
//! against the dynamic statistical audit, both under the paper's MegaBoom
//! configuration and under adversarial speculation (polarized predictor
//! state plus spurious-squash fault plans) to check CT-SPEC findings
//! end to end. `--spec-depth N` bounds the modeled transient window in
//! instructions (default: the MegaBoom ROB size); `--no-spec` disables
//! speculative taint entirely. `--update-baseline` atomically rewrites
//! the `--baseline` file (default `lint-baseline.json`) with the current
//! verdicts, sorted by kernel name. Exit codes: 0 = clean,
//! 3 = architectural violations found, 4 = only transient (CT-SPEC)
//! violations found, 1 = `--baseline` verdict mismatch, 2 = usage error.
//!
//! With `--json DIR`, each experiment, and `repro audit`, additionally
//! writes `DIR/<name>.json`: a `microsampler-run-report-v1` run report
//! carrying the structured result, the trial accounting, the pipeline
//! span tree, and the aggregated simulator metrics (the simulated
//! pipeline counters, IPC included, sit in each modexp result's
//! `pipeline`). Next to it, `DIR/<name>.trace.json` holds the same span
//! forest as Chrome trace-event JSON, openable at
//! <https://ui.perfetto.dev>. Set `MICROSAMPLER_PROGRESS=1` for
//! trial-N-of-M heartbeats during long sweeps.

use microsampler_bench::experiments as exp;
use microsampler_bench::{lint, print_cycle_histogram, print_v_chart, sweep, Scale};
use microsampler_core::association_to_json;
use microsampler_kernels::modexp::ModexpVariant;
use microsampler_obs::{diag, diag_error, json, metrics, span, trace_event, Value};
use microsampler_sim::FaultConfig;
use std::any::Any;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

const EXPERIMENTS: [&str; 16] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig9",
    "fig10",
    "sensitivity",
];

/// A command surface: the experiment runner or one subcommand.
#[derive(Clone, Copy, PartialEq)]
enum Sub {
    Experiments,
    Lint,
    Audit,
    Serve,
    Submit,
}
use Sub::*;

struct Surface {
    sub: Sub,
    /// The subcommand word; empty for the experiment runner.
    name: &'static str,
    /// Operands after the subcommand word; empty if it takes none.
    operands: &'static str,
}

/// Every surface; the first, the experiment runner, has no subcommand word.
const SURFACES: [Surface; 5] = [
    Surface { sub: Experiments, name: "", operands: "<experiment>..." },
    Surface { sub: Lint, name: "lint", operands: "[<kernel>...]" },
    Surface { sub: Audit, name: "audit", operands: "" },
    Surface { sub: Serve, name: "serve", operands: "" },
    Surface { sub: Submit, name: "submit", operands: "" },
];

/// What follows a flag on the command line. `Count(min)` is a `usize` of
/// at least `min`; `Retries` is a `u32` that still fits once incremented;
/// `Secs` and `Millis` are [`Duration`]s of at least one unit; `Faults` is
/// a [`parse_faults`] spec and `Noise` a comma-separated `u32` list.
#[derive(Clone, Copy)]
enum Kind {
    Switch,
    Count(usize),
    U64,
    Retries,
    Secs,
    Millis,
    Path,
    Str,
    Faults,
    Noise,
}
use Kind::*;

/// One flag: the single source of its spelling, value kind, help text and
/// the surfaces that accept it.
struct Flag {
    /// The flag and its value's placeholder, as usage text shows them.
    usage: &'static str,
    kind: Kind,
    subs: &'static [Sub],
    help: &'static str,
}

const fn flag(usage: &'static str, kind: Kind, subs: &'static [Sub], help: &'static str) -> Flag {
    Flag { usage, kind, subs, help }
}

impl Flag {
    fn name(&self) -> &'static str {
        self.usage.split(' ').next().unwrap_or(self.usage)
    }
}

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    flag("--threads N", Count(1), &[Experiments, Lint, Audit, Serve], "worker pool size"),
    flag("--seed N", U64, &[Experiments, Lint, Audit, Submit], "base RNG seed"),
    flag("--trials N", Count(1), &[Experiments, Lint, Audit], "trials per Table V primitive"),
    flag("--keys N", Count(1), &[Experiments, Submit], "random keys per modexp sweep"),
    flag("--key-bytes N", Count(1), &[Experiments, Submit], "bytes per key"),
    flag("--faults SPEC", Faults, &[Experiments, Audit], "inject faults: comma-separated \
        seed=N, squash/evict/mshr/drop/flip=RATE per 64k cycles (max 65536), wedge=K (deadlock)"),
    flag("--help", Switch, &[Experiments, Lint, Audit, Serve, Submit], "this help, or -h"),
    flag("--reps N", Count(1), &[Experiments], "repetitions of each CT-MEM-CMP input pair"),
    flag("--full", Switch, &[Experiments], "paper scale; explicit scale flags override it"),
    flag("--json DIR", Path, &[Experiments, Audit], "write run reports DIR/<name>.json"),
    flag("--journal FILE", Path, &[Experiments], "append a JSONL record per finished trial"),
    flag("--resume FILE", Path, &[Experiments], "resume a --journal, re-running missing trials"),
    flag("--retries N", Retries, &[Experiments], "retry failing trials N times (default 1)"),
    flag("--trial-timeout SECS", Secs, &[Experiments], "quarantine trial attempts running longer"),
    flag("--sequential", Switch, &[Experiments, Submit], "stop early on an anytime-valid verdict"),
    flag("--all", Switch, &[Lint], "every kernel, cross-validated dynamically"),
    flag("--static", Switch, &[Lint], "skip the dynamic cross-validation of --all"),
    flag("--sarif FILE", Path, &[Lint], "also write the findings as SARIF"),
    flag("--baseline FILE", Path, &[Lint], "check verdicts against a baseline (exit 1 if not)"),
    flag("--update-baseline", Switch, &[Lint], "rewrite --baseline (default lint-baseline.json)"),
    flag("--spec-depth N", Count(0), &[Lint], "transient window (default: MegaBoom ROB size)"),
    flag("--no-spec", Switch, &[Lint], "disable speculative taint"),
    flag("--full-budget", Switch, &[Audit], "spend the whole budget, no early stopping"),
    flag("--robustness", Switch, &[Audit], "check verdict stability across --noise levels"),
    flag("--noise L1,L2,...", Noise, &[Audit], "--robustness fault levels (default 0,64,128)"),
    flag("--socket PATH", Path, &[Serve, Submit], "daemon socket (serve: --state/serve.sock)"),
    flag("--state DIR", Path, &[Serve], "state directory (default serve-state)"),
    flag("--queue N", Count(1), &[Serve], "outstanding jobs before busy (default 16)"),
    flag("--per-client N", Count(1), &[Serve], "outstanding jobs per client (default 4)"),
    flag("--job-timeout-ms MS", Millis, &[Serve], "wall-clock budget per job attempt"),
    flag("--job-retries N", Retries, &[Serve], "retries of a timed-out job (default 2)"),
    flag("--backoff-ms MS", U64, &[Serve], "retry backoff base, capped at 16x (default 250)"),
    flag("--client NAME", Str, &[Submit], "client tag for quotas (default cli)"),
    flag("--kernel NAME", Str, &[Submit], "the modexp kernel to audit"),
    flag("--config mega|small", Str, &[Submit], "the core configuration"),
    flag("--fast-bypass", Switch, &[Submit], "enable the fast-bypass optimization"),
    flag("--wedge K", Count(0), &[Submit], "deadlock trial K on purpose"),
    flag("--max-cycles N", U64, &[Submit], "cycle budget per trial"),
    flag("--cancel JOB", Str, &[Submit], "cancel a job instead of submitting"),
    flag("--status", Switch, &[Submit], "query the daemon instead of submitting"),
];

/// A `--faults` spec: fault rates (`None` if all are zero), trial to wedge.
type FaultSpec = (Option<FaultConfig>, Option<usize>);

impl Kind {
    /// Parses one value into what [`Parsed::get`] reads back: `usize`, `u64`,
    /// `u32`, [`Duration`], [`PathBuf`], `String`, [`FaultSpec`] or `Vec<u32>`.
    fn parse(self, raw: &str) -> Result<Box<dyn Any>, String> {
        let int = |min: u64, max: u64| {
            let n = raw.parse::<u64>().ok().filter(|n| (min..=max).contains(n));
            let range =
                if max == u64::MAX { format!(">= {min}") } else { format!("in {min}..={max}") };
            n.ok_or(format!("expected an integer {range}"))
        };
        Ok(match self {
            Switch => Box::new(()),
            Count(min) => Box::new(int(min as u64, usize::MAX as u64)? as usize),
            U64 => Box::new(int(0, u64::MAX)?),
            Retries => Box::new(int(0, u64::from(u32::MAX) - 1)? as u32),
            Secs => Box::new(Duration::from_secs(int(1, u64::MAX)?)),
            Millis => Box::new(Duration::from_millis(int(1, u64::MAX)?)),
            Path => Box::new(PathBuf::from(raw)),
            Str => Box::new(raw.to_owned()),
            Faults => Box::new(parse_faults(raw)?),
            Noise => Box::new(
                raw.split(',')
                    .map(|s| s.parse::<u32>().map_err(|_| format!("level `{s}` is not an integer")))
                    .collect::<Result<Vec<u32>, String>>()?,
            ),
        })
    }
}

/// A validated command line: operands plus the typed value of every flag
/// given (the last one wins if a flag repeats).
#[derive(Default)]
struct Parsed {
    operands: Vec<String>,
    values: BTreeMap<&'static str, Box<dyn Any>>,
}

impl Parsed {
    fn on(&self, flag: &str) -> bool {
        self.values.contains_key(flag)
    }

    /// The value of `flag`, as the type its [`Kind`] parses to.
    fn get<T: Any + Clone>(&self, flag: &str) -> Option<T> {
        let value = self.values.get(flag)?.downcast_ref::<T>();
        Some(value.unwrap_or_else(|| panic!("{flag} is not read as its table kind")).clone())
    }
}

/// Walks `args` once against the flags surface `s` accepts and collects
/// its operands. Nothing takes effect here; `--help` ends the walk.
fn parse(s: &Surface, args: &[String]) -> Result<Parsed, String> {
    let mut parsed = Parsed::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let name = if arg == "-h" { "--help" } else { arg };
        let Some(flag) = FLAGS.iter().find(|f| f.name() == name && f.subs.contains(&s.sub)) else {
            if arg.starts_with('-') || s.operands.is_empty() {
                return Err(format!("unknown flag `{arg}`"));
            }
            parsed.operands.push(arg.clone());
            continue;
        };
        let raw = match flag.kind {
            Switch => "",
            _ => args.next().ok_or_else(|| format!("`{}` is missing its value", flag.usage))?,
        };
        let value =
            flag.kind.parse(raw).map_err(|e| format!("invalid {name} value `{raw}`: {e}"))?;
        parsed.values.insert(flag.name(), value);
        if name == "--help" {
            break;
        }
    }
    Ok(parsed)
}

impl Surface {
    /// The surface's command line with every flag but `--help`.
    fn synopsis(&self) -> String {
        let flags = FLAGS.iter().filter(|f| f.subs.contains(&self.sub) && f.name() != "--help");
        let words = ["repro", self.name, self.operands].map(String::from).into_iter();
        let words = words.chain(flags.map(|f| format!("[{}]", f.usage)));
        words.filter(|w| !w.is_empty()).collect::<Vec<_>>().join(" ")
    }
}

/// Prints every surface's synopsis and the experiment names.
fn usage() {
    for (i, s) in SURFACES.iter().enumerate() {
        eprintln!("{} {}", if i == 0 { "usage:" } else { "      " }, s.synopsis());
    }
    eprintln!("experiments: {} all", EXPERIMENTS.join(" "));
}

/// Prints the synopsis of `s` (of every surface for the experiment
/// runner) and one line per flag it accepts.
fn help(s: &Surface) {
    match s.sub {
        Experiments => usage(),
        _ => eprintln!("usage: {}", s.synopsis()),
    }
    for f in FLAGS.iter().filter(|f| f.subs.contains(&s.sub)) {
        eprintln!("  {:<24} {}", f.usage, f.help);
    }
}

fn main() -> ExitCode {
    // CLI errors must be visible even though library diagnostics default
    // to silent; respect an explicit MICROSAMPLER_LOG if one is set.
    if std::env::var_os("MICROSAMPLER_LOG").is_none() {
        diag::set_max_level(Some(diag::Level::Error));
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let named = SURFACES[1..].iter().find(|s| args.first().is_some_and(|a| a == s.name));
    let (surface, rest) = named.map_or((&SURFACES[0], &args[..]), |s| (s, &args[1..]));
    let p = parse(surface, rest).unwrap_or_else(|e| fail(&e));
    if p.on("--help") {
        help(surface);
        return ExitCode::SUCCESS;
    }
    // Only now that the whole command line is valid. set_threads clamps
    // absurd counts to the host's available parallelism (with a warning).
    if let Some(n) = p.get("--threads") {
        microsampler_par::set_threads(Some(n));
    }
    match surface.sub {
        Experiments => experiments_main(&p),
        Lint => lint_main(&p),
        Audit => audit_main(&p),
        #[cfg(unix)]
        Serve => serve_main(&p),
        #[cfg(unix)]
        Submit => submit_main(&p),
        #[cfg(not(unix))]
        Serve | Submit => fail("serve and submit need a unix host"),
    }
}

fn fail(msg: &str) -> ! {
    // Unconditional: a usage error must be visible even under
    // MICROSAMPLER_LOG=off (which silences the diag sink entirely).
    eprintln!("repro: {msg}");
    usage();
    std::process::exit(2)
}

/// The experiment scale: `--full` picks the base and explicit flags
/// override it wherever they stand on the command line.
fn scale(p: &Parsed) -> Scale {
    let base = if p.on("--full") { Scale::full() } else { Scale::default() };
    Scale {
        keys: p.get("--keys").unwrap_or(base.keys),
        key_bytes: p.get("--key-bytes").unwrap_or(base.key_bytes),
        memcmp_reps: p.get("--reps").unwrap_or(base.memcmp_reps),
        primitive_trials: p.get("--trials").unwrap_or(base.primitive_trials),
        seed: p.get("--seed").unwrap_or(base.seed),
    }
}

/// `repro <experiment>...`: runs each experiment, optionally through the
/// isolation harness and with a `--json` run report per experiment.
fn experiments_main(p: &Parsed) -> ExitCode {
    let scale = scale(p);
    let mut sweep_opts = sweep::SweepOptions::default();
    (sweep_opts.faults, sweep_opts.wedge_trial) = p.get("--faults").unwrap_or_default();
    sweep_opts.journal = p.get("--journal");
    if let Some(path) = p.get::<PathBuf>("--resume") {
        // A missing or corrupt journal must be a usage error, not a
        // silently-ignored restart.
        let state =
            sweep::load_journal(&path).unwrap_or_else(|e| fail(&format!("cannot resume: {e}")));
        // A journal written under different FaultConfig rates or fault seed
        // holds trials from a different distribution; mixing them into this
        // run would silently bias the statistics.
        let current = sweep::options_config_hash(&sweep_opts);
        if let Some(recorded) = state.config_hash.filter(|recorded| *recorded != current) {
            fail(&format!(
                "cannot resume {}: the journal was written under a different FaultConfig or \
                 fault seed (journal config {recorded}, current {current}); restore the original \
                 --faults spec or start a fresh journal",
                path.display()
            ));
        }
        sweep_opts.journal = Some(path);
        sweep_opts.resume = true;
    }
    // N retries = N+1 attempts; 0 disables retrying.
    let attempts = p.get::<u32>("--retries").map(|retries| retries + 1);
    sweep_opts.policy.max_attempts = attempts.unwrap_or(sweep_opts.policy.max_attempts);
    sweep_opts.sequential = p.on("--sequential").then(microsampler_core::SeqConfig::default);
    sweep_opts.policy.timeout = p.get("--trial-timeout").or(sweep_opts.policy.timeout);
    let harness =
        ["--faults", "--journal", "--resume", "--retries", "--sequential", "--trial-timeout"];
    let sweep_requested = harness.iter().any(|f| p.on(f));
    let mut wanted = p.operands.clone();
    if wanted.is_empty() {
        help(&SURFACES[0]);
        return ExitCode::FAILURE;
    }
    if wanted.iter().any(|w| w == "all") {
        wanted = EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    // Validate every id up front so a typo late in the list fails before
    // hours of sweeps, not after.
    for w in &wanted {
        if !EXPERIMENTS.contains(&w.as_str()) {
            fail(&format!("unknown experiment `{w}`"));
        }
    }
    let json_dir = json_dir(p);
    if sweep_requested {
        // A fresh (non-resume) journal starts empty; sweeps append to it.
        if let (Some(path), false) = (&sweep_opts.journal, sweep_opts.resume) {
            if let Err(e) = std::fs::write(path, "") {
                fail(&format!("cannot create trial journal {}: {e}", path.display()));
            }
        }
        sweep_opts.isolate = true;
        sweep::set_options(Some(sweep_opts));
    }
    for w in &wanted {
        reported(json_dir.as_deref(), w, &scale, || ((), run(w, &scale)));
    }
    ExitCode::SUCCESS
}

/// The `--json` directory, created if it does not exist yet.
fn json_dir(p: &Parsed) -> Option<PathBuf> {
    let dir: PathBuf = p.get("--json")?;
    if let Err(e) = std::fs::create_dir_all(&dir) {
        fail(&format!("cannot create --json directory {}: {e}", dir.display()));
    }
    Some(dir)
}

/// Runs `body`, which returns its output and its structured result. With
/// a `--json` directory, the run is recorded (spans, metrics, trial
/// events) and written as the one run-report envelope to `DIR/<name>.json`
/// and its span forest as Chrome trace-event JSON to
/// `DIR/<name>.trace.json`.
fn reported<T>(
    dir: Option<&Path>,
    name: &str,
    scale: &Scale,
    body: impl FnOnce() -> (T, Value),
) -> T {
    sweep::reset_events();
    let Some(dir) = dir else { return body().0 };
    span::set_enabled(true);
    metrics::set_enabled(true);
    span::take();
    metrics::reset();
    let (out, result) = body();
    let spans = span::take();
    let snapshot = metrics::snapshot();
    span::set_enabled(false);
    metrics::set_enabled(false);
    let report = Value::object()
        .field("schema", "microsampler-run-report-v1")
        .field("experiment", name)
        .field("scale", scale_to_json(scale))
        .field("threads", microsampler_par::threads())
        .field("result", result)
        .field("trials", sweep::events_to_json())
        .field("spans", span::nodes_to_json(&spans))
        .field("metrics", metrics::snapshot_to_json(&snapshot))
        .build();
    let trace = trace_event::spans_to_trace_events(&spans);
    for (file, doc) in [
        (format!("{name}.json"), report.render_pretty()),
        (format!("{name}.trace.json"), trace.render_compact()),
    ] {
        let path = dir.join(file);
        if let Err(e) = std::fs::write(&path, doc) {
            fail(&format!("cannot write {}: {e}", path.display()));
        }
        println!("wrote {}", path.display());
    }
    out
}

/// Parses a `--faults` spec: comma-separated `key=value` pairs with keys
/// `seed`, `squash`, `evict`, `mshr`, `drop`, `flip` (rates are
/// probabilities per 64k cycles, at most 65536) and `wedge=K` (wedge
/// trial K's core — a deliberate deadlock).
fn parse_faults(spec: &str) -> Result<FaultSpec, String> {
    let mut faults = FaultConfig::default();
    let mut wedge_trial = None;
    for part in spec.split(',') {
        let (key, value) =
            part.split_once('=').ok_or_else(|| format!("expected key=value, got `{part}`"))?;
        let num =
            || value.parse::<u64>().map_err(|_| format!("invalid value `{value}` for `{key}`"));
        let rate = || -> Result<u32, String> {
            let v = num()?;
            if v > 65536 {
                return Err(format!("rate `{key}={v}` exceeds 65536 (probability per 64k)"));
            }
            Ok(v as u32)
        };
        match key {
            "seed" => faults.seed = num()?,
            "squash" => faults.squash_per_64k = rate()?,
            "evict" => faults.evict_per_64k = rate()?,
            "mshr" => faults.mshr_stall_per_64k = rate()?,
            "drop" => faults.drop_row_per_64k = rate()?,
            "flip" => faults.bitflip_per_64k = rate()?,
            "wedge" => wedge_trial = Some(num()? as usize),
            other => {
                return Err(format!(
                    "unknown fault key `{other}` (expected seed/squash/evict/mshr/drop/flip/wedge)"
                ))
            }
        }
    }
    Ok((faults.any().then_some(faults), wedge_trial))
}

/// `repro lint`. Exit codes: 0 = all analyzed kernels are clean,
/// 3 = architectural constant-time violations were found, 4 = only
/// transient (CT-SPEC) violations were found, 1 = verdicts diverge from
/// `--baseline`, 2 = usage error.
fn lint_main(p: &Parsed) -> ExitCode {
    let scale = scale(p);
    let (all, names) = (p.on("--all"), &p.operands);
    let baseline_path: Option<PathBuf> = p.get("--baseline");
    if all != names.is_empty() {
        fail("lint takes either --all or at least one kernel name, not both");
    }
    let spec = match (p.on("--no-spec"), p.get("--spec-depth")) {
        (true, Some(_)) => fail("--no-spec and --spec-depth are mutually exclusive"),
        (true, None) => microsampler_ct::SpecModel::disabled(),
        (false, None) => microsampler_ct::SpecModel::default(),
        (false, Some(depth)) => microsampler_ct::SpecModel { depth },
    };
    let results = if all {
        lint::lint_static_all_with(spec)
    } else {
        names
            .iter()
            .map(|n| {
                lint::lint_one_with(n, spec).unwrap_or_else(|| {
                    fail(&format!(
                        "unknown kernel `{n}` (expected a Table V primitive or a fixture; \
                         see `repro lint --all`)"
                    ))
                })
            })
            .collect()
    };
    for r in &results {
        print!("{}", r.report);
    }
    let arch_leaky = results.iter().filter(|r| r.report.has_architectural_violations()).count();
    let transient_only = results.iter().filter(|r| r.report.is_transient_only()).count();
    let clean = results.len() - arch_leaky - transient_only;
    println!(
        "linted {} kernels: {} clean, {} leaky, {} leaky-transient",
        results.len(),
        clean,
        arch_leaky,
        transient_only
    );
    if let Some(path) = p.get::<PathBuf>("--sarif") {
        let pairs: Vec<(&microsampler_ct::StaticReport, u64)> =
            results.iter().map(|r| (&r.report, r.text_base)).collect();
        let doc = microsampler_ct::sarif_document(&pairs);
        if let Err(e) = std::fs::write(&path, doc.render_pretty()) {
            fail(&format!("cannot write {}: {e}", path.display()));
        }
        println!("wrote {}", path.display());
    }
    // Cross-validate static vs dynamic verdicts over the real primitives
    // (--all only; fixtures are static-only regression anchors).
    if all && !p.on("--static") {
        println!("\n== cross-validation: static taint vs dynamic audit ==");
        let cross = lint::lint_crossval(&results, &scale);
        print!("{cross}");
    }
    if p.on("--update-baseline") {
        let path =
            baseline_path.clone().unwrap_or_else(|| std::path::PathBuf::from("lint-baseline.json"));
        match write_baseline(&path, &results) {
            Ok(()) => {
                println!("wrote {}", path.display());
                return ExitCode::SUCCESS;
            }
            Err(msg) => {
                diag_error!("{msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = &baseline_path {
        match check_baseline(path, &results) {
            Ok(()) => println!("verdicts match {}", path.display()),
            Err(msg) => {
                diag_error!("{msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    if arch_leaky > 0 {
        ExitCode::from(3)
    } else if transient_only > 0 {
        ExitCode::from(4)
    } else {
        ExitCode::SUCCESS
    }
}

/// The modexp kernel called `name`; a usage error naming every kernel if
/// there is none.
fn modexp_kernel(name: &str) -> ModexpVariant {
    ModexpVariant::ALL.iter().copied().find(|v| v.name() == name).unwrap_or_else(|| {
        let known: Vec<&str> = ModexpVariant::ALL.iter().map(|v| v.name()).collect();
        fail(&format!("unknown kernel `{name}` (expected one of {})", known.join(", ")))
    })
}

/// `repro audit`: runs the 27-primitive Table V audit under anytime-valid
/// early stopping (default) or the fixed budget (`--full-budget`),
/// printing one row per primitive with its stopping point and the median
/// trials-to-verdict. With `--robustness`, replays the audit in both modes
/// across the fault noise ladder and prints per-primitive verdict-stability
/// curves. With `--json DIR`, writes `DIR/audit.json` (result:
/// `microsampler-audit-v1`) and, under `--robustness`,
/// `DIR/robustness.json` (result: the stability curves), both in the
/// experiments' run-report envelope.
///
/// Exit codes: 0 = all verdicts clean and stable, 3 = a leak was
/// flagged (or, under `--robustness`, a primitive is UNSTABLE),
/// 1 = a primitive failed to simulate, 2 = usage error.
fn audit_main(p: &Parsed) -> ExitCode {
    use microsampler_bench::audit;
    let scale = scale(p);
    let (faults, wedge_trial): FaultSpec = p.get("--faults").unwrap_or_default();
    if wedge_trial.is_some() {
        fail("audit does not take wedge= in --faults");
    }
    let opts = audit::AuditOptions {
        trials: scale.primitive_trials,
        seed: scale.seed,
        early_stop: !p.on("--full-budget"),
        faults,
        ..audit::AuditOptions::default()
    };
    let noise = p.get("--noise").unwrap_or_else(|| audit::DEFAULT_NOISE_LEVELS.to_vec());
    let json_dir = json_dir(p);

    let rows = reported(json_dir.as_deref(), "audit", &scale, || {
        let rows = audit::run_audit(&opts);
        let result = audit::audit_to_json(&rows);
        (rows, result)
    });
    println!(
        "\n== adaptive sequential audit ({} budget, {}) ==",
        opts.trials,
        if opts.early_stop { "early stop" } else { "full budget" }
    );
    println!(
        "{:<34} {:>9} {:>5} {:>7} {:>11} {:>5} {:>8}",
        "primitive", "verdict", "func", "maxV", "trials", "looks", "fallback"
    );
    for r in &rows {
        println!(
            "{:<34} {:>9} {:>5} {:>7.3} {:>5}/{:<5} {:>5} {:>8}",
            r.name,
            r.verdict.name(),
            if r.functional_ok { "ok" } else { "FAIL" },
            r.max_v,
            r.trials_spent,
            r.budget,
            r.stop.looks.len(),
            if r.stop.fallback { "batch" } else { "-" },
        );
        if let Some(e) = &r.error {
            println!("{:<34} error: {e}", "");
        }
    }
    let mut spends: Vec<u64> = rows.iter().map(|r| r.trials_spent).collect();
    spends.sort_unstable();
    let median = spends.get(spends.len() / 2).copied().unwrap_or(0);
    let speedup = if median > 0 { opts.trials as f64 / median as f64 } else { 0.0 };
    println!("median trials-to-verdict: {median} of {} ({speedup}x)", opts.trials);

    let mut unstable = 0usize;
    if p.on("--robustness") {
        println!("\n== verdict stability across fault noise (per-64k levels {noise:?}) ==");
        let curves = reported(json_dir.as_deref(), "robustness", &scale, || {
            let curves = audit::robustness(&opts, &noise);
            let result = audit::stability_to_json(&curves);
            (curves, result)
        });
        for c in &curves {
            let points: Vec<String> = c
                .points
                .iter()
                .map(|p| {
                    format!(
                        "{}:{}{}",
                        p.noise,
                        p.early.name(),
                        if p.early == p.full {
                            String::new()
                        } else {
                            format!("!={}", p.full.name())
                        }
                    )
                })
                .collect();
            println!(
                "{:<34} {:>9}  {}",
                c.name,
                if c.unstable { "UNSTABLE" } else { "stable" },
                points.join("  ")
            );
        }
        unstable = curves.iter().filter(|c| c.unstable).count();
    }

    if rows.iter().any(|r| r.error.is_some() || !r.functional_ok) {
        diag_error!("a primitive failed to simulate or diverged from its reference");
        return ExitCode::FAILURE;
    }
    if unstable > 0 {
        diag_error!("{unstable} primitives have UNSTABLE verdicts");
        return ExitCode::from(3);
    }
    if rows.iter().any(|r| r.verdict == microsampler_core::SeqVerdict::Leaky) {
        return ExitCode::from(3);
    }
    ExitCode::SUCCESS
}

/// `repro serve`: runs the leakage-audit daemon until SIGTERM/SIGINT,
/// then drains in-flight jobs and exits 0. Exit codes: 0 = clean
/// shutdown, 1 = setup or drain failure, 2 = usage error.
#[cfg(unix)]
fn serve_main(p: &Parsed) -> ExitCode {
    use microsampler_bench::serve;
    let mut opts = serve::ServeOptions::default();
    opts.state_dir = p.get("--state").unwrap_or(opts.state_dir);
    opts.queue_cap = p.get("--queue").unwrap_or(opts.queue_cap);
    opts.per_client = p.get("--per-client").unwrap_or(opts.per_client);
    opts.job_timeout = p.get("--job-timeout-ms").or(opts.job_timeout);
    opts.job_retries = p.get("--job-retries").unwrap_or(opts.job_retries);
    if let Some(ms) = p.get("--backoff-ms") {
        opts.backoff_base = Duration::from_millis(ms);
        opts.backoff_cap = opts.backoff_base.saturating_mul(16);
    }
    opts.socket = p.get("--socket").unwrap_or_else(|| opts.state_dir.join("serve.sock"));
    match serve::serve(opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `repro submit`: submits one audit job to a running `repro serve`
/// daemon (or cancels a job / queries status), echoing every streamed
/// line to stdout. Exit codes: 0 = clean verdict (or ack), 3 = leaky
/// verdict, 4 = quarantined, 5 = cancelled, 6 = busy rejection,
/// 1 = connection or protocol error, 2 = usage error.
#[cfg(unix)]
fn submit_main(p: &Parsed) -> ExitCode {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    let mut request = Value::object().field("op", "submit");
    if let Some(name) = p.get::<String>("--kernel") {
        request = request.field("kernel", modexp_kernel(&name).name());
    }
    if let Some(name) = p.get::<String>("--config") {
        if name != "mega" && name != "small" {
            fail(&format!("unknown config `{name}` (expected mega or small)"));
        }
        request = request.field("config", name);
    }
    for (flag, key) in [("--fast-bypass", "fast_bypass"), ("--sequential", "sequential")] {
        if p.on(flag) {
            request = request.field(key, true);
        }
    }
    for (flag, key) in [("--keys", "keys"), ("--key-bytes", "key_bytes"), ("--wedge", "wedge")] {
        if let Some(n) = p.get::<usize>(flag) {
            request = request.field(key, n);
        }
    }
    for (flag, key) in [("--seed", "seed"), ("--max-cycles", "max_cycles")] {
        if let Some(n) = p.get::<u64>(flag) {
            request = request.field(key, n);
        }
    }
    let socket: PathBuf = p.get("--socket").unwrap_or_else(|| fail("submit needs --socket PATH"));
    let request = if p.on("--status") {
        Value::object().field("op", "status").build()
    } else if let Some(job) = p.get::<String>("--cancel") {
        Value::object().field("op", "cancel").field("job", job).build()
    } else {
        let client = p.get("--client").unwrap_or_else(|| "cli".to_string());
        request.field("client", client).build()
    };
    let mut stream = match UnixStream::connect(&socket) {
        Ok(stream) => stream,
        Err(e) => {
            eprintln!("repro submit: cannot connect to {}: {e}", socket.display());
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = writeln!(stream, "{}", request.render_compact()) {
        eprintln!("repro submit: cannot send the request: {e}");
        return ExitCode::FAILURE;
    }
    let reader = match stream.try_clone() {
        Ok(clone) => BufReader::new(clone),
        Err(e) => {
            eprintln!("repro submit: cannot clone the stream: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in reader.lines() {
        let line = match line {
            Ok(line) => line,
            Err(e) => {
                eprintln!("repro submit: stream read failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!("{line}");
        let Ok(v) = json::parse(&line) else { continue };
        if v.get("schema").and_then(Value::as_str) != Some("microsampler-serve-v1") {
            continue;
        }
        match v.get("event").and_then(Value::as_str) {
            Some("busy") => return ExitCode::from(6),
            Some("error") => return ExitCode::FAILURE,
            Some("status") | Some("cancel-ack") => return ExitCode::SUCCESS,
            Some("verdict") => {
                return match v.get("status").and_then(Value::as_str) {
                    Some("done") => {
                        if v.get("leaky").and_then(Value::as_bool) == Some(true) {
                            ExitCode::from(3)
                        } else {
                            ExitCode::SUCCESS
                        }
                    }
                    Some("quarantined") => ExitCode::from(4),
                    Some("cancelled") => ExitCode::from(5),
                    _ => ExitCode::FAILURE,
                }
            }
            _ => {}
        }
    }
    eprintln!("repro submit: the daemon closed the stream without a verdict");
    ExitCode::FAILURE
}

/// Compares each result's static verdict against the checked-in baseline.
///
/// The baseline records verdicts only — they are deterministic and
/// scale-independent, unlike violation counts or dynamic statistics.
fn check_baseline(path: &std::path::Path, results: &[lint::LintResult]) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    let doc = json::parse(&text)
        .map_err(|e| format!("baseline {} is not valid JSON: {e}", path.display()))?;
    if doc.get("schema").and_then(Value::as_str) != Some("microsampler-lint-baseline-v1") {
        return Err(format!("baseline {} has an unexpected schema", path.display()));
    }
    let verdicts = doc
        .get("verdicts")
        .ok_or_else(|| format!("baseline {} lacks `verdicts`", path.display()))?;
    let mut mismatches = Vec::new();
    for r in results {
        match verdicts.get(&r.name).and_then(Value::as_str) {
            Some(expected) if expected == r.report.verdict() => {}
            Some(expected) => mismatches.push(format!(
                "{}: baseline says {expected}, analysis says {}",
                r.name,
                r.report.verdict()
            )),
            None => mismatches.push(format!("{}: missing from baseline", r.name)),
        }
    }
    if mismatches.is_empty() {
        Ok(())
    } else {
        Err(format!("static verdicts diverge from baseline:\n  {}", mismatches.join("\n  ")))
    }
}

/// Atomically rewrites the lint baseline: verdicts for every analyzed
/// kernel, keyed and sorted by name, written to a temporary file in the
/// same directory and renamed into place so a crash or concurrent reader
/// never observes a half-written baseline.
fn write_baseline(path: &std::path::Path, results: &[lint::LintResult]) -> Result<(), String> {
    let mut sorted: Vec<&lint::LintResult> = results.iter().collect();
    sorted.sort_by(|a, b| a.name.cmp(&b.name));
    let mut verdicts = Value::object();
    for r in sorted {
        verdicts = verdicts.field(&r.name, r.report.verdict());
    }
    let doc = Value::object()
        .field("schema", "microsampler-lint-baseline-v1")
        .field("verdicts", verdicts.build())
        .build();
    let mut text = doc.render_pretty();
    text.push('\n');
    let tmp = path.with_file_name(format!(
        "{}.tmp.{}",
        path.file_name().and_then(|n| n.to_str()).unwrap_or("lint-baseline.json"),
        std::process::id()
    ));
    std::fs::write(&tmp, text).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        format!("cannot rename {} to {}: {e}", tmp.display(), path.display())
    })
}

fn scale_to_json(s: &Scale) -> Value {
    Value::object()
        .field("keys", s.keys)
        .field("key_bytes", s.key_bytes)
        .field("memcmp_reps", s.memcmp_reps)
        .field("primitive_trials", s.primitive_trials)
        .field("seed", s.seed)
        .build()
}

/// Runs one experiment, prints its paper-style output, and returns the
/// structured result for the `--json` run report.
fn run(which: &str, scale: &Scale) -> Value {
    match which {
        "table1" => {
            println!("\n== Table I: leakage-detection tool comparison (qualitative) ==");
            let rows = exp::table1();
            for row in &rows {
                println!(
                    "{:<20} {:<26} {:<20} {:<10} {:<12}",
                    row[0], row[1], row[2], row[3], row[4]
                );
            }
            Value::Array(rows.iter().map(|row| Value::array(row.iter().copied())).collect())
        }
        "fig2" => {
            println!("\n== Fig 2: SQ-ADDR iteration snapshots (ME-V1-MV) ==");
            let snapshots = exp::fig2(scale);
            for (label, rows) in &snapshots {
                println!(
                    "key bit = {label} ({} cycles total; empty-queue cycles elided):",
                    rows.len()
                );
                for (cycle, row) in rows.iter().enumerate() {
                    if row.iter().all(|&v| v == 0) {
                        continue;
                    }
                    let cells: Vec<String> = row
                        .iter()
                        .take(8)
                        .map(|&v| if v == 0 { "-".into() } else { format!("{v:#x}") })
                        .collect();
                    println!("  cycle +{cycle:<3} | {}", cells.join(" "));
                }
            }
            Value::Array(
                snapshots
                    .iter()
                    .map(|(label, rows)| {
                        Value::object().field("label", *label).field("cycles", rows.len()).build()
                    })
                    .collect(),
            )
        }
        "table2" => {
            println!("\n== Table II: contingency table for SQ-ADDR (SAM-CT-CMOV) ==");
            let t = exp::table2(scale);
            println!("{t}");
            let assoc = t.association();
            println!("{assoc}");
            Value::object()
                .field("classes", t.class_count())
                .field("categories", t.category_count())
                .field("total", t.total())
                .field("association", association_to_json(&assoc))
                .build()
        }
        "table3" => {
            println!("\n== Table III: BOOM core configurations ==");
            let (mega, small) = exp::table3();
            for c in [&mega, &small] {
                println!(
                    "{:<10} fetch/dec/iss={}/{}/{} ROB={} PRF={} LDQ/STQ={}/{} LFB={} \
                     bpred={} L1D={}x{} mshr={} tlb={} prefetcher={:?}",
                    c.name,
                    c.fetch_width,
                    c.decode_width,
                    c.issue_width,
                    c.rob_entries,
                    c.prf_regs,
                    c.ldq_entries,
                    c.stq_entries,
                    c.lfb_entries,
                    c.bpred_entries,
                    c.l1d.sets,
                    c.l1d.ways,
                    c.l1d.mshrs,
                    c.tlb_entries,
                    c.prefetcher,
                );
            }
            Value::array([mega.name, small.name])
        }
        "table4" => {
            println!("\n== Table IV: tracked microarchitectural units ==");
            let units = exp::table4();
            for u in &units {
                println!("  {}", u.name());
            }
            Value::array(units.iter().map(|u| u.name()))
        }
        "table5" => {
            println!("\n== Table V: OpenSSL constant-time primitives ==");
            println!(
                "{:<34} {:>5} {:>6} {:>7} {:>6} {:>6}  dominant stall",
                "primitive", "func", "leak", "maxV", "esc", "ipc"
            );
            let rows = exp::table5(scale);
            for r in &rows {
                println!(
                    "{:<34} {:>5} {:>6} {:>7.3} {:>6} {:>6.3}  {}",
                    r.name,
                    if r.functional_ok { "ok" } else { "FAIL" },
                    if r.leak_identified { "LEAK" } else { "-" },
                    r.max_v,
                    r.escalation_rounds,
                    r.ipc,
                    r.dominant_stall.as_deref().unwrap_or("-"),
                );
                if let Some(e) = &r.error {
                    println!("{:<34} error: {e}", "");
                }
            }
            let flagged = rows.iter().filter(|r| r.leak_identified).count();
            println!("flagged: {flagged}/27 (paper: 0/27; CRYPTO_memcmp — see fig10 — leaks)");
            Value::Array(
                rows.iter()
                    .map(|r| {
                        Value::object()
                            .field("primitive", r.name.as_str())
                            .field("functional_ok", r.functional_ok)
                            .field("leak_identified", r.leak_identified)
                            .field("max_v", r.max_v)
                            .field("escalation_rounds", r.escalation_rounds)
                            .field("ipc", r.ipc)
                            .field(
                                "dominant_stall",
                                r.dominant_stall.as_deref().map_or(Value::Null, Value::from),
                            )
                            .field("error", r.error.as_deref().map_or(Value::Null, Value::from))
                            .build()
                    })
                    .collect(),
            )
        }
        "table6" => {
            println!("\n== Table VI: MicroSampler stage breakdown (ME-V1-CV, MegaBoom) ==");
            let t = exp::table6(scale);
            print_table6(&t);
            table6_to_json(&t)
        }
        "table7" => {
            println!("\n== Table VII: scalability vs XENON ==");
            let t = exp::table7(scale);
            println!("SmallBoom ({} entries): {:?}", t.small_size, t.small.total());
            println!("MegaBoom  ({} entries): {:?}", t.mega_size, t.mega.total());
            println!("MicroSampler: {:.1}x size / {:.1}x time", t.size_ratio(), t.time_ratio());
            println!(
                "XENON (reported): {:.0}x size / {:.0}x time (2.5s ALU -> 14min SCARV)",
                exp::XENON_SIZE_RATIO,
                exp::XENON_TIME_RATIO
            );
            Value::object()
                .field("small", table6_to_json(&t.small))
                .field("mega", table6_to_json(&t.mega))
                .field("small_size", t.small_size)
                .field("mega_size", t.mega_size)
                .field("size_ratio", t.size_ratio())
                .field("time_ratio", t.time_ratio())
                .build()
        }
        "fig3" => {
            let r = exp::fig3(scale);
            print_v_chart("Fig 3: ME-V1-CV Cramer's V per unit", &r.v_series());
            print_leaks(&r);
            r.to_json()
        }
        "fig4" => {
            let r = exp::fig4(scale);
            print_v_chart("Fig 4: ME-V1-MV Cramer's V per unit", &r.v_series());
            print_leaks(&r);
            let rp = exp::fig4_with_pressure(scale);
            print_v_chart("Fig 4 (with cache pressure): miss-path units light up", &rp.v_series());
            Value::object()
                .field("report", r.to_json())
                .field("with_pressure", rp.to_json())
                .build()
        }
        "fig5" => {
            println!("\n== Fig 5: SQ-ADDR feature uniqueness for ME-V1-MV ==");
            let u = exp::fig5(scale);
            for (class, feats) in &u.unique {
                print!("class bit={class}: {} unique addresses:", feats.len());
                for f in feats.iter().take(8) {
                    print!(" {f:#x}");
                }
                println!();
            }
            println!("shared addresses: {}", u.shared.len());
            Value::object()
                .field("unit", u.unit.name())
                .field("shared", u.shared.len())
                .field(
                    "unique",
                    Value::Array(
                        u.unique
                            .iter()
                            .map(|(class, feats)| {
                                Value::object()
                                    .field("class", *class)
                                    .field(
                                        "addresses",
                                        Value::Array(
                                            feats
                                                .iter()
                                                .map(|f| format!("{f:#x}").into())
                                                .collect(),
                                        ),
                                    )
                                    .build()
                            })
                            .collect(),
                    ),
                )
                .build()
        }
        "fig6" => {
            let f = exp::fig6(scale);
            print_cycle_histogram(
                "Fig 6a: iteration cycles, both buffers uninitialized",
                &f.cold.0,
                &f.cold.1,
            );
            print_cycle_histogram(
                "Fig 6b: iteration cycles, dst initialized (warm)",
                &f.warm.0,
                &f.warm.1,
            );
            let classes = |pair: &(Vec<u64>, Vec<u64>)| {
                Value::object()
                    .field("bit0_cycles", Value::array(pair.0.iter().copied()))
                    .field("bit1_cycles", Value::array(pair.1.iter().copied()))
                    .build()
            };
            Value::object().field("cold", classes(&f.cold)).field("warm", classes(&f.warm)).build()
        }
        "fig7" => {
            let r = exp::fig7(scale);
            print_v_chart("Fig 7: ME-V2-Safe Cramer's V per unit", &r.v_series());
            print_leaks(&r);
            r.to_json()
        }
        "fig9" => {
            let r = exp::fig9(scale);
            print_v_chart("Fig 9: ME-V2-FB (fast bypass) with timing", &r.v_series());
            print_v_chart("Fig 9: ME-V2-FB timing removed", &r.v_series_timeless());
            print_leaks(&r);
            r.to_json()
        }
        "sensitivity" => {
            println!("\n== Sensitivity: verdicts vs sample size (§VII-D) ==");
            println!(
                "{:>5} {:>6} | {:>9} {:>8} | {:>8} {:>7} {:>10}",
                "keys", "iters", "leaky maxV", "flagged", "safe maxV", "flagged", "needs more"
            );
            let points = exp::sensitivity(scale);
            for p in &points {
                println!(
                    "{:>5} {:>6} | {:>10.3} {:>8} | {:>9.3} {:>7} {:>10}",
                    p.keys,
                    p.iterations,
                    p.leaky_max_v,
                    p.leaky_flagged,
                    p.safe_max_v,
                    p.safe_false_positive,
                    p.safe_needs_more,
                );
            }
            Value::Array(
                points
                    .iter()
                    .map(|p| {
                        Value::object()
                            .field("keys", p.keys)
                            .field("iterations", p.iterations)
                            .field("leaky_max_v", p.leaky_max_v)
                            .field("leaky_flagged", p.leaky_flagged)
                            .field("safe_max_v", p.safe_max_v)
                            .field("safe_false_positive", p.safe_false_positive)
                            .field("safe_needs_more", p.safe_needs_more)
                            .build()
                    })
                    .collect(),
            )
        }
        "fig10" => {
            let f = exp::fig10(scale);
            print_v_chart("Fig 10: CT-MEM-CMP Cramer's V per unit", &f.report.v_series());
            println!(
                "call patterns in CRYPTO_memcmp windows: inequal-only={} equal-only={} BOTH={} neither={}",
                f.patterns.inequal_only, f.patterns.equal_only, f.patterns.both, f.patterns.neither
            );
            println!(
                "mispredicts={} ROB-PC ordering mismatches={} leak identified: {}",
                f.mispredicts, f.ordering_mismatches, f.leak_identified
            );
            Value::object()
                .field("leak_identified", f.leak_identified)
                .field(
                    "patterns",
                    Value::object()
                        .field("inequal_only", f.patterns.inequal_only)
                        .field("both", f.patterns.both)
                        .field("equal_only", f.patterns.equal_only)
                        .field("neither", f.patterns.neither)
                        .build(),
                )
                .field("mispredicts", f.mispredicts)
                .field("ordering_mismatches", f.ordering_mismatches)
                .field("report", f.report.to_json())
                .build()
        }
        other => fail(&format!("unknown experiment `{other}`")),
    }
}

fn print_leaks(r: &microsampler_core::AnalysisReport) {
    let leaks: Vec<&str> = r.leaky_units().iter().map(|u| u.unit.name()).collect();
    println!("flagged units: {leaks:?}");
}

fn print_table6(t: &exp::Table6) {
    println!("1- simulate with trace logging     {:>10.2?}", t.simulate);
    println!("2- parse traces into snapshots     {:>10.2?}", t.parse);
    println!("3- Cramer's V for all structures   {:>10.2?}", t.correlate);
    println!("4- feature extraction              {:>10.2?}", t.extract);
    println!("total                              {:>10.2?}", t.total());
    println!("({} iterations, {} simulated cycles)", t.iterations, t.cycles);
}

/// Table VI as JSON. Stage keys are ordered exactly like the printed
/// breakdown (and like the children of the `table6` span this struct was
/// derived from).
fn table6_to_json(t: &exp::Table6) -> Value {
    let stages = json::Value::object()
        .field("simulate_ns", t.simulate.as_nanos() as u64)
        .field("parse_ns", t.parse.as_nanos() as u64)
        .field("correlate_ns", t.correlate.as_nanos() as u64)
        .field("extract_ns", t.extract.as_nanos() as u64)
        .build();
    Value::object()
        .field("stages", stages)
        .field("total_ns", t.total().as_nanos() as u64)
        .field("iterations", t.iterations)
        .field("cycles", t.cycles)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scale_of(args: &[&str]) -> (usize, usize, usize, usize, u64) {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let s = scale(&parse(&SURFACES[0], &args).unwrap());
        (s.keys, s.key_bytes, s.memcmp_reps, s.primitive_trials, s.seed)
    }

    #[test]
    fn full_scale_is_overridden_by_explicit_flags_in_either_order() {
        let before = scale_of(&["table6", "--keys", "1", "--key-bytes", "1", "--full"]);
        let after = scale_of(&["table6", "--full", "--keys", "1", "--key-bytes", "1"]);
        let full = Scale::full();
        assert_eq!(before, (1, 1, full.memcmp_reps, full.primitive_trials, full.seed));
        assert_eq!(before, after);
    }

    #[test]
    fn every_flag_has_one_row() {
        let names: std::collections::BTreeSet<&str> = FLAGS.iter().map(Flag::name).collect();
        assert_eq!(names.len(), FLAGS.len());
    }
}
