//! Command line of the layer-by-layer benchmark.
//!
//! ```text
//! microsampler-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! microsampler-perfbench --print-reference
//! microsampler-perfbench --serve-daemon STATE_DIR
//! ```
//!
//! The last line of standard output is the JSON result; the lines before
//! it name every metric with its unit. Exits 1 when a correctness gate,
//! digest or counter check fails, 2 on bad arguments.

use microsampler_perfbench::{
    fingerprint, reference_digest, run, Options, Size, Workload, REFERENCE_SEED,
};
use std::path::PathBuf;
use std::process::ExitCode;

/// Scratch directory, relative to the working directory: daemon state
/// and the record of earlier runs.
const WORK_DIR: &str = ".perfbench";

fn usage() -> ExitCode {
    eprintln!(
        "usage: microsampler-perfbench --workload casestudy|audit|textlog|serve --seed N \
         --seconds S --trace 0|1\n       \
         microsampler-perfbench --print-reference\n       \
         microsampler-perfbench --serve-daemon STATE_DIR"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    microsampler_obs::diag::set_max_level(Some(microsampler_obs::diag::Level::Error));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let work_dir = PathBuf::from(WORK_DIR);
    let mut daemon_state = None;
    let mut print_reference = false;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str);
        let consumed = match (args[i].as_str(), value) {
            ("--workload", Some(v)) => {
                workload = Workload::from_name(v);
                workload.is_some()
            }
            ("--seed", Some(v)) => {
                seed = v.parse::<u64>().ok();
                seed.is_some()
            }
            ("--seconds", Some(v)) => {
                seconds = v.parse::<f64>().ok().filter(|s| s.is_finite() && *s >= 0.0);
                seconds.is_some()
            }
            ("--trace", Some(v)) => {
                trace = match v {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                };
                trace.is_some()
            }
            ("--serve-daemon", Some(v)) => {
                daemon_state = Some(PathBuf::from(v));
                true
            }
            ("--print-reference", _) => {
                print_reference = true;
                i += 1;
                continue;
            }
            _ => false,
        };
        if !consumed {
            eprintln!("bad argument `{}`", args[i]);
            return usage();
        }
        i += 2;
    }

    if let Some(state_dir) = daemon_state {
        return serve_daemon(state_dir);
    }
    let daemon_exe = std::env::current_exe().ok();
    if print_reference {
        return print_reference_digests(work_dir, daemon_exe);
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };
    let opts = Options { workload, seed, seconds, trace, size: Size::Full, work_dir, daemon_exe };
    println!(
        "# perfbench workload={} seed={seed} trace={} {}",
        workload.name(),
        u8::from(trace),
        fingerprint()
    );
    let out = run(&opts);
    for note in &out.notes {
        println!("# {note}");
    }
    println!("# digest {}", out.digest);
    for (name, unit, value) in out.reported(trace) {
        println!("{name:<36} {value:>16.6} {unit}");
    }
    for failure in &out.failures {
        println!("FAIL {failure}");
    }
    println!("{}", out.to_json(trace).render_compact());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload at the tiny size on the reference seed and prints
/// the `reference.json` those digests make. Records of earlier runs in
/// `.perfbench/runs/` are keyed by the reference digest, so a new one
/// retires them; a change that keeps the reference digest needs that
/// directory removed by hand.
fn print_reference_digests(work_dir: PathBuf, daemon_exe: Option<PathBuf>) -> ExitCode {
    let mut digests = Vec::new();
    for workload in Workload::ALL {
        let opts = Options {
            workload,
            seed: REFERENCE_SEED,
            seconds: 0.0,
            trace: false,
            size: Size::Tiny,
            work_dir: work_dir.clone(),
            daemon_exe: daemon_exe.clone(),
        };
        let out = run(&opts);
        if !out.correct() {
            eprintln!("{}: {:?}", workload.name(), out.failures);
            return ExitCode::FAILURE;
        }
        if reference_digest(workload).as_deref() != Some(out.digest.as_str()) {
            eprintln!("{}: digest changed to {}", workload.name(), out.digest);
        }
        digests.push((workload.name().to_string(), microsampler_obs::Value::from(out.digest)));
    }
    let doc = microsampler_obs::Value::object()
        .field("schema", "microsampler-perfbench-reference-v1")
        .field("seed", REFERENCE_SEED)
        .field("size", "tiny")
        .field("digests", microsampler_obs::Value::Object(digests))
        .build();
    println!("{}", doc.render_pretty());
    ExitCode::SUCCESS
}

/// The daemon mode: what `repro serve --state DIR --threads N` runs, with
/// the benchmark's own worker count.
#[cfg(unix)]
fn serve_daemon(state_dir: PathBuf) -> ExitCode {
    use microsampler_bench::serve::{serve, ServeOptions};
    drain_when_orphaned();
    microsampler_par::set_threads(Some(microsampler_perfbench::default_threads()));
    let opts =
        ServeOptions { socket: state_dir.join("serve.sock"), state_dir, ..ServeOptions::default() };
    match serve(opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Asks the kernel to send this daemon SIGTERM (a clean drain) when the
/// benchmark that started it dies, so a benchmark killed mid-pass leaves
/// no daemon behind.
#[cfg(target_os = "linux")]
fn drain_when_orphaned() {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGTERM: u64 = 15;
    // SAFETY: PR_SET_PDEATHSIG takes one integer signal number and
    // touches no memory of this process.
    unsafe {
        prctl(PR_SET_PDEATHSIG, SIGTERM);
    }
    // The parent may have died before the request took effect.
    if std::os::unix::process::parent_id() == 1 {
        std::process::exit(1);
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
fn drain_when_orphaned() {}

#[cfg(not(unix))]
fn serve_daemon(_state_dir: PathBuf) -> ExitCode {
    eprintln!("the serve daemon needs unix-domain sockets");
    ExitCode::FAILURE
}
