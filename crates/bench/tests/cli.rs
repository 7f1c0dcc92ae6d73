//! End-to-end `repro` CLI tests: flag validation exit codes and the
//! fault-injection → quarantine → resume loop through the real binary.

use microsampler_obs::{json, Value};
use std::path::PathBuf;
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("microsampler-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn bad_flags_exit_with_usage_error() {
    let cases: &[&[&str]] = &[
        &["fig7", "--threads", "0"],
        &["fig7", "--threads", "-3"],
        &["fig7", "--threads", "abc"],
        &["fig7", "--threads"],
        &["fig7", "--faults", "bogus"],
        &["fig7", "--faults", "rate=1"],
        &["fig7", "--faults", "drop=99999"],
        &["fig7", "--faults", "drop=abc"],
        &["fig7", "--faults"],
        &["fig7", "--resume", "/nonexistent/journal.jsonl"],
        &["fig7", "--keys", "0"],
        &["nonsense-experiment"],
        &["fig7", "--trial-timeout", "0"],
        &["fig7", "--retries", "4294967296"],
        &["lint", "--bogus"],
        &["lint", "--spec-depth"],
        &["lint", "--seed", "abc"],
        &["lint", "--threads", "0"],
        &["lint", "--trials", "0"],
        &["profile"],
        &["audit", "--out", "x"],
        &["audit", "--stats-out", "x"],
        &["audit", "--stability-out", "x"],
        &["audit", "--bogus"],
        &["audit", "--noise"],
        &["audit", "--seed", "abc"],
        &["audit", "--threads", "0"],
        &["audit", "--trials", "0"],
        &["serve", "--bogus"],
        &["serve", "--state"],
        &["serve", "--queue", "abc"],
        &["serve", "--threads", "0"],
        &["serve", "--queue", "0"],
        &["serve", "--per-client", "0"],
        &["serve", "--job-retries", "4294967296"],
        &["submit", "--bogus"],
        &["submit", "--socket"],
        &["submit", "--max-cycles", "abc"],
        &["submit", "--keys", "0"],
    ];
    for args in cases {
        let out = repro().args(*args).output().expect("repro runs");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} must exit 2; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

/// `repro <surface> --help` exits 0 and its synopsis line names exactly
/// the flags that surface accepts. The lists are literal, so a flag
/// dropped from (or added to) the CLI's flag table fails this test.
#[test]
fn help_lists_every_flag_of_each_surface() {
    let surfaces: &[(&[&str], &str)] = &[
        (
            &["--help"],
            "--keys --key-bytes --reps --trials --seed --threads --full --json --faults --journal \
             --resume --retries --sequential --trial-timeout",
        ),
        (
            &["lint", "--help"],
            "--all --static --sarif --baseline --update-baseline --spec-depth --no-spec --trials \
             --seed --threads",
        ),
        (
            &["audit", "-h"],
            "--trials --seed --threads --faults --full-budget --robustness --noise --json",
        ),
        (
            &["serve", "--help"],
            "--socket --state --queue --per-client --job-timeout-ms --job-retries --backoff-ms \
             --threads",
        ),
        (
            &["submit", "--help"],
            "--socket --client --kernel --config --fast-bypass --keys --key-bytes --seed --wedge \
             --max-cycles --sequential --cancel --status",
        ),
    ];
    let mut pairs = 0;
    for (args, flags) in surfaces {
        let out = repro().args(*args).output().expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        let synopsis = stderr.lines().next().unwrap_or_default();
        let mut listed: Vec<&str> = synopsis
            .split(|c: char| c.is_whitespace() || c == '[' || c == ']')
            .filter(|w| w.starts_with("--"))
            .collect();
        let mut expected: Vec<&str> = flags.split_whitespace().collect();
        listed.sort_unstable();
        expected.sort_unstable();
        assert_eq!(listed, expected, "{args:?} synopsis: {synopsis}");
        for flag in &expected {
            let described = stderr.lines().any(|l| l.trim_start().starts_with(&format!("{flag} ")));
            assert!(described, "{args:?} help describes {flag}: {stderr}");
        }
        pairs += expected.len();
    }
    assert_eq!(pairs, 53);
}

/// The usage text lists exactly the experiments `repro` accepts: `fig8`
/// (absent from the paper's evaluation) is refused, and every listed name
/// passes validation. A `--json` path that cannot be created stops the run
/// right after validation, so no experiment actually runs.
#[test]
fn usage_lists_only_accepted_experiments() {
    let out = repro().args(["fig8"]).output().expect("repro runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment `fig8`"));

    let out = repro().output().expect("repro runs");
    assert_eq!(out.status.code(), Some(1), "no arguments prints usage and fails");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let line = stderr
        .lines()
        .find_map(|l| l.strip_prefix("experiments: "))
        .unwrap_or_else(|| panic!("usage names the experiments: {stderr}"));
    let names: Vec<&str> = line.split_whitespace().filter(|&n| n != "all").collect();
    assert!(names.len() >= 10 && !names.contains(&"fig8"), "{line}");
    let dir = tmp_dir("usage");
    let blocker = dir.join("not-a-dir");
    std::fs::write(&blocker, "").unwrap();
    for name in names {
        let out = repro().args([name, "--json"]).arg(blocker.join("json")).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(stderr.contains("cannot create --json directory"), "{name} rejected: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_resume_journal_exits_with_usage_error() {
    let dir = tmp_dir("badjournal");
    let journal = dir.join("journal.jsonl");
    std::fs::write(&journal, "this is not json\n").unwrap();
    let out = repro().args(["fig7", "--resume"]).arg(&journal).output().expect("repro runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 1"), "error should name the bad line: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A misspelled `repro submit --kernel` must exit 2 before connecting and
/// name every valid kernel on stderr — even with the diag sink silenced,
/// since the usage-error path prints unconditionally.
#[test]
fn submit_unknown_kernel_exits_usage_error_listing_kernels() {
    let out = repro()
        .args(["submit", "--kernel", "no-such-kernel"])
        .env("MICROSAMPLER_LOG", "off")
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown kernel `no-such-kernel`"), "{stderr}");
    for name in ["SAM-Naive", "SAM-CT-CMOV", "ME-V1-CV", "ME-V1-MV", "ME-V2-Safe"] {
        assert!(stderr.contains(name), "stderr must list {name}: {stderr}");
    }
}

/// The acceptance scenario: a sweep containing an always-deadlocking
/// trial completes with exit 0, reports the quarantined trial in the
/// `--json` run report and the journal, and `--resume` re-runs only the
/// missing trial.
#[test]
fn wedged_sweep_completes_quarantines_and_resumes() {
    let dir = tmp_dir("wedge");
    let journal = dir.join("trials.jsonl");
    let reports = dir.join("reports");
    let base = ["fig7", "--keys", "2", "--key-bytes", "1", "--threads", "2", "--retries", "1"];

    let out = repro()
        .args(base)
        .args(["--faults", "wedge=0", "--journal"])
        .arg(&journal)
        .arg("--json")
        .arg(&reports)
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "a wedged trial must not sink the sweep; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let report = parse_report(&reports.join("fig7.json"));
    let trials = report.get("trials").expect("run report carries a trials section");
    assert_eq!(trials.get("completed").unwrap().as_u64(), Some(1));
    assert_eq!(trials.get("restored").unwrap().as_u64(), Some(0));
    let quarantined = trials.get("quarantined").unwrap().as_array().unwrap();
    assert_eq!(quarantined.len(), 1, "the wedged trial is enumerated");
    let q = &quarantined[0];
    assert!(q.get("id").unwrap().as_str().unwrap().ends_with("key0000"));
    assert_eq!(q.get("class").unwrap().as_str(), Some("sim-error"));
    assert_eq!(q.get("attempts").unwrap().as_u64(), Some(2), "--retries 1 means 2 attempts");

    let journal_text = std::fs::read_to_string(&journal).unwrap();
    assert!(journal_text.contains("\"status\":\"completed\""));
    assert!(journal_text.contains("\"status\":\"quarantined\""));

    // Resume without the wedge: the quarantined trial re-runs, the
    // completed one is restored, and the sweep reports no quarantine.
    let out = repro()
        .args(base)
        .arg("--resume")
        .arg(&journal)
        .arg("--json")
        .arg(&reports)
        .output()
        .expect("repro runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let report = parse_report(&reports.join("fig7.json"));
    let trials = report.get("trials").unwrap();
    assert_eq!(trials.get("restored").unwrap().as_u64(), Some(1), "journaled trial not re-run");
    assert_eq!(trials.get("completed").unwrap().as_u64(), Some(1), "missing trial re-ran");
    assert_eq!(trials.get("quarantined").unwrap().as_array().unwrap().len(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A run without sweep flags goes through the same trial path as a
/// journaled one, so its run report counts every trial it ran.
#[test]
fn plain_run_report_counts_completed_trials() {
    let dir = tmp_dir("plain-trials");
    let out = repro()
        .args(["fig7", "--keys", "2", "--key-bytes", "1", "--json"])
        .arg(&dir)
        .output()
        .expect("repro runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let report = parse_report(&dir.join("fig7.json"));
    let trials = report.get("trials").expect("run report carries a trials section");
    assert_eq!(trials.get("completed").unwrap().as_u64(), Some(2), "one per key");
    assert_eq!(trials.get("quarantined").unwrap().as_array().unwrap().len(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// `repro audit --json` writes its campaign and its stability curves in
/// the experiments' run-report envelope, plus a Chrome trace each; without
/// `--json` it leaves no file behind.
#[test]
fn audit_json_reports_share_the_experiment_envelope() {
    let dir = tmp_dir("audit-json");
    let out = repro()
        .args(["audit", "--trials", "48", "--robustness", "--noise", "0", "--json"])
        .arg(&dir)
        .output()
        .expect("repro runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let out = repro().args(["table4", "--json"]).arg(&dir).output().expect("repro runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    let keys = |v: &Value| match v {
        Value::Object(fields) => fields.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
        other => panic!("a run report is an object: {other:?}"),
    };
    let experiment = keys(&parse_report(&dir.join("table4.json")));
    let audit = parse_report(&dir.join("audit.json"));
    assert_eq!(keys(&audit), experiment);
    let result = audit.get("result").unwrap();
    assert_eq!(result.get("schema").and_then(Value::as_str), Some("microsampler-audit-v1"));
    assert_eq!(result.get("rows").unwrap().as_array().unwrap().len(), 27);
    let robustness = parse_report(&dir.join("robustness.json"));
    assert_eq!(keys(&robustness), experiment);
    assert_eq!(robustness.get("result").unwrap().get("unstable").unwrap().as_u64(), Some(0));
    for name in ["audit", "robustness"] {
        let trace = std::fs::read_to_string(dir.join(format!("{name}.trace.json"))).unwrap();
        assert!(trace.contains("\"traceEvents\""), "{name}.trace.json: {trace}");
    }
    std::fs::remove_dir_all(&dir).ok();

    let cwd = tmp_dir("audit-no-json");
    let out =
        repro().args(["audit", "--trials", "48"]).current_dir(&cwd).output().expect("repro runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let left: Vec<_> = std::fs::read_dir(&cwd).unwrap().collect();
    assert!(left.is_empty(), "audit without --json writes nothing: {left:?}");
    std::fs::remove_dir_all(&cwd).ok();
}

/// Resuming a journal recorded under different FaultConfig rates (or a
/// different fault seed) would mix trials from two distributions into
/// one statistic; the CLI must refuse with exit 2 and name the hashes.
#[test]
fn resume_with_changed_fault_config_exits_usage_error() {
    let dir = tmp_dir("resume-mismatch");
    let journal = dir.join("trials.jsonl");
    let base = ["fig7", "--keys", "2", "--key-bytes", "1", "--threads", "2"];

    let out = repro()
        .args(base)
        .args(["--faults", "evict=16,seed=9", "--journal"])
        .arg(&journal)
        .output()
        .expect("repro runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    // Same journal, different eviction rate: refused before any trial runs.
    let out = repro()
        .args(base)
        .args(["--faults", "evict=32,seed=9", "--resume"])
        .arg(&journal)
        .output()
        .expect("repro runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "a rate change must be refused; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("different"), "error explains the mismatch: {stderr}");

    // A changed fault seed is the same hazard.
    let out = repro()
        .args(base)
        .args(["--faults", "evict=16,seed=10", "--resume"])
        .arg(&journal)
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(2), "a fault-seed change must be refused");

    // The matching spec still resumes cleanly.
    let out = repro()
        .args(base)
        .args(["--faults", "evict=16,seed=9", "--resume"])
        .arg(&journal)
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "the original spec must resume; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

fn parse_report(path: &std::path::Path) -> Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let v = json::parse(&text).expect("run report parses");
    assert_eq!(v.get("schema").and_then(Value::as_str), Some("microsampler-run-report-v1"));
    v
}
