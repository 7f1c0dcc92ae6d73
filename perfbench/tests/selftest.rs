//! Self-tests: every workload at the tiny size, the digest path, the
//! metric names and the shape of `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use microsampler_obs::{json, Value};
use microsampler_perfbench::{
    reference_digest, reset_process_state, run, Options, Outcome, Size, Workload, COUNTERS,
    END_TO_END, PER_LAYER, REFERENCE_SEED,
};
use std::path::PathBuf;
use std::sync::Mutex;

// Workloads share process-global state (sweep options, the metrics
// registry, the thread override): one at a time.
static LOCK: Mutex<()> = Mutex::new(());

fn tiny(workload: Workload, trace: bool) -> Outcome {
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-selftest-{}", std::process::id()));
    let out = run(&Options {
        workload,
        seed: REFERENCE_SEED,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
        work_dir: work_dir.clone(),
        daemon_exe: Some(PathBuf::from(env!("CARGO_BIN_EXE_microsampler-perfbench"))),
    });
    std::fs::remove_dir_all(&work_dir).ok();
    out
}

fn names(v: &Value) -> Vec<String> {
    match v {
        Value::Object(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
        _ => panic!("expected an object, got {v:?}"),
    }
}

#[test]
fn every_workload_passes_at_tiny_size_and_matches_its_reference_digest() {
    let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    for workload in Workload::ALL {
        let untraced = tiny(workload, false);
        assert!(untraced.correct(), "{}: {:?}", workload.name(), untraced.failures);
        assert_eq!(
            reference_digest(workload).as_deref(),
            Some(untraced.digest.as_str()),
            "{}: digest drifted from reference.json",
            workload.name()
        );
        for (name, _, value) in untraced.reported(false) {
            assert!(value > 0.0, "{}: end-to-end metric {name} is {value}", workload.name());
        }
        let traced = tiny(workload, true);
        assert!(traced.correct(), "{} traced: {:?}", workload.name(), traced.failures);
        assert_eq!(traced.digest, untraced.digest, "{}: traced digest", workload.name());
        assert!(traced.metrics["sim.cycles"] > 0.0, "{}: no cycles counted", workload.name());
    }
}

#[test]
fn result_line_carries_exactly_the_mode_metrics_with_units() {
    let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let out = tiny(Workload::Audit, true);
    for (trace, table) in [(false, END_TO_END), (true, PER_LAYER)] {
        let line = json::parse(&out.to_json(trace).render_compact()).expect("result is JSON");
        assert_eq!(names(&line), ["correct", "attempted", "failed", "metrics"]);
        let metrics = line.get("metrics").expect("metrics");
        let want: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
        assert_eq!(names(metrics), want);
        for (name, unit) in table {
            let m = metrics.get(name).expect("metric present");
            assert_eq!(names(m), ["value", "unit"]);
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(*unit));
        }
    }
    for counter in COUNTERS {
        assert!(PER_LAYER.iter().any(|(n, _)| n == counter), "{counter} is not reported");
    }
}

#[test]
fn a_changed_output_fails_the_digest_check() {
    let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    // A different seed is a different output: its digest must differ
    // from the reference one, so the reference comparison can fail.
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-digest-{}", std::process::id()));
    let other = run(&Options {
        workload: Workload::Casestudy,
        seed: REFERENCE_SEED + 1,
        seconds: 0.0,
        trace: false,
        size: Size::Tiny,
        work_dir: work_dir.clone(),
        daemon_exe: None,
    });
    std::fs::remove_dir_all(&work_dir).ok();
    assert!(other.correct(), "{:?}", other.failures);
    assert_ne!(reference_digest(Workload::Casestudy), Some(other.digest));
}

#[test]
fn runs_leave_no_process_global_state_behind() {
    let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    microsampler_bench::sweep::set_options(Some(microsampler_bench::sweep::SweepOptions {
        isolate: true,
        ..Default::default()
    }));
    microsampler_par::set_threads(Some(1));
    let out = tiny(Workload::Textlog, false);
    assert!(out.correct(), "{:?}", out.failures);
    assert!(microsampler_bench::sweep::options().is_none(), "sweep options were reset");
    assert!(!microsampler_obs::metrics::enabled(), "metrics registry is off again");
    assert!(microsampler_obs::metrics::snapshot().is_empty(), "metrics registry is empty");
    assert_eq!(
        microsampler_par::threads(),
        microsampler_par::available(),
        "thread override cleared"
    );
    reset_process_state(None);
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json is JSON");
    assert_eq!(
        names(&doc),
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    );
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let unit = m.get("unit").and_then(Value::as_str).unwrap_or_default();
                (m.get("name").and_then(Value::as_str).unwrap_or_default().to_string(), unit.into())
            })
            .collect()
    };
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(listed("end_to_end"), table(END_TO_END));
    assert_eq!(listed("per_layer"), table(PER_LAYER));
    for m in doc.get("end_to_end").and_then(Value::as_array).expect("end_to_end") {
        assert_eq!(names(m), ["name", "unit", "better", "bound"]);
        let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}
