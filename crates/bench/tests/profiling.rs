//! Determinism guarantees of the pipeline counters: they are pure
//! simulator state, so they must be bit-identical at every thread count
//! and unaffected by whether the observability layers are enabled.

use microsampler_bench::run_modexp_iterations;
use microsampler_kernels::modexp::ModexpVariant;
use microsampler_obs::span;
use microsampler_sim::{CoreConfig, PipelineStats};
use std::sync::Mutex;

// Thread-count overrides and the span registry are process-global;
// serialize every test that touches them.
static LOCK: Mutex<()> = Mutex::new(());

fn counters(variant: ModexpVariant) -> Vec<PipelineStats> {
    let iters = run_modexp_iterations(variant, &CoreConfig::mega_boom(), 2, 1, 17);
    iters.iter().map(|i| i.pipeline).collect()
}

#[test]
fn pipeline_counters_invariant_to_span_enablement() {
    let _l = LOCK.lock().unwrap();
    microsampler_par::set_threads(Some(2));
    let variants = [ModexpVariant::V1MicroarchVuln, ModexpVariant::V2Safe];
    let bare: Vec<_> = variants.iter().map(|&v| counters(v)).collect();
    span::set_enabled(true);
    span::take();
    let instrumented: Vec<_> = variants.iter().map(|&v| counters(v)).collect();
    let forest = span::take();
    span::set_enabled(false);
    microsampler_par::set_threads(None);
    for ((v, b), i) in variants.iter().zip(&bare).zip(&instrumented) {
        assert!(b.iter().all(|p| p.cycles > 0), "{}: the counters must be non-trivial", v.name());
        assert_eq!(b, i, "{}: spans must not perturb the counters", v.name());
    }
    assert!(has_span(&forest, "simulate"), "the sweep records a `simulate` span");
}

/// Whether `name` appears anywhere in the forest (worker spans nest under
/// `par.worker` or the caller's open span, depending on the pool).
fn has_span(nodes: &[span::SpanNode], name: &str) -> bool {
    nodes.iter().any(|n| n.name == name || has_span(&n.children, name))
}

#[test]
fn per_iteration_deltas_sum_to_totals_at_any_thread_count() {
    let _l = LOCK.lock().unwrap();
    let mut baseline: Option<Vec<PipelineStats>> = None;
    for threads in [1, 2, 4] {
        microsampler_par::set_threads(Some(threads));
        let stats = counters(ModexpVariant::V1MicroarchVuln);
        assert!(stats.iter().all(|p| p.cycles > 0 && p.committed > 0));
        match &baseline {
            None => baseline = Some(stats),
            Some(want) => assert_eq!(&stats, want, "threads={threads}"),
        }
    }
    microsampler_par::set_threads(None);
}
