//! Extension case study end-to-end: MicroSampler distinguishes a leaky
//! table-indexed S-box from its constant-time scan replacement.

use microsampler_core::{analyze, feature_uniqueness, TraceConfig, UnitId};
use microsampler_kernels::sbox::SboxKernel;
use microsampler_sim::CoreConfig;

#[test]
fn direct_table_lookup_is_flagged_on_the_load_side() {
    // 128 iterations (vs 96 for the clean variant): nearly every secret
    // byte hashes uniquely, so the contingency table needs the extra rows
    // for the load-side association to clear significance.
    let outcome = SboxKernel::table_lookup()
        .run(CoreConfig::mega_boom(), 128, 3, TraceConfig::default())
        .unwrap();
    assert!(outcome.functional_ok, "functional check");
    let report = analyze(&outcome.result.iterations);
    assert!(
        report.unit(UnitId::LqAddr).is_leaky(),
        "secret-indexed load addresses must be flagged\n{report}"
    );
    // Note: Cache-ADDR records point events; in this 3-instruction kernel
    // the access can fire before the iteration window commits open, so the
    // persistent LQ-ADDR state is the reliable witness.
    assert!(
        !report.unit(UnitId::SqAddr).is_leaky(),
        "no stores, so the store side must stay clean\n{report}"
    );
    // Feature uniqueness recovers the per-line split the attacker exploits.
    let uniq = feature_uniqueness(&outcome.result.iterations, UnitId::LqAddr);
    assert!(uniq.has_unique_features());
}

#[test]
fn constant_time_scan_is_clean() {
    let outcome = SboxKernel::constant_time_scan()
        .run(CoreConfig::mega_boom(), 96, 3, TraceConfig::default())
        .unwrap();
    assert!(outcome.functional_ok, "functional check");
    let report = analyze(&outcome.result.iterations);
    assert!(!report.is_leaky(), "the scan variant must be clean\n{report}");
}
