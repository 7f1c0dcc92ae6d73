//! Static × dynamic cross-validation end-to-end: the seeded-leaky
//! fixtures land in `true-leaky`, the real primitives in `true-ct`,
//! every row of a mixed cross-validation report is explained, and the
//! speculative dimension confirms the Spectre gadgets under adversarial
//! predictor state while keeping the Table V primitives out of the
//! confirmed cell.

use microsampler_bench::experiments::table5;
use microsampler_bench::lint::{lint_crossval, lint_one, lint_static_all};
use microsampler_bench::Scale;
use microsampler_core::{
    analyze, classify, CrossReport, CrossRow, CrossVerdict, SpecVerdict, TraceConfig,
};
use microsampler_isa::asm::assemble;
use microsampler_kernels::fixtures;
use microsampler_kernels::openssl::Primitive;
use microsampler_sim::{CoreConfig, Machine};

/// Runs a fixture's driver loop dynamically and returns the labeled
/// iterations' analysis report.
fn dynamic_report(f: &fixtures::LeakyFixture, trials: u64) -> microsampler_core::AnalysisReport {
    let program = assemble(f.source).unwrap();
    let mut m =
        Machine::with_trace_config(CoreConfig::mega_boom(), &program, TraceConfig::default());
    // The per-trial input word doubles as the class label, so alternate
    // two values (one matching the memcmp key's first byte, one not) to
    // get a well-populated 2-class contingency table.
    let mut words = vec![trials];
    words.extend((0..trials).map(|i| if i % 2 == 0 { 0x3a } else { 0xc7 }));
    m.push_inputs(words);
    let run = m.run(40_000_000).unwrap_or_else(|e| panic!("{}: {e}", f.name));
    analyze(&run.iterations)
}

#[test]
fn branchy_memcmp_is_true_leaky() {
    let f = fixtures::by_name("leaky_branchy_memcmp").unwrap();
    let static_leaky = lint_one(f.name).unwrap().report.is_leaky();
    assert!(static_leaky);
    let dynamic = dynamic_report(&f, 128);
    assert!(dynamic.is_leaky(), "secret-dependent branch must leak dynamically\n{dynamic}");
    assert_eq!(classify(static_leaky, &dynamic), CrossVerdict::TrueLeaky);
}

#[test]
fn clean_primitive_is_true_ct() {
    let p = Primitive::all().into_iter().find(|p| p.name == "constant_time_select").unwrap();
    let static_leaky = lint_one(p.name).unwrap().report.is_leaky();
    assert!(!static_leaky);
    let run = p.run(CoreConfig::mega_boom(), 96, 7, TraceConfig::default()).unwrap();
    let dynamic = analyze(&run.result.iterations);
    let verdict = classify(static_leaky, &dynamic);
    assert!(
        matches!(verdict, CrossVerdict::TrueCt | CrossVerdict::Inconclusive),
        "a clean primitive must not land in a disagreement bucket, got {verdict:?}\n{dynamic}"
    );
}

#[test]
fn every_cross_validation_row_is_explained() {
    // Build a mixed report (fixtures + one primitive) and check the
    // invariant the ISSUE demands: no unexplained rows — every verdict
    // maps to a non-empty mechanical explanation.
    let statics = lint_static_all();
    let mut rows = Vec::new();
    for f in fixtures::all() {
        let static_leaky = statics.iter().find(|r| r.name == f.name).unwrap().report.is_leaky();
        rows.push(CrossRow::new(f.name, static_leaky, &dynamic_report(&f, 64)));
    }
    let report = CrossReport { rows };
    for row in &report.rows {
        assert!(!row.verdict.label().is_empty());
        assert!(!row.verdict.explanation().is_empty());
        // Fixtures are statically leaky, so the only reachable buckets
        // are the explained leaky/conservative/inconclusive ones.
        assert!(
            matches!(
                row.verdict,
                CrossVerdict::TrueLeaky
                    | CrossVerdict::StaticConservative
                    | CrossVerdict::Inconclusive
            ),
            "{}: unexplained combination {:?}",
            row.name,
            row.verdict
        );
    }
    let json = report.to_json();
    assert_eq!(
        json.get("rows").and_then(|v| v.as_array()).map(<[_]>::len),
        Some(report.rows.len())
    );
}

#[test]
fn speculative_dimension_classifies_every_kernel() {
    // The full classification table: all 27 Table V primitives plus every
    // seeded-leaky fixture, each cross-checked along both the
    // architectural and the speculative dimension.
    let scale = Scale { primitive_trials: 48, ..Scale::default() };
    let statics = lint_static_all();
    let report = lint_crossval(&statics, &scale);
    assert_eq!(report.rows.len(), Primitive::all().len() + fixtures::all().len());
    for row in &report.rows {
        // Every row carries the speculative dimension and an explanation.
        let spec = row.spec_verdict.unwrap_or_else(|| panic!("{}: no spec verdict", row.name));
        assert!(!spec.explanation().is_empty());
        let is_spectre = row.name.starts_with("leaky_spectre");
        if is_spectre {
            // The acceptance cell: statically transient-only, dynamically
            // confirmed under adversarial speculation.
            assert_eq!(row.static_verdict, "clean", "{}: architecturally clean", row.name);
            assert_eq!(row.spec_static, Some("transient"), "{}", row.name);
            assert_eq!(
                spec,
                SpecVerdict::Confirmed,
                "{}: Spectre gadget must be dynamically confirmed (adversarial run {:?}, \
                 max V {:.3})",
                row.name,
                row.spec_dynamic,
                row.spec_max_cramers_v
            );
        } else {
            // Nothing else reports CT-SPEC at the default window, so no
            // other row can reach the confirmed/not-expressed cells.
            assert_eq!(row.spec_static, Some("clean"), "{}", row.name);
            assert!(
                !matches!(spec, SpecVerdict::Confirmed | SpecVerdict::NotExpressed),
                "{}: statically spec-clean kernel landed in {spec:?}",
                row.name
            );
        }
    }
    assert_eq!(report.spec_confirmed().count(), 2);
    // The run-report JSON records the agreement.
    let json = report.to_json();
    assert_eq!(json.get("schema").and_then(|v| v.as_str()), Some("microsampler-crossval-v2"));
    assert_eq!(json.get("spec_confirmed").and_then(|v| v.as_u64()), Some(2));
}

#[test]
fn architectural_dimension_matches_table5() {
    // Lint's architectural audit of a primitive is Table V's escalation
    // protocol, so at one scale it reproduces `repro table5` bit for bit.
    // At 8 trials several primitives escalate; at 48 none do.
    for trials in [8, 48] {
        let scale = Scale { primitive_trials: trials, ..Scale::default() };
        let rows = table5(&scale);
        let report = lint_crossval(&lint_static_all(), &scale);
        assert_eq!(rows.len(), 27);
        for (row, cross) in rows.iter().zip(&report.rows) {
            assert_eq!(cross.name, row.name);
            assert_eq!(cross.max_cramers_v.to_bits(), row.max_v.to_bits(), "{}: max V", row.name);
            assert_eq!(cross.dynamic_verdict == "leaky", row.leak_identified, "{}", row.name);
        }
        if trials == 8 {
            assert!(rows.iter().any(|r| r.escalation_rounds > 0), "no row escalated");
        }
    }
}
