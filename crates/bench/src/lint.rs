//! The `repro lint` backend: static constant-time analysis over every
//! Table V primitive and seeded-leaky fixture, plus cross-validation of
//! the static verdicts against the dynamic statistical audit — including
//! a speculative dimension that checks CT-SPEC findings against runs
//! driven with adversarial predictor state and spurious-squash plans.

use crate::{escalate, Escalation, Scale};
use microsampler_core::{Analyzer, CrossReport, CrossRow, TraceConfig};
use microsampler_ct::{analyze_program_opts, AnalyzeOptions, SpecModel, StaticReport};
use microsampler_isa::asm::assemble;
use microsampler_kernels::fixtures;
use microsampler_kernels::openssl::Primitive;
use microsampler_obs::diag;
use microsampler_sim::{CoreConfig, FaultConfig};

/// One linted kernel: the static report plus the text base needed to map
/// violation PCs back to instruction lines in SARIF output.
#[derive(Clone, Debug)]
pub struct LintResult {
    /// Kernel name (primitive or fixture).
    pub name: String,
    /// The static analysis report.
    pub report: StaticReport,
    /// Base address of the kernel's text section.
    pub text_base: u64,
}

/// One lint target: a Table V primitive or a seeded-leaky fixture.
enum Target {
    Primitive(Primitive),
    Fixture(fixtures::LeakyFixture),
}

impl Target {
    fn name(&self) -> &'static str {
        match self {
            Target::Primitive(p) => p.name,
            Target::Fixture(f) => f.name,
        }
    }

    fn lint(&self, spec: SpecModel) -> LintResult {
        let (source, secrets) = match self {
            Target::Primitive(p) => (p.source(), p.secret_spec()),
            Target::Fixture(f) => (f.source.to_owned(), f.spec.clone()),
        };
        let program = assemble(&source).unwrap_or_else(|e| panic!("{}: {e}", self.name()));
        let opts = AnalyzeOptions { spec, ..Default::default() };
        let report = analyze_program_opts(self.name(), &program, &secrets, &opts);
        LintResult { name: self.name().to_owned(), report, text_base: program.text_base }
    }
}

/// The default targets: the 27 Table V primitives, then the seeded-leaky
/// fixtures.
fn targets() -> Vec<Target> {
    let primitives = Primitive::all().into_iter().map(Target::Primitive);
    primitives.chain(fixtures::all().into_iter().map(Target::Fixture)).collect()
}

/// Every name `repro lint <name>` accepts: the 27 Table V primitives
/// followed by the seeded-leaky fixtures. (The CI gate self-test fixture
/// resolves by name but is deliberately not a default target.)
pub fn lint_targets() -> Vec<&'static str> {
    targets().iter().map(Target::name).collect()
}

/// Statically analyzes one kernel by name (primitive or fixture,
/// including the gate self-test fixture) under the default speculation
/// model.
pub fn lint_one(name: &str) -> Option<LintResult> {
    lint_one_with(name, SpecModel::default())
}

/// [`lint_one`] with an explicit speculation model (`--spec-depth` /
/// `--no-spec`).
pub fn lint_one_with(name: &str, spec: SpecModel) -> Option<LintResult> {
    let selftest = Target::Fixture(fixtures::gate_selftest());
    targets().into_iter().chain([selftest]).find(|t| t.name() == name).map(|t| t.lint(spec))
}

/// Statically analyzes every primitive and fixture, in [`lint_targets`]
/// order, under the default speculation model.
pub fn lint_static_all() -> Vec<LintResult> {
    lint_static_all_with(SpecModel::default())
}

/// [`lint_static_all`] with an explicit speculation model.
pub fn lint_static_all_with(spec: SpecModel) -> Vec<LintResult> {
    targets().iter().map(|t| t.lint(spec)).collect()
}

/// The adversarial-speculation configuration the speculative crossval
/// dimension drives the core with: a strongly polarized gshare initial
/// state (maximizes guard mispredictions, and therefore wrong-path
/// windows) plus a spurious-squash fault plan (architecturally invisible
/// squash/replay noise the agreement must survive).
fn adversarial_config(seed: u64) -> CoreConfig {
    CoreConfig::mega_boom().with_adversarial_bpred(seed ^ 0xada5_7a7e).with_faults(FaultConfig {
        seed,
        squash_per_64k: 256,
        ..FaultConfig::default()
    })
}

/// Cross-validates the static verdicts against the dynamic audit over
/// the 27 Table V primitives and the seeded-leaky fixtures.
///
/// Every kernel gets two dynamic audits, both under Table V's
/// escalation protocol ([`escalate`]): one under the paper's MegaBoom
/// configuration (the architectural dimension; for the primitives its
/// verdicts and Cramér's V match `repro table5` at the same scale) and
/// one under an adversarial configuration — polarized gshare initial
/// state plus a spurious-squash fault plan, re-seeded per round (the
/// speculative dimension, cross-checked against static CT-SPEC
/// findings). Kernels fan out across the worker pool; rows come back in
/// table order.
///
/// # Panics
///
/// Panics naming the kernel if any of its runs fails to assemble or
/// simulate.
pub fn lint_crossval(statics: &[LintResult], scale: &Scale) -> CrossReport {
    let analyzer = Analyzer::new();
    let targets = targets();
    let done = std::sync::atomic::AtomicUsize::new(0);
    let rows = microsampler_par::map(&targets, |_, target| {
        let audit = |rounds: usize, config: &dyn Fn(usize) -> CoreConfig| {
            let trace = TraceConfig::default();
            let run = |round: usize, trials: usize, seed: u64| match target {
                Target::Primitive(p) => p.run(config(round), trials, seed, trace),
                Target::Fixture(f) => {
                    fixtures::run_fixture(f, config(round), trials as u64, seed, trace)
                }
            };
            match escalate(&analyzer, scale.primitive_trials, scale.seed, rounds, run) {
                Ok(Escalation { outcome, error: None, .. }) => outcome.report,
                Ok(Escalation { error: Some((_, e)), .. }) | Err(e) => {
                    panic!("{}: {e}", target.name())
                }
            }
        };
        // Escalation rounds: the primitives keep Table V's four.
        let (arch_rounds, adv_rounds) = match target {
            Target::Primitive(_) => (4, 2),
            Target::Fixture(_) => (2, 2),
        };
        let arch = audit(arch_rounds, &|_| CoreConfig::mega_boom());
        let adv = audit(adv_rounds, &|round| adversarial_config(scale.seed + round as u64));
        let stat = &statics
            .iter()
            .find(|r| r.name == target.name())
            .unwrap_or_else(|| panic!("no static report for {}", target.name()))
            .report;
        let finished = done.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
        diag::progress("lint-crossval", finished, targets.len());
        CrossRow::new(target.name(), stat.has_architectural_violations(), &arch)
            .with_spec(stat.has_transient_violations(), &adv)
    });
    CrossReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targets_cover_primitives_and_fixtures() {
        let targets = lint_targets();
        assert_eq!(targets.len(), Primitive::all().len() + fixtures::all().len());
        assert!(targets.contains(&"leaky_branchy_memcmp"));
        assert!(targets.contains(&"leaky_spectre_bounds"));
        assert!(!targets.contains(&"gate_selftest_unbaselined"));
    }

    #[test]
    fn lint_one_resolves_both_namespaces() {
        assert!(!lint_one("leaky_sbox_index").unwrap().report.violations.is_empty());
        assert!(lint_one("no-such-kernel").is_none());
        // The gate self-test fixture resolves by name for the CI gate.
        assert!(lint_one("gate_selftest_unbaselined").unwrap().report.is_leaky());
    }

    #[test]
    fn spec_model_gates_the_transient_verdict() {
        let on = lint_one("leaky_spectre_bounds").unwrap();
        assert_eq!(on.report.verdict(), "leaky-transient");
        let off = lint_one_with("leaky_spectre_bounds", SpecModel::disabled()).unwrap();
        assert_eq!(off.report.verdict(), "clean");
    }
}
