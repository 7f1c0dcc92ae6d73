//! Adaptive sequential audit engine (`repro audit`): the Table V
//! primitive sweep under anytime-valid early stopping, plus the
//! verdict-stability robustness harness.
//!
//! The fixed-budget [`table5`](crate::experiments::table5) audit spends
//! `Scale::primitive_trials` on every primitive even when Cramér's V
//! converges in the first look. This engine instead pools the whole
//! budget in a [`crate::sweep::AdaptiveAllocator`] and judges each primitive's
//! [`SequentialAnalyzer`] confidence sequence after every granted chunk:
//! decided primitives retire (their unspent budget reflows to the
//! borderline ones), and each one carries a [`StopTrace`] receipt with
//! its looks, bounds, and stopping point.
//!
//! Determinism: chunk `c` of every primitive runs at seed
//! `seed + c * 7919` (the escalation-round convention), the allocator's
//! grants depend only on the retire sequence, and chunks are pooled in
//! table order — so re-runs and different thread counts reproduce the
//! same stopping points bit-for-bit.
//!
//! The robustness layer ([`robustness`]) replays the audit across fault
//! noise levels in early-stop and full-budget modes and emits one
//! stability curve per primitive; any level where the two modes disagree
//! marks the primitive `UNSTABLE`.

use crate::sweep::AdaptiveAllocator;
use microsampler_core::{SeqConfig, SeqVerdict, SequentialAnalyzer, StopTrace};
use microsampler_kernels::openssl::Primitive;
use microsampler_obs::{diag, Value};
use microsampler_sim::{CoreConfig, FaultConfig, TraceConfig};

/// Reflow ceiling: a borderline primitive may spend at most this many
/// times its own budget before the audit resolves it with the batch
/// fallback rule, keeping worst-case runtime bounded.
pub const REFLOW_CAP: usize = 4;

/// One audit campaign's knobs.
#[derive(Clone, Debug)]
pub struct AuditOptions {
    /// Per-primitive trial budget (the fixed-budget audit's spend).
    pub trials: usize,
    /// Base input seed; chunk `c` runs at `seed + c * 7919`.
    pub seed: u64,
    /// Confidence-sequence parameters.
    pub config: SeqConfig,
    /// Stop primitives as soon as their sequence closes. When false the
    /// audit spends the full budget everywhere and the verdict is the
    /// paper's batch rule — the baseline early stopping is judged
    /// against.
    pub early_stop: bool,
    /// Fault noise injected into every trial (re-seeded per chunk).
    pub faults: Option<FaultConfig>,
}

impl Default for AuditOptions {
    fn default() -> AuditOptions {
        let scale = crate::Scale::default();
        AuditOptions {
            trials: scale.primitive_trials,
            seed: scale.seed,
            config: SeqConfig::default(),
            early_stop: true,
            faults: None,
        }
    }
}

/// One primitive's audit outcome.
#[derive(Clone, Debug)]
pub struct AuditRow {
    /// OpenSSL-style primitive name.
    pub name: String,
    /// Final verdict: the sequence's close (early-stop mode) or the
    /// batch rule over the full budget (full-budget mode). Never
    /// `Undecided` — open sequences resolve through the batch fallback.
    pub verdict: SeqVerdict,
    /// Whether every completed trial matched the reference model.
    pub functional_ok: bool,
    /// Largest timed Cramér's V over everything ingested.
    pub max_v: f64,
    /// Trials actually simulated for this primitive.
    pub trials_spent: u64,
    /// The per-primitive budget the campaign was configured with.
    pub budget: u64,
    /// The stopping trace: every look with its confidence-sequence
    /// bounds, plus where the sequence (would have) closed.
    pub stop: StopTrace,
    /// First simulator error, if any chunk failed.
    pub error: Option<String>,
}

struct ItemState {
    analyzer: SequentialAnalyzer,
    chunks: usize,
    spent: u64,
    functional_ok: bool,
    error: Option<String>,
}

/// Runs the 27-primitive audit under `opts`. Rows come back in table
/// order regardless of stopping order or thread count.
pub fn run_audit(opts: &AuditOptions) -> Vec<AuditRow> {
    let primitives = Primitive::all();
    let n = primitives.len();
    let mut alloc = AdaptiveAllocator::new(n, opts.trials);
    let cap = (opts.trials * REFLOW_CAP) as u64;
    let mut items: Vec<ItemState> = (0..n)
        .map(|_| ItemState {
            analyzer: SequentialAnalyzer::new(opts.config),
            chunks: 0,
            spent: 0,
            functional_ok: true,
            error: None,
        })
        .collect();

    loop {
        let grants = alloc.round();
        if grants.iter().all(|&g| g == 0) {
            break;
        }
        // Fan the round's chunks out in parallel, then pool them in
        // table order so the look sequence is schedule-independent.
        let jobs: Vec<(usize, usize, usize)> = grants
            .iter()
            .enumerate()
            .filter(|(_, &g)| g > 0)
            .map(|(i, &g)| (i, items[i].chunks, g))
            .collect();
        let results = microsampler_par::map(&jobs, |_, &(i, chunk, trials)| {
            let faults = opts.faults.map(|f| f.for_trial(chunk as u64, 0));
            let mut config = CoreConfig::mega_boom();
            config.faults = faults;
            let trace = TraceConfig { faults, ..TraceConfig::default() };
            primitives[i]
                .run(config, trials, opts.seed + chunk as u64 * 7919, trace)
                .map_err(|e| format!("{}: {e}", primitives[i].name))
        });
        for (&(i, _, trials), result) in jobs.iter().zip(results) {
            let item = &mut items[i];
            item.chunks += 1;
            match result {
                Ok(out) => {
                    item.functional_ok &= out.functional_ok;
                    item.spent += trials as u64;
                    item.analyzer.ingest_all(&out.result.iterations);
                }
                Err(e) => {
                    // A failed chunk contributes no data; the verdict
                    // resolves on what this primitive gathered so far.
                    if item.error.is_none() {
                        item.error = Some(e);
                    }
                    item.functional_ok = false;
                    item.analyzer.resolve(item.spent);
                    alloc.retire(i);
                    continue;
                }
            }
            let verdict = item.analyzer.look(item.spent);
            if opts.early_stop && verdict.is_decided() {
                alloc.retire(i);
            } else if item.spent >= cap {
                item.analyzer.resolve(item.spent);
                alloc.retire(i);
            }
        }
        diag::progress("audit", n - alloc_alive(&grants), n.max(1));
    }

    items
        .into_iter()
        .zip(&primitives)
        .map(|(mut item, prim)| {
            // Open sequences at budget exhaustion fall back to the
            // batch rule over everything ingested — which is exactly
            // the full-budget verdict when nothing stopped early.
            item.analyzer.resolve(item.spent);
            let report = item.analyzer.report();
            let verdict = if opts.early_stop {
                item.analyzer.verdict()
            } else if report.is_leaky() {
                SeqVerdict::Leaky
            } else {
                SeqVerdict::Clean
            };
            let max_v = report.units.iter().map(|u| u.assoc.cramers_v).fold(0.0f64, f64::max);
            AuditRow {
                name: prim.name.to_owned(),
                verdict,
                functional_ok: item.functional_ok,
                max_v,
                trials_spent: item.spent,
                budget: opts.trials as u64,
                stop: item.analyzer.trace().clone(),
                error: item.error,
            }
        })
        .collect()
}

fn alloc_alive(grants: &[usize]) -> usize {
    grants.iter().filter(|&&g| g > 0).count()
}

/// Renders one audit campaign, stop traces included.
pub fn audit_to_json(rows: &[AuditRow]) -> Value {
    Value::object()
        .field("schema", "microsampler-audit-v1")
        .field(
            "rows",
            Value::Array(
                rows.iter()
                    .map(|r| {
                        Value::object()
                            .field("name", r.name.as_str())
                            .field("verdict", r.verdict.name())
                            .field("functional_ok", r.functional_ok)
                            .field("max_v", r.max_v)
                            .field("trials_spent", r.trials_spent)
                            .field("budget", r.budget)
                            .field("stop", r.stop.to_json(&format!("audit/{}", r.name)))
                            .field("error", r.error.as_deref().map_or(Value::Null, Value::from))
                            .build()
                    })
                    .collect(),
            ),
        )
        .build()
}

/// One noise level's verdict pair on one primitive's stability curve.
#[derive(Clone, Debug)]
pub struct StabilityPoint {
    /// Fault rate (per 64Ki cycles) applied to squash/evict/MSHR noise.
    pub noise: u32,
    /// Early-stopped verdict at this level.
    pub early: SeqVerdict,
    /// Full-budget verdict at this level.
    pub full: SeqVerdict,
    /// Trials the early-stopped audit spent at this level.
    pub trials_spent: u64,
}

/// One primitive's verdict-stability curve across noise levels.
#[derive(Clone, Debug)]
pub struct StabilityCurve {
    /// Primitive name.
    pub name: String,
    /// One point per audited noise level, in level order.
    pub points: Vec<StabilityPoint>,
    /// True when any level's early verdict disagrees with its
    /// full-budget verdict — the primitive is escalated to `UNSTABLE`.
    pub unstable: bool,
}

/// Default robustness noise ladder (per-64k squash/evict/MSHR rates):
/// quiet, the fault-tolerance drill level, and 2× that. Verdicts are
/// stable across this ladder at the default seed; pushing to 256
/// escalates `constant_time_lookup` to UNSTABLE — eviction noise turns
/// its secret-indexed cache footprint into a late-blooming association
/// that the full budget flags but an early clean close misses, which is
/// exactly the disagreement this layer exists to surface.
pub const DEFAULT_NOISE_LEVELS: [u32; 3] = [0, 64, 128];

/// Runs the audit at each noise level in both modes and folds the
/// verdict pairs into per-primitive stability curves.
pub fn robustness(base: &AuditOptions, noise_levels: &[u32]) -> Vec<StabilityCurve> {
    let mut curves: Vec<StabilityCurve> = Primitive::all()
        .iter()
        .map(|p| StabilityCurve { name: p.name.to_owned(), points: Vec::new(), unstable: false })
        .collect();
    for &noise in noise_levels {
        let faults = if noise == 0 {
            base.faults
        } else {
            let seeded =
                base.faults.unwrap_or(FaultConfig { seed: base.seed, ..FaultConfig::default() });
            Some(FaultConfig {
                squash_per_64k: noise,
                evict_per_64k: noise,
                mshr_stall_per_64k: noise,
                ..seeded
            })
        };
        let early = run_audit(&AuditOptions { early_stop: true, faults, ..base.clone() });
        let full = run_audit(&AuditOptions { early_stop: false, faults, ..base.clone() });
        for (curve, (e, f)) in curves.iter_mut().zip(early.iter().zip(&full)) {
            debug_assert_eq!(curve.name, e.name);
            curve.unstable |= e.verdict != f.verdict;
            curve.points.push(StabilityPoint {
                noise,
                early: e.verdict,
                full: f.verdict,
                trials_spent: e.trials_spent,
            });
        }
    }
    curves
}

/// Renders the stability curves: the `UNSTABLE` count and one curve per
/// primitive (the `result` of `repro audit --robustness`'s run report).
pub fn stability_to_json(curves: &[StabilityCurve]) -> Value {
    Value::object()
        .field("unstable", curves.iter().filter(|c| c.unstable).count())
        .field(
            "curves",
            Value::Array(
                curves
                    .iter()
                    .map(|c| {
                        Value::object()
                            .field("name", c.name.as_str())
                            .field("status", if c.unstable { "UNSTABLE" } else { "stable" })
                            .field(
                                "points",
                                Value::Array(
                                    c.points
                                        .iter()
                                        .map(|p| {
                                            Value::object()
                                                .field("noise_per_64k", p.noise as u64)
                                                .field("early_verdict", p.early.name())
                                                .field("full_verdict", p.full.name())
                                                .field("trials_spent", p.trials_spent)
                                                .build()
                                        })
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

#[cfg(test)]
mod tests {
    use super::*;

    // 48 trials is the smallest budget whose interior looks (n = 12, 24)
    // have confidence radii tight enough for clean primitives to close
    // before exhaustion; 24 only judges at n = 12 (too wide) and n = 24
    // (the full budget), so nothing could ever stop early.
    fn small_opts() -> AuditOptions {
        AuditOptions { trials: 48, ..AuditOptions::default() }
    }

    #[test]
    fn early_stop_matches_full_budget_and_saves_trials() {
        let early = run_audit(&small_opts());
        let full = run_audit(&AuditOptions { early_stop: false, ..small_opts() });
        assert_eq!(early.len(), full.len());
        let mut saved = 0u64;
        for (e, f) in early.iter().zip(&full) {
            assert_eq!(e.name, f.name);
            assert!(e.verdict.is_decided(), "{}: audits never end undecided", e.name);
            assert_eq!(
                e.verdict, f.verdict,
                "{}: early-stopped verdict must match the full budget",
                e.name
            );
            assert!(e.functional_ok, "{}: reference mismatch", e.name);
            assert!(e.trials_spent <= f.trials_spent);
            saved += f.trials_spent - e.trials_spent;
            assert!(!e.stop.looks.is_empty(), "{}: stop trace records looks", e.name);
        }
        assert!(saved > 0, "early stopping must save trials somewhere");
    }

    #[test]
    fn audit_is_deterministic_across_runs() {
        let a = run_audit(&small_opts());
        let b = run_audit(&small_opts());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.verdict, y.verdict);
            assert_eq!(x.trials_spent, y.trials_spent);
            assert_eq!(x.stop.looks, y.stop.looks, "{}: looks are bit-identical", x.name);
        }
    }

    #[test]
    fn audit_json_schema_is_wellformed() {
        let rows = run_audit(&small_opts());
        let audit = audit_to_json(&rows);
        let text = audit.render_compact();
        assert_eq!(microsampler_obs::json::parse(&text).unwrap(), audit);
        let row0 = &audit.get("rows").unwrap().as_array().unwrap()[0];
        assert_eq!(
            row0.get("stop").unwrap().get("schema").unwrap().as_str(),
            Some(microsampler_core::STOP_SCHEMA)
        );
    }

    #[test]
    fn stability_curves_mark_disagreements_unstable() {
        let mk = |early: SeqVerdict, full: SeqVerdict| StabilityPoint {
            noise: 64,
            early,
            full,
            trials_spent: 12,
        };
        let curves = vec![
            StabilityCurve {
                name: "ok".into(),
                points: vec![mk(SeqVerdict::Clean, SeqVerdict::Clean)],
                unstable: false,
            },
            StabilityCurve {
                name: "bad".into(),
                points: vec![mk(SeqVerdict::Leaky, SeqVerdict::Clean)],
                unstable: true,
            },
        ];
        let v = stability_to_json(&curves);
        assert_eq!(v.get("unstable").unwrap().as_u64(), Some(1));
        let arr = v.get("curves").unwrap().as_array().unwrap();
        assert_eq!(arr[0].get("status").unwrap().as_str(), Some("stable"));
        assert_eq!(arr[1].get("status").unwrap().as_str(), Some("UNSTABLE"));
    }
}
