//! `audit`: the default sequential `run_audit` over the 27 Table V
//! primitives at the paper-scale trial budget, repeated over seeds
//! derived from the workload seed. Many short trials and many looks:
//! assembly, machine construction, sequential looks and `par` round
//! barriers show here, and `casestudy` bypasses them all.

use crate::casestudy::{association_probe, fold_probe, rows_of};
use crate::measure::{timed, Digest, Ledger, Spans};
use crate::{
    default_threads, derive_seed, take_sim_counters, Options, Pass, Size, Trace, Workbench,
};
use microsampler_bench::audit::{audit_to_json, run_audit, AuditOptions, AuditRow, REFLOW_CAP};
use microsampler_bench::sweep::AdaptiveAllocator;
use microsampler_bench::Scale;
use microsampler_core::{SeqVerdict, SequentialAnalyzer};
use microsampler_isa::asm::assemble;
use microsampler_kernels::openssl::Primitive;
use microsampler_sim::{CoreConfig, IterationTrace, Machine, TraceConfig};

pub(crate) struct Bench {
    /// One audit campaign per derived seed.
    campaigns: Vec<AuditOptions>,
    primitives: Vec<Primitive>,
    /// Chunks run and chunk seconds over all traced passes, and chunks
    /// and folded rows in the last one, for the probe splits.
    chunks_total: f64,
    chunk_s_total: f64,
    cycles_total: f64,
    chunks_last: f64,
    rows_last: f64,
    /// Each primitive's iterations from the last traced pass's first
    /// campaign, for the association probe.
    pooled: Vec<Vec<IterationTrace>>,
}

impl Workbench for Bench {
    fn setup(opts: &Options) -> Result<Bench, String> {
        let seeds = match opts.size {
            Size::Full => 12,
            Size::Tiny => 1,
        };
        // The paper-scale budget: its first look comes after 64 trials.
        // At the default budget of 96 it comes after 12, where the
        // sequential rule flags a constant-time primitive in a few
        // percent of campaigns (see README.md).
        let trials = Scale::full().primitive_trials;
        let campaigns: Vec<AuditOptions> = (0..seeds)
            .map(|j| AuditOptions {
                trials,
                seed: derive_seed(opts.seed, j),
                ..AuditOptions::default()
            })
            .collect();
        let primitives = Primitive::all();
        for p in &primitives {
            assemble(&p.source()).map_err(|e| format!("{}: {e}", p.name))?;
        }
        // Warm-up: the first campaign, once.
        run_audit(&campaigns[0]);
        Ok(Bench {
            campaigns,
            primitives,
            chunks_total: 0.0,
            chunk_s_total: 0.0,
            cycles_total: 0.0,
            chunks_last: 0.0,
            rows_last: 0.0,
            pooled: Vec::new(),
        })
    }

    fn pass(&mut self) -> Result<Pass, String> {
        let (campaigns, wall_s) =
            timed(|| self.campaigns.iter().map(run_audit).collect::<Vec<_>>());
        Ok(self.finish_pass(wall_s, &campaigns))
    }

    fn traced_pass(&mut self, trace: &mut Trace) -> Result<Pass, String> {
        let start = std::time::Instant::now();
        let mut campaigns = Vec::new();
        let mut rounds = 0u64;
        self.chunks_last = 0.0;
        self.rows_last = 0.0;
        for (j, opts) in self.campaigns.iter().enumerate() {
            let keep = j == 0;
            let (rows, stats) = traced_audit(opts, &self.primitives, trace, keep);
            rounds += stats.rounds;
            self.chunks_last += stats.chunks;
            self.rows_last += stats.rows;
            self.chunks_total += stats.chunks;
            self.chunk_s_total += stats.chunk_s;
            self.cycles_total += stats.cycles;
            if keep {
                self.pooled = stats.pooled;
            }
            campaigns.push(rows);
        }
        let wall_s = start.elapsed().as_secs_f64();
        trace.values.insert("audit.rounds", rounds as f64);
        Ok(self.finish_pass(wall_s, &campaigns))
    }

    fn probes(&mut self, trace: &mut Trace) -> Result<(), String> {
        for p in &self.primitives {
            let source = p.source();
            let (program, secs) = timed(|| assemble(&source));
            trace.tally("isa.assemble_us", secs, 1.0);
            let program = program.map_err(|e| format!("{}: {e}", p.name))?;
            let (machine, secs) = timed(|| {
                Machine::with_trace_config(
                    CoreConfig::mega_boom(),
                    &program,
                    TraceConfig::default(),
                )
            });
            std::hint::black_box(machine);
            trace.tally("sim.machine_new_us", secs, 1.0);
            trace.ops += 1;
        }
        // A chunk is assembly + machine + run: what remains after the
        // probed assembly and construction costs is the run.
        let per_chunk = self.probe_rate(trace, "isa.assemble_us")
            + self.probe_rate(trace, "sim.machine_new_us");
        if self.cycles_total > 0.0 {
            let run_s = self.chunk_s_total - self.chunks_total * per_chunk;
            trace.values.insert("sim.run_ns_per_cycle", run_s * 1e9 / self.cycles_total);
        }
        // Fold rate on the audit's own rows: one two-trial chunk of each
        // primitive.
        let seed = self.campaigns[0].seed;
        for p in &self.primitives {
            fold_probe(trace, p.name, |cfg| {
                let run = p.run(CoreConfig::mega_boom(), 2, seed, cfg);
                run.map(|o| o.result.iterations).map_err(|e| format!("{}: {e}", p.name))
            })?;
        }
        association_probe(trace, &self.pooled);
        Ok(())
    }

    fn finish(&self, trace: &mut Trace, ledger: &mut Ledger) {
        let k = default_threads() as f64;
        let assemble_s = self.probe_rate(trace, "isa.assemble_us");
        let fold_s = self.probe_rate(trace, "trace.fold_ns_per_row");
        ledger.reattribute("sim", "isa", self.chunks_last * assemble_s / k);
        ledger.reattribute("sim", "trace", self.rows_last * fold_s / k);
    }
}

impl Bench {
    /// Seconds per call of a probed tally.
    fn probe_rate(&self, trace: &Trace, name: &str) -> f64 {
        trace.tallies.get(name).map_or(0.0, |t| t.per_unit(1.0))
    }

    fn finish_pass(&self, wall_s: f64, campaigns: &[Vec<AuditRow>]) -> Pass {
        let mut counters = take_sim_counters();
        let mut digest = Digest::default();
        let mut failures = Vec::new();
        let mut trials = 0u64;
        let mut looks = 0u64;
        let mut budget = 0u64;
        for (rows, opts) in campaigns.iter().zip(&self.campaigns) {
            digest.str(&audit_to_json(rows).render_compact());
            for r in rows {
                trials += r.trials_spent;
                budget += r.budget;
                looks += r.stop.looks.len() as u64;
                // Every primitive is constant time.
                if r.verdict != SeqVerdict::Clean {
                    failures.push(format!(
                        "seed {}: the sequential rule finds constant-time {} {}",
                        opts.seed,
                        r.name,
                        r.verdict.name()
                    ));
                }
                if !r.functional_ok || r.error.is_some() {
                    failures.push(format!(
                        "seed {}: {} failed (functional_ok {}, error {:?})",
                        opts.seed, r.name, r.functional_ok, r.error
                    ));
                }
            }
        }
        counters.insert("audit.trials_simulated", trials as f64);
        counters.insert("audit.budget_spent_ratio", trials as f64 / budget.max(1) as f64);
        counters.insert("core.seq_looks", looks as f64);
        Pass {
            wall_s,
            digest: digest.finish(),
            trials,
            ops: campaigns.iter().map(|c| c.len() as u64).sum(),
            failures,
            counters,
            ..Pass::default()
        }
    }
}

struct AuditStats {
    rounds: u64,
    chunks: f64,
    rows: f64,
    chunk_s: f64,
    cycles: f64,
    pooled: Vec<Vec<IterationTrace>>,
}

struct ItemState {
    analyzer: SequentialAnalyzer,
    chunks: usize,
    spent: u64,
    functional_ok: bool,
    error: Option<String>,
}

/// `run_audit`, call by call: the allocator's rounds, each round's chunks
/// on the pool, then each primitive's ingest and look in table order.
/// Must reproduce `run_audit`'s rows exactly.
fn traced_audit(
    opts: &AuditOptions,
    primitives: &[Primitive],
    trace: &mut Trace,
    keep: bool,
) -> (Vec<AuditRow>, AuditStats) {
    let n = primitives.len();
    let mut stats = AuditStats {
        rounds: 0,
        chunks: 0.0,
        rows: 0.0,
        chunk_s: 0.0,
        cycles: 0.0,
        pooled: vec![Vec::new(); if keep { n } else { 0 }],
    };
    let mut bench = Spans::default();
    let mut alloc = bench.time("bench", || AdaptiveAllocator::new(n, opts.trials));
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
    trace.ledger.serial(&bench);
    loop {
        let mut bench = Spans::default();
        let grants = bench.time("bench", || alloc.round());
        trace.ledger.serial(&bench);
        if grants.iter().all(|&g| g == 0) {
            break;
        }
        stats.rounds += 1;
        let jobs: Vec<(usize, usize, usize)> = grants
            .iter()
            .enumerate()
            .filter(|(_, &g)| g > 0)
            .map(|(i, &g)| (i, items[i].chunks, g))
            .collect();
        let (results, wall) = timed(|| {
            microsampler_par::map(&jobs, |_, &(i, chunk, trials)| {
                let faults = opts.faults.map(|f| f.for_trial(chunk as u64, 0));
                let mut config = CoreConfig::mega_boom();
                config.faults = faults;
                let trace_cfg = TraceConfig { faults, ..TraceConfig::default() };
                let (result, secs) = timed(|| {
                    primitives[i].run(config, trials, opts.seed + chunk as u64 * 7919, trace_cfg)
                });
                let mut spans = Spans::default();
                spans.add("sim", secs);
                (result.map_err(|e| format!("{}: {e}", primitives[i].name)), spans, secs)
            })
        });
        let tasks: Vec<Spans> = results.iter().map(|(_, s, _)| s.clone()).collect();
        trace.ledger.parallel(wall, default_threads(), &tasks);
        let mut serial = Spans::default();
        for (&(i, _, trials), (result, _, secs)) in jobs.iter().zip(results) {
            let item = &mut items[i];
            item.chunks += 1;
            stats.chunks += 1.0;
            stats.chunk_s += secs;
            match result {
                Ok(out) => {
                    stats.cycles += out.result.cycles as f64;
                    stats.rows +=
                        out.result.iterations.iter().map(|it| rows_of(it) as f64).sum::<f64>();
                    item.functional_ok &= out.functional_ok;
                    item.spent += trials as u64;
                    let iterations = &out.result.iterations;
                    let ((), secs) = timed(|| item.analyzer.ingest_all(iterations));
                    serial.add("core", secs);
                    trace.tally("core.seq_ingest_ns_per_iteration", secs, iterations.len() as f64);
                    if keep {
                        stats.pooled[i].extend(out.result.iterations);
                    }
                }
                Err(e) => {
                    if item.error.is_none() {
                        item.error = Some(e);
                    }
                    item.functional_ok = false;
                    item.analyzer.resolve(item.spent);
                    alloc.retire(i);
                    continue;
                }
            }
            let (verdict, secs) = timed(|| item.analyzer.look(item.spent));
            serial.add("core", secs);
            trace.tally("core.seq_look_us", secs, 1.0);
            if opts.early_stop && verdict.is_decided() {
                alloc.retire(i);
            } else if item.spent >= cap {
                item.analyzer.resolve(item.spent);
                alloc.retire(i);
            }
        }
        trace.ledger.serial(&serial);
    }

    let mut serial = Spans::default();
    let rows = serial.time("core", || {
        items
            .into_iter()
            .zip(primitives)
            .map(|(mut item, prim)| {
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
    });
    trace.ledger.serial(&serial);
    (rows, stats)
}
