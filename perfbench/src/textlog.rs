//! `textlog`: the paper's simulator-log pipeline (Table VI) on ME-V1-CV:
//! run with `enable_log`, `parse_text_log` the text back, `analyze`. The
//! same `Tracer` as `casestudy`, used another way: every row is
//! formatted and re-parsed (and refolded), so a change that speeds
//! hashing but slows logging, or grows memory, shows here.

use crate::casestudy::{association_probe, fold_probe, rows_of, run_key_with, tick_self};
use crate::measure::{timed, Digest, Ledger, Spans};
use crate::{
    default_threads, derive_seed, take_sim_counters, Options, Pass, Size, Trace, Workbench,
};
use microsampler_core::analyze;
use microsampler_kernels::inputs::random_keys;
use microsampler_kernels::modexp::{cycle_budget, ModexpKernel, ModexpVariant};
use microsampler_sim::{parse_text_log, CoreConfig, IterationTrace, TraceConfig, UnitId};

const VARIANT: ModexpVariant = ModexpVariant::V1CompilerVuln;

pub(crate) struct Bench {
    config: CoreConfig,
    kernel: ModexpKernel,
    keys: Vec<Vec<u8>>,
    /// Cycles and tables of the last traced pass, for the probe splits.
    cycles: f64,
    tables: f64,
    pooled: Vec<IterationTrace>,
}

/// One key's log-path result.
struct KeyLog {
    iterations: Vec<IterationTrace>,
    log_bytes: u64,
    identical: bool,
}

impl Workbench for Bench {
    fn setup(opts: &Options) -> Result<Bench, String> {
        let (n, key_bytes) = match opts.size {
            Size::Full => (8, 16),
            Size::Tiny => (4, 2),
        };
        let kernel = ModexpKernel::new(VARIANT, key_bytes);
        kernel.program().map_err(|e| format!("{}: {e}", VARIANT.name()))?;
        let keys = random_keys(n, key_bytes, derive_seed(opts.seed, 0));
        // Warm-up: one short logged run, parsed back. Short on purpose: a
        // full-size log would leave ~10 MB of freed heap with the
        // allocator, and how much of it stays resident varies from run to
        // run, which would blur `peak_rss_mb`.
        let mut warm = ModexpKernel::new(VARIANT, 1)
            .machine(CoreConfig::mega_boom(), &[0x5a], TraceConfig::default())
            .map_err(|e| format!("warm-up: {e}"))?;
        warm.enable_log();
        warm.run(cycle_budget(1)).map_err(|e| format!("warm-up: {e}"))?;
        parse_text_log(warm.log_text().unwrap_or(""), TraceConfig::default())
            .map_err(|e| format!("warm-up: {e}"))?;
        Ok(Bench {
            config: CoreConfig::mega_boom(),
            kernel,
            keys,
            cycles: 0.0,
            tables: 0.0,
            pooled: Vec::new(),
        })
    }

    fn pass(&mut self) -> Result<Pass, String> {
        let (logs, wall_s) = timed(|| -> Result<_, String> {
            let logs = microsampler_par::map(&self.keys, |_, key| -> Result<KeyLog, String> {
                let mut machine = self
                    .kernel
                    .machine(self.config.clone(), key, TraceConfig::default())
                    .map_err(|e| e.to_string())?;
                machine.enable_log();
                let run =
                    machine.run(cycle_budget(self.kernel.key_bytes)).map_err(|e| e.to_string())?;
                if run.exit_code != self.kernel.reference(key) {
                    return Err(format!("{} functional check failed", VARIANT.name()));
                }
                let text = machine.log_text().unwrap_or("");
                let parsed =
                    parse_text_log(text, TraceConfig::default()).map_err(|e| e.to_string())?;
                Ok(KeyLog {
                    identical: parsed == run.iterations,
                    log_bytes: text.len() as u64,
                    iterations: parsed,
                })
            });
            let logs = logs.into_iter().collect::<Result<Vec<_>, _>>()?;
            let pooled: Vec<IterationTrace> =
                logs.iter().flat_map(|l| l.iterations.clone()).collect();
            let report = analyze(&pooled);
            Ok((logs, pooled, report))
        });
        let (logs, pooled, report) = logs?;
        Ok(self.finish_pass(wall_s, &logs, &pooled, &report))
    }

    fn traced_pass(&mut self, trace: &mut Trace) -> Result<Pass, String> {
        let start = std::time::Instant::now();
        let kernel = &self.kernel;
        let config = &self.config;
        let (per_key, wall) = timed(|| {
            microsampler_par::map(&self.keys, |_, key| -> Result<_, String> {
                let mut r = run_key_with(kernel, config, key, |m| m.enable_log())?;
                let text = r.machine.log_text().unwrap_or("");
                let (parsed, secs) = timed(|| parse_text_log(text, TraceConfig::default()));
                r.spans.add("trace", secs);
                let parsed = parsed.map_err(|e| e.to_string())?;
                let log = KeyLog {
                    identical: parsed == r.iterations,
                    log_bytes: text.len() as u64,
                    iterations: parsed,
                };
                Ok((r.spans, r.assemble_s, r.machine_new_s, r.cycles, secs, log))
            })
        });
        let mut tasks = Vec::new();
        let mut logs = Vec::new();
        self.cycles = 0.0;
        for r in per_key {
            let (spans, assemble_s, machine_new_s, cycles, parse_s, log) = r?;
            trace.tally("isa.assemble_us", assemble_s, 1.0);
            trace.tally("sim.machine_new_us", machine_new_s, 1.0);
            trace.tally("trace.parse_ns_per_byte", parse_s, log.log_bytes as f64);
            self.cycles += cycles as f64;
            tasks.push(spans);
            logs.push(log);
        }
        trace.ledger.parallel(wall, default_threads(), &tasks);
        let pooled: Vec<IterationTrace> = logs.iter().flat_map(|l| l.iterations.clone()).collect();
        let mut serial = Spans::default();
        let report = serial.time("core", || analyze(&pooled));
        trace.tally("core.analyze_ns_per_iteration", serial.total(), pooled.len() as f64);
        trace.ledger.serial(&serial);
        let wall_s = start.elapsed().as_secs_f64();
        self.tables = (UnitId::COUNT * 2) as f64;
        let pass = self.finish_pass(wall_s, &logs, &pooled, &report);
        self.pooled = pooled;
        Ok(pass)
    }

    fn probes(&mut self, trace: &mut Trace) -> Result<(), String> {
        // Log emission: the same key run with and without the log.
        let key = &self.keys[0];
        let mut rows = 0.0;
        for _ in 0..2 {
            let plain = run_key_with(&self.kernel, &self.config, key, |_| {})?;
            let logged = run_key_with(&self.kernel, &self.config, key, |m| m.enable_log())?;
            trace.tally("sim.run_ns_per_cycle", plain.run_s, plain.cycles as f64);
            trace.tally(
                "trace.log_emit_ns_per_cycle",
                logged.run_s - plain.run_s,
                plain.cycles as f64,
            );
            rows += plain.iterations.iter().map(|it| rows_of(it) as f64).sum::<f64>();
            trace.ops += 2;
        }
        fold_probe(trace, VARIANT.name(), |cfg| {
            let run = self.kernel.run(self.config.clone(), key, cfg);
            run.map(|r| r.iterations).map_err(|e| e.to_string())
        })?;
        tick_self(trace, rows);
        association_probe(trace, std::slice::from_ref(&self.pooled));
        Ok(())
    }

    fn finish(&self, trace: &mut Trace, ledger: &mut Ledger) {
        // Log emission happened inside `Machine::run`: move its probed
        // share from `sim` to `trace`; likewise association from `core`.
        let k = default_threads() as f64;
        let emit =
            trace.tallies.get("trace.log_emit_ns_per_cycle").map_or(0.0, |t| t.per_unit(1.0));
        ledger.reattribute("sim", "trace", self.cycles * emit / k);
        let assoc =
            trace.tallies.get("stats.association_us_per_table").map_or(0.0, |t| t.per_unit(1.0));
        ledger.reattribute("core", "stats", self.tables * assoc / k);
    }
}

impl Bench {
    fn finish_pass(
        &self,
        wall_s: f64,
        logs: &[KeyLog],
        pooled: &[IterationTrace],
        report: &microsampler_core::AnalysisReport,
    ) -> Pass {
        let mut counters = take_sim_counters();
        let mut failures = Vec::new();
        let mut digest = Digest::default();
        digest.iterations(pooled);
        digest.str(&report.to_json().render_compact());
        if let Some(i) = logs.iter().position(|l| !l.identical) {
            failures.push(format!("key {i}: parsed log differs from the structured trace"));
        }
        if !report.is_leaky() {
            failures.push(format!("{} judged clean but the paper finds it leaky", VARIANT.name()));
        }
        counters.insert("trace.log_bytes", logs.iter().map(|l| l.log_bytes as f64).sum());
        Pass {
            wall_s,
            digest: digest.finish(),
            trials: logs.len() as u64,
            ops: logs.len() as u64 + 1,
            failures,
            counters,
            ..Pass::default()
        }
    }
}
