//! `casestudy`: the paper's modexp case studies (Figs. 3, 4 and 7) on
//! MegaBoom. Long iterations over wide ROB/LSQ rows, so the core tick and
//! the snapshot fold do nearly all the work.

use crate::measure::{timed, Digest, Spans};
use crate::{
    default_threads, derive_seed, take_sim_counters, Options, Pass, Size, Trace, Workbench,
};
use microsampler_bench::run_modexp_iterations;
use microsampler_core::{analyze, Analyzer};
use microsampler_isa::asm::assemble;
use microsampler_isa::Program;
use microsampler_kernels::inputs::random_keys;
use microsampler_kernels::modexp::{cycle_budget, ModexpKernel, ModexpVariant};
use microsampler_sim::{CoreConfig, IterationTrace, Machine, TraceConfig, Tracer, UnitId};

/// The three case-study kernels and whether the paper finds them leaky.
const KERNELS: [(ModexpVariant, bool); 3] = [
    (ModexpVariant::V1CompilerVuln, true),
    (ModexpVariant::V1MicroarchVuln, true),
    (ModexpVariant::V2Safe, false),
];

/// The benchmark's own marker-free loop: ALU, multiply, load and store
/// traffic with no tracing region, so `Machine::run` is the bare tick.
const TICK_LOOP: &str = r#"
    .data
    buf:    .zero 64
    .text
    _start:
        la   s0, buf
        li   t0, 6000
        li   t1, 1
        li   t2, 7
    loop:
        add  t1, t1, t0
        mul  t3, t1, t2
        xor  t1, t1, t3
        sd   t1, 0(s0)
        ld   t4, 8(s0)
        add  t4, t4, t1
        sd   t4, 8(s0)
        addi t0, t0, -1
        bnez t0, loop
        mv   a0, t1
        ecall
"#;

pub(crate) struct Bench {
    config: CoreConfig,
    keys: usize,
    key_bytes: usize,
    /// Per kernel: its seed, keys and assembled program.
    inputs: Vec<KernelInputs>,
    /// Rows and tables of the last traced pass, for the probe splits.
    rows: f64,
    /// Rows folded over all traced passes.
    rows_total: f64,
    tables: f64,
    /// The last traced pass's pooled iterations per kernel.
    pooled: Vec<Vec<IterationTrace>>,
}

struct KernelInputs {
    variant: ModexpVariant,
    leaky: bool,
    seed: u64,
    keys: Vec<Vec<u8>>,
}

impl Workbench for Bench {
    fn setup(opts: &Options) -> Result<Bench, String> {
        let (keys, key_bytes) = match opts.size {
            Size::Full => (8, 16),
            Size::Tiny => (4, 2),
        };
        let config = CoreConfig::mega_boom();
        let mut inputs = Vec::new();
        for (i, &(variant, leaky)) in KERNELS.iter().enumerate() {
            let kernel = ModexpKernel::new(variant, key_bytes);
            kernel.program().map_err(|e| format!("{}: {e}", variant.name()))?;
            let seed = derive_seed(opts.seed, i);
            let kernel_keys = random_keys(keys, key_bytes, seed);
            // Warm-up: the kernel's first trial, once. A full-size run
            // keeps set-up time dominated by simulation, as passes are,
            // rather than by first-touch page faults.
            kernel
                .run(config.clone(), &kernel_keys[0], TraceConfig::default())
                .map_err(|e| format!("{} warm-up: {e}", variant.name()))?;
            inputs.push(KernelInputs { variant, leaky, seed, keys: kernel_keys });
        }
        Ok(Bench {
            config,
            keys,
            key_bytes,
            inputs,
            rows: 0.0,
            rows_total: 0.0,
            tables: 0.0,
            pooled: Vec::new(),
        })
    }

    fn pass(&mut self) -> Result<Pass, String> {
        let mut digest = Digest::default();
        let mut failures = Vec::new();
        let (_, wall_s) = timed(|| {
            for k in &self.inputs {
                let iterations = run_modexp_iterations(
                    k.variant,
                    &self.config,
                    self.keys,
                    self.key_bytes,
                    k.seed,
                );
                let report = analyze(&iterations);
                record(&mut digest, &mut failures, k, &iterations, &report);
            }
        });
        Ok(self.finish_pass(wall_s, digest, failures))
    }

    fn traced_pass(&mut self, trace: &mut Trace) -> Result<Pass, String> {
        let mut digest = Digest::default();
        let mut failures = Vec::new();
        let mut pooled_all = Vec::new();
        let start = std::time::Instant::now();
        for k in &self.inputs {
            let mut serial = Spans::default();
            let keys = serial.time("kernels", || random_keys(self.keys, self.key_bytes, k.seed));
            trace.ledger.serial(&serial);
            let kernel = ModexpKernel::new(k.variant, self.key_bytes);
            let config = &self.config;
            let (per_key, wall) = timed(|| {
                microsampler_par::map(&keys, |_, key| run_key_with(&kernel, config, key, |_| {}))
            });
            let mut tasks = Vec::new();
            let mut iterations = Vec::new();
            for r in per_key {
                let r = r?;
                trace.tally("isa.assemble_us", r.assemble_s, 1.0);
                trace.tally("sim.machine_new_us", r.machine_new_s, 1.0);
                trace.tally("sim.run_ns_per_cycle", r.run_s, r.cycles as f64);
                tasks.push(r.spans);
                iterations.extend(r.iterations);
            }
            trace.ledger.parallel(wall, default_threads(), &tasks);
            let mut serial = Spans::default();
            let report = serial.time("core", || analyze(&iterations));
            trace.tally("core.analyze_ns_per_iteration", serial.total(), iterations.len() as f64);
            trace.ledger.serial(&serial);
            record(&mut digest, &mut failures, k, &iterations, &report);
            pooled_all.push(iterations);
        }
        let wall_s = start.elapsed().as_secs_f64();
        self.rows = pooled_all.iter().flatten().map(|it| rows_of(it) as f64).sum();
        self.rows_total += self.rows;
        self.tables = (pooled_all.len() * UnitId::COUNT * 2) as f64;
        self.pooled = pooled_all;
        Ok(self.finish_pass(wall_s, digest, failures))
    }

    fn probes(&mut self, trace: &mut Trace) -> Result<(), String> {
        for k in &self.inputs {
            let kernel = ModexpKernel::new(k.variant, self.key_bytes);
            fold_probe(trace, k.variant.name(), |cfg| {
                let run = kernel.run(self.config.clone(), &k.keys[0], cfg);
                run.map(|r| r.iterations).map_err(|e| e.to_string())
            })?;
        }
        tick_self(trace, self.rows_total);
        tick_probe(trace)?;
        association_probe(trace, &self.pooled);
        Ok(())
    }

    fn finish(&self, trace: &mut Trace, ledger: &mut crate::measure::Ledger) {
        split_by_probes(trace, ledger, self.rows, self.tables);
    }
}

impl Bench {
    fn finish_pass(&self, wall_s: f64, digest: Digest, failures: Vec<String>) -> Pass {
        let counters = take_sim_counters();
        Pass {
            wall_s,
            digest: digest.finish(),
            trials: (self.keys * self.inputs.len()) as u64,
            ops: (self.keys * self.inputs.len()) as u64 + self.inputs.len() as u64,
            failures,
            counters,
            ..Pass::default()
        }
    }
}

/// Digests one kernel's output and applies the paper's verdict as the
/// correctness gate.
fn record(
    digest: &mut Digest,
    failures: &mut Vec<String>,
    k: &KernelInputs,
    iterations: &[IterationTrace],
    report: &microsampler_core::AnalysisReport,
) {
    digest.str(k.variant.name());
    digest.iterations(iterations);
    digest.str(&report.to_json().render_compact());
    if report.is_leaky() != k.leaky {
        failures.push(format!(
            "{} judged {} but the paper finds it {}",
            k.variant.name(),
            if report.is_leaky() { "leaky" } else { "clean" },
            if k.leaky { "leaky" } else { "clean" }
        ));
    }
}

pub(crate) struct KeyRun {
    pub spans: Spans,
    pub assemble_s: f64,
    pub machine_new_s: f64,
    pub run_s: f64,
    pub cycles: u64,
    pub iterations: Vec<IterationTrace>,
    pub machine: Machine,
}

/// One trial of `run_modexp_iterations`, call by call: assemble, build
/// the machine, load the key, apply `prepare`, run, check the result.
pub(crate) fn run_key_with(
    kernel: &ModexpKernel,
    config: &CoreConfig,
    key: &[u8],
    prepare: impl FnOnce(&mut Machine),
) -> Result<KeyRun, String> {
    let mut spans = Spans::default();
    let source = spans.time("kernels", || kernel.source());
    let (program, assemble_s) = timed(|| assemble(&source));
    spans.add("isa", assemble_s);
    let program = program.map_err(|e| format!("{}: {e}", kernel.variant.name()))?;
    let (mut machine, machine_new_s) =
        timed(|| Machine::with_trace_config(config.clone(), &program, TraceConfig::default()));
    spans.add("sim", machine_new_s);
    spans.time("sim", || machine.write_mem(program.symbol_addr("key"), key));
    prepare(&mut machine);
    let (result, run_s) = timed(|| machine.run(cycle_budget(kernel.key_bytes)));
    spans.add("sim", run_s);
    let result = result.map_err(|e| format!("{}: {e}", kernel.variant.name()))?;
    let ok = spans.time("kernels", || result.exit_code == kernel.reference(key));
    if !ok {
        return Err(format!("{} functional check failed", kernel.variant.name()));
    }
    Ok(KeyRun {
        spans,
        assemble_s,
        machine_new_s,
        run_s,
        cycles: result.cycles,
        iterations: result.iterations,
        machine,
    })
}

/// Snapshot rows an iteration folded (every unit samples once per
/// captured cycle).
pub(crate) fn rows_of(it: &IterationTrace) -> u64 {
    it.units.iter().map(|u| u.cycle_rows).sum()
}

/// Captures one run's raw rows (untimed, via `keep_matrices`), replays
/// them through a hand-driven `Tracer` (timed), and requires the replayed
/// summaries to match the live run's bit for bit. `run` simulates the
/// `name`d program under the trace configuration it is given.
pub(crate) fn fold_probe(
    trace: &mut Trace,
    name: &str,
    run: impl Fn(TraceConfig) -> Result<Vec<IterationTrace>, String>,
) -> Result<(), String> {
    let live = run(TraceConfig::default())?;
    let captured = run(TraceConfig { keep_matrices: true, ..TraceConfig::default() })?;
    let (replayed, secs) = timed(|| replay(&captured));
    trace.ops += 1;
    let rows: u64 = captured.iter().map(rows_of).sum();
    trace.tally("trace.fold_ns_per_row", secs, rows as f64);
    let same = replayed.len() == live.len()
        && replayed.iter().zip(&live).all(|(r, l)| {
            r.label == l.label
                && r.units.iter().zip(&l.units).all(|(a, b)| {
                    a.hash == b.hash
                        && a.hash_timeless == b.hash_timeless
                        && a.features == b.features
                        && a.order == b.order
                        && a.cycle_rows == b.cycle_rows
                })
        });
    if !same {
        trace.failures.push(format!("{name}: Tracer replay hashes differ from the live run"));
    }
    Ok(())
}

/// Feeds captured rows back through a fresh `Tracer`, cycle by cycle and
/// unit by unit, as the core does.
fn replay(captured: &[IterationTrace]) -> Vec<IterationTrace> {
    let mut tracer = Tracer::new(TraceConfig::default());
    tracer.scr_start(0);
    for it in captured {
        tracer.iter_start(it.start_cycle, it.label);
        let matrices: Vec<&Vec<Vec<u64>>> = it
            .units
            .iter()
            .map(|u| u.rows.as_ref().expect("captured with keep_matrices"))
            .collect();
        for cycle in 0..it.sampled_cycles() as usize {
            tracer.begin_cycle(it.start_cycle + cycle as u64);
            for (unit, rows) in UnitId::ALL.iter().zip(&matrices) {
                tracer.record_row(*unit, &rows[cycle]);
            }
        }
        tracer.iter_end(it.end_cycle);
    }
    tracer.scr_end(0);
    std::mem::take(&mut tracer.iterations)
}

/// Times `Machine::run` on the marker-free loop: the core tick alone.
pub(crate) fn tick_probe(trace: &mut Trace) -> Result<(), String> {
    let program: Program = assemble(TICK_LOOP).map_err(|e| format!("tick loop: {e}"))?;
    for _ in 0..3 {
        let mut machine = Machine::new(CoreConfig::mega_boom(), &program);
        let (result, secs) = timed(|| machine.run(10_000_000));
        let result = result.map_err(|e| format!("tick loop: {e}"))?;
        trace.ops += 1;
        trace.tally("sim.tick_untraced_ns_per_cycle", secs, result.cycles as f64);
    }
    Ok(())
}

/// Times `association()` on every contingency table of the pooled
/// iterations (tables built untimed) and records their mean width.
pub(crate) fn association_probe(trace: &mut Trace, pooled: &[Vec<IterationTrace>]) {
    let analyzer = Analyzer::new();
    let mut categories = 0usize;
    let mut tables = 0usize;
    for iterations in pooled {
        for unit in UnitId::ALL {
            for timeless in [false, true] {
                let table = analyzer.contingency(iterations, unit, timeless);
                let (assoc, secs) = timed(|| std::hint::black_box(table.association()));
                std::hint::black_box(assoc);
                trace.tally("stats.association_us_per_table", secs, 1.0);
                categories += table.category_count();
                tables += 1;
            }
        }
    }
    if tables > 0 {
        trace.values.insert("stats.categories_per_table", categories as f64 / tables as f64);
    }
}

/// Splits blocking-path spans whose insides only a probe can see: the
/// fold share of `Machine::run` moves from `sim` to `trace`, and the
/// association share of `analyze` moves from `core` to `stats`. Both
/// ran in parallel sections, hence the division by the worker count.
pub(crate) fn split_by_probes(
    trace: &mut Trace,
    ledger: &mut crate::measure::Ledger,
    rows: f64,
    tables: f64,
) {
    let k = default_threads() as f64;
    let fold_s_per_row =
        trace.tallies.get("trace.fold_ns_per_row").map_or(0.0, |t| t.per_unit(1.0));
    let assoc_s =
        trace.tallies.get("stats.association_us_per_table").map_or(0.0, |t| t.per_unit(1.0));
    ledger.reattribute("sim", "trace", rows * fold_s_per_row / k);
    ledger.reattribute("core", "stats", tables * assoc_s / k);
}

/// `sim.tick_self_ns_per_cycle`: the traced runs' time less the fold
/// time their `rows_total` rows cost at the probed rate, per cycle.
pub(crate) fn tick_self(trace: &mut Trace, rows_total: f64) {
    let fold_s_per_row =
        trace.tallies.get("trace.fold_ns_per_row").map_or(0.0, |t| t.per_unit(1.0));
    if let Some(run) = trace.tallies.get("sim.run_ns_per_cycle").copied() {
        if run.units > 0.0 {
            let secs = run.secs - rows_total * fold_s_per_row;
            trace.values.insert("sim.tick_self_ns_per_cycle", secs * 1e9 / run.units);
        }
    }
}
