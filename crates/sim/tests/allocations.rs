//! Heap allocations on the per-cycle path, counted by a global allocator.
//!
//! The core tick reuses its scratch buffers, so a steady loop allocates
//! nothing once warm; a traced run allocates only per-iteration output
//! (each unit's feature set, order and last row), not per sampled row.
//! Logging and parsing keep that budget: the log grows one buffer, and the
//! parser reads every row into one reused buffer.

use microsampler_isa::asm::assemble;
use microsampler_kernels::inputs::random_keys;
use microsampler_kernels::modexp::{cycle_budget, ModexpKernel, ModexpVariant};
use microsampler_sim::{
    parse_text_log, CoreConfig, IterationTrace, Machine, SimError, TraceConfig,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocations (and reallocations) made by the current thread, so
/// parallel tests in this binary do not see each other's.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// a const-initialized thread-local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread, with its result.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// ALU, multiply, load and store traffic around a backward branch; no
/// tracing markers.
const STEADY_LOOP: &str = r#"
    .data
    buf:    .zero 64
    .text
    _start:
        la   s0, buf
        li   t0, 100000
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

#[test]
fn untraced_steady_tick_allocates_nothing() {
    let program = assemble(STEADY_LOOP).expect("loop assembles");
    for config in [CoreConfig::mega_boom(), CoreConfig::small_boom()] {
        let name = config.name;
        let mut m = Machine::new(config, &program);
        // `run` stops at the cycle limit with the machine intact, so a
        // second call continues the same execution.
        let warm = 5_000;
        assert_eq!(m.run(warm).unwrap_err(), SimError::OutOfCycles { limit: warm });
        let (result, allocs) = counted(|| m.run(warm + 20_000));
        assert_eq!(result.unwrap_err(), SimError::OutOfCycles { limit: warm + 20_000 });
        assert_eq!(allocs, 0, "{name}: a warm untraced tick must not allocate");
    }
}

/// A 16-byte ME-V1-CV machine on MegaBoom, ready to run.
fn me_v1_cv_machine() -> Machine {
    let kernel = ModexpKernel::new(ModexpVariant::V1CompilerVuln, 16);
    let key = &random_keys(1, 16, 7)[0];
    kernel.machine(CoreConfig::mega_boom(), key, TraceConfig::default()).expect("kernel assembles")
}

/// Checks `allocs` against the per-sampled-cycle budget of `iterations`.
fn assert_per_cycle_budget(what: &str, allocs: u64, iterations: &[IterationTrace]) {
    let sampled: u64 = iterations.iter().map(|it| it.sampled_cycles()).sum();
    assert!(sampled > 1_000, "{what}: the run must sample its iterations ({sampled} cycles)");
    let per_cycle = allocs as f64 / sampled as f64;
    eprintln!(
        "{what}: {allocs} allocations over {sampled} sampled cycles: {per_cycle:.2} per cycle"
    );
    assert!(per_cycle <= 5.0, "{what}: {per_cycle:.2} allocations per sampled cycle");
}

#[test]
fn traced_run_allocates_per_iteration_not_per_row() {
    let mut m = me_v1_cv_machine();
    let (result, allocs) = counted(|| m.run(cycle_budget(16)));
    assert_per_cycle_budget("traced run", allocs, &result.expect("kernel runs").iterations);
}

#[test]
fn logged_run_allocates_per_iteration_not_per_row() {
    let mut m = me_v1_cv_machine();
    let (result, allocs) = counted(|| {
        m.enable_log();
        m.run(cycle_budget(16))
    });
    assert_per_cycle_budget("logged run", allocs, &result.expect("kernel runs").iterations);
}

#[test]
fn parse_allocates_per_iteration_not_per_row() {
    let mut m = me_v1_cv_machine();
    m.enable_log();
    m.run(cycle_budget(16)).expect("kernel runs");
    let log = m.log_text().expect("log enabled");
    let (parsed, allocs) = counted(|| parse_text_log(log, TraceConfig::default()));
    assert_per_cycle_budget("parse", allocs, &parsed.expect("log parses"));
}
