//! The one batch driver behind every table-style kernel (the Table V
//! primitives, the S-box, `CRYPTO_memcmp`, the seeded-leaky fixtures):
//! assemble, stage memory and input words, run under the cycle budget,
//! drain the warm-up iterations, compare outputs with the reference.

use crate::modexp::ModexpError;
use microsampler_isa::asm::assemble;
use microsampler_sim::{CoreConfig, Machine, RunResult, TraceConfig};

/// One batch of labeled trials, as a kernel stages it.
#[derive(Clone, Debug)]
pub struct Batch {
    /// Byte images written to named `.data` symbols before the run.
    pub memory: Vec<(&'static str, Vec<u8>)>,
    /// Words streamed through the input CSR, in order.
    pub inputs: Vec<u64>,
    /// Output-CSR words the reference model predicts, warm-up trials
    /// included; `None` leaves the batch unchecked.
    pub expected: Option<Vec<u64>>,
    /// Leading iterations dropped from the returned traces.
    pub warmup: usize,
    /// Cycle allowance for the whole batch.
    pub cycle_budget: u64,
}

/// The outcome of one trial batch.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// Simulation result with the labeled iteration traces, warm-up
    /// iterations dropped.
    pub result: RunResult,
    /// Whether every output word matched the reference model (vacuously
    /// true for an unchecked batch).
    pub functional_ok: bool,
}

impl Batch {
    /// Assembles `source` and runs the batch on `config`.
    ///
    /// # Errors
    ///
    /// Propagates assembler and simulator errors.
    pub fn run(
        self,
        source: &str,
        config: CoreConfig,
        trace: TraceConfig,
    ) -> Result<BatchOutcome, ModexpError> {
        let program = assemble(source)?;
        let mut machine = Machine::with_trace_config(config, &program, trace);
        for (symbol, bytes) in &self.memory {
            machine.write_mem(program.symbol_addr(symbol), bytes);
        }
        machine.push_inputs(self.inputs);
        let mut result = machine.run(self.cycle_budget)?;
        result.iterations.drain(..self.warmup);
        let functional_ok = self.expected.is_none_or(|want| machine.take_outputs() == want);
        Ok(BatchOutcome { result, functional_ok })
    }
}
