//! Pipeline activity and stall-cause accounting.
//!
//! [`PipelineStats`] is the profiling counterpart of [`CoreStats`]: where
//! `CoreStats` counts architectural and cache events, `PipelineStats`
//! answers "where do the cycles go" — per-execution-unit occupancy and a
//! stall-cause taxonomy for the front end, dispatch and the LSU. The core
//! updates it unconditionally in the cycle loop (pure integer counters on
//! simulator state, like `CoreStats`), so the numbers are bit-identical at
//! every thread count and invariant to whether the `obs` telemetry layers
//! are enabled.
//!
//! Per-iteration deltas ride on [`IterationTrace`](crate::IterationTrace)
//! (captured at the `ITER_START`/`ITER_END` markers) and the run-level
//! totals on [`RunResult`](crate::RunResult); each modexp experiment's
//! `repro --json` run report carries the sweep's sum under
//! `result.pipeline`.
//!
//! [`CoreStats`]: crate::CoreStats

use microsampler_obs::Value;

/// Commit-drought length (cycles without a commit) at which a
/// [`PipelineStats::watchdog_near_misses`] event is counted — a quarter of
/// the deadlock watchdog's fuse, early enough to flag pipelines that stall
/// hard but recover.
pub const WATCHDOG_NEAR_MISS_CYCLES: u64 = 5_000;

/// Pipeline occupancy and stall-cause counters, accumulated every cycle.
///
/// All fields are monotone counters; subtract snapshots
/// ([`PipelineStats::delta_since`]) for interval figures.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Cycles accounted (equals `CoreStats::cycles` over a full run).
    pub cycles: u64,
    /// Instructions committed (fused fast-bypass ops included).
    pub committed: u64,
    /// ALU issue slots occupied, summed over cycles (≤ `n_alus` per cycle).
    pub alu_busy: u64,
    /// AGU issue slots occupied, summed over cycles (≤ `n_agus` per cycle).
    pub agu_busy: u64,
    /// Cycles the pipelined multiplier had at least one op in flight.
    pub mul_busy: u64,
    /// Cycles the blocking divider was occupied.
    pub div_busy: u64,
    /// Fetch cycles lost to an L1I miss in progress.
    pub icache_stall_cycles: u64,
    /// Cycles rename found the fetch buffer empty (front-end starvation).
    pub fetch_starved_cycles: u64,
    /// Cycles rename stalled with a full ROB.
    pub rob_full_cycles: u64,
    /// Cycles rename stalled on other back-end structures (issue queue,
    /// LDQ/STQ, free physical registers, or a fence draining stores).
    pub dispatch_stall_cycles: u64,
    /// LSU requests bounced by cache structural backpressure (no free
    /// MSHR/LFB: `Access::Retry` on a load start or a store drain).
    pub lsu_retry_events: u64,
    /// Cycles the LSU was frozen by an injected MSHR-stall window or the
    /// permanent wedge (0 without fault injection).
    pub fault_stall_cycles: u64,
    /// Fetch cycles spent in the post-squash redirect bubble.
    pub squash_recovery_cycles: u64,
    /// Commit droughts that reached [`WATCHDOG_NEAR_MISS_CYCLES`] (counted
    /// once per drought; the deadlock watchdog fires at 4× this length).
    pub watchdog_near_misses: u64,
}

/// `(name, count)` pairs for every stall cause, in canonical order.
pub type StallBreakdown = [(&'static str, u64); 8];

impl PipelineStats {
    /// Number of counters in the fixed serialization order
    /// ([`PipelineStats::to_array`]).
    pub const FIELDS: usize = 14;

    /// The counters in a fixed order (the text-log `P` record and the
    /// JSON schema use this order's names).
    pub fn to_array(&self) -> [u64; Self::FIELDS] {
        [
            self.cycles,
            self.committed,
            self.alu_busy,
            self.agu_busy,
            self.mul_busy,
            self.div_busy,
            self.icache_stall_cycles,
            self.fetch_starved_cycles,
            self.rob_full_cycles,
            self.dispatch_stall_cycles,
            self.lsu_retry_events,
            self.fault_stall_cycles,
            self.squash_recovery_cycles,
            self.watchdog_near_misses,
        ]
    }

    /// Rebuilds the struct from [`PipelineStats::to_array`] order.
    pub fn from_array(a: [u64; Self::FIELDS]) -> PipelineStats {
        PipelineStats {
            cycles: a[0],
            committed: a[1],
            alu_busy: a[2],
            agu_busy: a[3],
            mul_busy: a[4],
            div_busy: a[5],
            icache_stall_cycles: a[6],
            fetch_starved_cycles: a[7],
            rob_full_cycles: a[8],
            dispatch_stall_cycles: a[9],
            lsu_retry_events: a[10],
            fault_stall_cycles: a[11],
            squash_recovery_cycles: a[12],
            watchdog_near_misses: a[13],
        }
    }

    /// Field names matching [`PipelineStats::to_array`] positions.
    pub const FIELD_NAMES: [&'static str; Self::FIELDS] = [
        "cycles",
        "committed",
        "alu_busy",
        "agu_busy",
        "mul_busy",
        "div_busy",
        "icache_stall_cycles",
        "fetch_starved_cycles",
        "rob_full_cycles",
        "dispatch_stall_cycles",
        "lsu_retry_events",
        "fault_stall_cycles",
        "squash_recovery_cycles",
        "watchdog_near_misses",
    ];

    /// Instructions per cycle over the accounted interval.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Adds another interval's counters into this one.
    pub fn add(&mut self, other: &PipelineStats) {
        let mut a = self.to_array();
        for (acc, v) in a.iter_mut().zip(other.to_array()) {
            *acc += v;
        }
        *self = PipelineStats::from_array(a);
    }

    /// Counter deltas since `base` (a snapshot taken earlier in the same
    /// run; every field must be ≥ its `base` value).
    pub fn delta_since(&self, base: &PipelineStats) -> PipelineStats {
        let mut a = self.to_array();
        for (v, b) in a.iter_mut().zip(base.to_array()) {
            *v -= b;
        }
        PipelineStats::from_array(a)
    }

    /// Every stall cause with its count, in canonical order.
    pub fn stall_breakdown(&self) -> StallBreakdown {
        [
            ("icache-stall", self.icache_stall_cycles),
            ("fetch-starvation", self.fetch_starved_cycles),
            ("rob-full", self.rob_full_cycles),
            ("dispatch-backpressure", self.dispatch_stall_cycles),
            ("lsu-retry", self.lsu_retry_events),
            ("fault-stall", self.fault_stall_cycles),
            ("squash-recovery", self.squash_recovery_cycles),
            ("watchdog-near-miss", self.watchdog_near_misses),
        ]
    }

    /// The stall cause with the highest count, or `None` when nothing
    /// stalled. Ties resolve to the first cause in canonical order, so the
    /// answer is deterministic.
    pub fn dominant_stall(&self) -> Option<(&'static str, u64)> {
        self.stall_breakdown().into_iter().filter(|&(_, n)| n > 0).max_by(
            // max_by keeps the *last* maximum; invert ties toward the first.
            |a, b| match a.1.cmp(&b.1) {
                std::cmp::Ordering::Equal => std::cmp::Ordering::Greater,
                other => other,
            },
        )
    }

    /// Stable-schema JSON object: one field per counter
    /// ([`PipelineStats::FIELD_NAMES`]) plus derived `ipc`.
    pub fn to_json(&self) -> Value {
        let mut obj = Value::object();
        for (name, v) in Self::FIELD_NAMES.iter().zip(self.to_array()) {
            obj = obj.field(name, v);
        }
        obj.field("ipc", self.ipc()).build()
    }

    /// Rebuilds counters from [`PipelineStats::to_json`] output (missing
    /// fields read as 0, so journals written before profiling existed
    /// still load).
    pub fn from_json(v: &Value) -> PipelineStats {
        let mut a = [0u64; Self::FIELDS];
        for (slot, name) in a.iter_mut().zip(Self::FIELD_NAMES) {
            *slot = v.get(name).and_then(Value::as_u64).unwrap_or(0);
        }
        PipelineStats::from_array(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PipelineStats {
        PipelineStats {
            cycles: 100,
            committed: 150,
            alu_busy: 120,
            agu_busy: 40,
            mul_busy: 30,
            div_busy: 16,
            icache_stall_cycles: 5,
            fetch_starved_cycles: 9,
            rob_full_cycles: 2,
            dispatch_stall_cycles: 7,
            lsu_retry_events: 1,
            fault_stall_cycles: 0,
            squash_recovery_cycles: 4,
            watchdog_near_misses: 0,
        }
    }

    #[test]
    fn array_round_trip_covers_every_field() {
        let s = sample();
        assert_eq!(PipelineStats::from_array(s.to_array()), s);
        assert_eq!(PipelineStats::FIELD_NAMES.len(), PipelineStats::FIELDS);
    }

    #[test]
    fn ipc() {
        let s = sample();
        assert!((s.ipc() - 1.5).abs() < 1e-12);
        assert_eq!(PipelineStats::default().ipc(), 0.0);
    }

    #[test]
    fn delta_and_add_are_inverses() {
        let base = sample();
        let mut later = sample();
        later.add(&sample());
        assert_eq!(later.delta_since(&base), base);
    }

    #[test]
    fn dominant_stall_picks_the_largest_and_breaks_ties_first() {
        let s = sample();
        assert_eq!(s.dominant_stall(), Some(("fetch-starvation", 9)));
        assert_eq!(PipelineStats::default().dominant_stall(), None);
        let tied = PipelineStats {
            icache_stall_cycles: 3,
            squash_recovery_cycles: 3,
            ..PipelineStats::default()
        };
        assert_eq!(tied.dominant_stall(), Some(("icache-stall", 3)));
    }

    #[test]
    fn json_round_trip_and_missing_fields_default() {
        let s = sample();
        let v = s.to_json();
        assert_eq!(PipelineStats::from_json(&v), s);
        assert!((v.get("ipc").unwrap().as_f64().unwrap() - 1.5).abs() < 1e-12);
        // An empty object (pre-profiling journal record) reads as zeros.
        assert_eq!(PipelineStats::from_json(&Value::object().build()), PipelineStats::default());
    }
}
