//! Measurement plumbing shared by the workloads: wall-clock layer spans
//! and their self-time accounting, order statistics, output digests and
//! process memory.

use std::collections::BTreeMap;
use std::time::Instant;

/// Times `f` and returns its result with the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Busy seconds per layer, accumulated by one task or one serial step.
#[derive(Clone, Debug, Default)]
pub struct Spans {
    layers: BTreeMap<&'static str, f64>,
}

impl Spans {
    /// Runs `f`, charging its wall time to `layer`.
    pub fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let (out, secs) = timed(f);
        self.add(layer, secs);
        out
    }

    /// Charges `secs` to `layer`.
    pub fn add(&mut self, layer: &'static str, secs: f64) {
        *self.layers.entry(layer).or_insert(0.0) += secs;
    }

    /// Seconds charged to all layers.
    pub fn total(&self) -> f64 {
        self.layers.values().sum()
    }
}

/// Self-time accounting for one traced pass.
///
/// Serial steps charge their spans directly. A parallel section of wall
/// time `W` on `k` workers charges each layer its busy time divided by
/// `k`, and charges the rest, `W − Σ busy / k`, to `par` (idle workers
/// and scheduling); the section's charges therefore add up to `W`. What
/// no span covers is the benchmark's own glue: `unattributed_s`.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// Self seconds per layer.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Task busy seconds inside parallel sections.
    pub par_busy_s: f64,
    /// Worker-seconds available inside parallel sections (`k × W`).
    pub par_capacity_s: f64,
}

impl Ledger {
    /// Charges a serial step's spans.
    pub fn serial(&mut self, spans: &Spans) {
        for (layer, secs) in &spans.layers {
            *self.self_s.entry(layer).or_insert(0.0) += secs;
        }
    }

    /// Charges a parallel section of wall time `wall` on `workers`
    /// threads whose tasks reported `tasks`.
    pub fn parallel(&mut self, wall: f64, workers: usize, tasks: &[Spans]) {
        let k = workers.max(1) as f64;
        let mut busy = 0.0;
        for task in tasks {
            for (layer, secs) in &task.layers {
                *self.self_s.entry(layer).or_insert(0.0) += secs / k;
            }
            busy += task.total();
        }
        *self.self_s.entry("par").or_insert(0.0) += (wall - busy / k).max(0.0);
        self.par_busy_s += busy;
        self.par_capacity_s += wall * k;
    }

    /// Sum of every layer's self time.
    pub fn attributed(&self) -> f64 {
        self.self_s.values().sum()
    }

    /// Moves `secs` of already-charged self time from one layer to
    /// another (used to split a span whose inside is known from a probe).
    pub fn reattribute(&mut self, from: &'static str, to: &'static str, secs: f64) {
        let moved = secs.min(self.self_s.get(from).copied().unwrap_or(0.0)).max(0.0);
        *self.self_s.entry(from).or_insert(0.0) -= moved;
        *self.self_s.entry(to).or_insert(0.0) += moved;
    }

    /// Task busy time over worker capacity in parallel sections.
    pub fn utilization(&self) -> f64 {
        if self.par_capacity_s > 0.0 {
            self.par_busy_s / self.par_capacity_s
        } else {
            0.0
        }
    }
}

/// A call count and the seconds it took, for per-call layer metrics.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Seconds spent.
    pub secs: f64,
    /// Units of work (calls, cycles, rows, bytes...).
    pub units: f64,
}

impl Tally {
    /// Adds one measurement.
    pub fn add(&mut self, secs: f64, units: f64) {
        self.secs += secs;
        self.units += units;
    }

    /// Seconds per unit scaled by `scale` (1e9 gives ns per unit); 0
    /// when nothing was measured.
    pub fn per_unit(&self, scale: f64) -> f64 {
        if self.units > 0.0 {
            self.secs * scale / self.units
        } else {
            0.0
        }
    }
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `xs`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The tail of a latency sample: the highest whole percentile that
/// leaves at least ten samples above it, with its value. `None` when
/// there are ten samples or fewer.
pub fn tail(xs: &[f64]) -> Option<(u32, f64)> {
    let n = xs.len();
    if n <= 10 {
        return None;
    }
    // The p-th percentile leaves n·(1 − p/100) samples above it.
    let pct = ((1.0 - 10.0 / n as f64) * 100.0).floor() as u32;
    Some((pct, quantile(xs, pct as f64 / 100.0)))
}

/// Running SipHash-2-4 digest over the outputs a workload produces.
pub struct Digest(microsampler_stats::SipHasher);

impl Default for Digest {
    fn default() -> Digest {
        Digest(microsampler_stats::SipHasher::new_2_4(0x7065_7266, 0x6265_6e63))
    }
}

impl Digest {
    /// Feeds a string (length-prefixed, so concatenations differ).
    pub fn str(&mut self, s: &str) {
        self.0.write_u64(s.len() as u64);
        self.0.write(s.as_bytes());
    }

    /// Feeds a number.
    pub fn u64(&mut self, v: u64) {
        self.0.write_u64(v);
    }

    /// Feeds every unit hash of a batch of iterations.
    pub fn iterations(&mut self, iterations: &[microsampler_sim::IterationTrace]) {
        self.u64(iterations.len() as u64);
        for it in iterations {
            self.u64(it.label);
            for u in &it.units {
                self.u64(u.hash);
                self.u64(u.hash_timeless);
            }
        }
    }

    /// Hex rendering of the digest.
    pub fn finish(self) -> String {
        format!("{:016x}", self.0.finish())
    }
}

/// Peak resident set size of process `pid` ("self" for this process)
/// in MiB, from `/proc/<pid>/status`; `None` where that is unreadable.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_like_numpy() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_above() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (pct, _) = tail(&xs).expect("100 samples have a tail");
        assert_eq!(pct, 90);
        assert!(tail(&xs[..10]).is_none());
        let (pct, _) = tail(&xs[..20]).expect("20 samples have a tail");
        assert_eq!(pct, 50);
    }

    #[test]
    fn parallel_sections_charge_their_wall_exactly() {
        let mut a = Spans::default();
        a.add("sim", 0.8);
        let mut b = Spans::default();
        b.add("sim", 0.4);
        b.add("isa", 0.2);
        let mut ledger = Ledger::default();
        ledger.parallel(1.0, 2, &[a, b]);
        assert!((ledger.attributed() - 1.0).abs() < 1e-12);
        assert!((ledger.self_s["par"] - 0.3).abs() < 1e-12);
        assert!((ledger.utilization() - 0.7).abs() < 1e-12);
    }
}
