//! Cycle-granularity microarchitectural tracing (paper §V-A/§V-B).
//!
//! Each simulated cycle inside an active security-critical region, the core
//! reports one row of values per tracked unit (Table IV). Rows are folded
//! into per-iteration summaries:
//!
//! * a streaming **snapshot hash** over the full 2-D matrix (rows × cycles),
//! * a **timeless hash** with consecutive duplicate rows consolidated
//!   (the timing-removal transform of Fig. 9),
//! * the **feature set** (distinct non-zero values) for uniqueness analysis,
//! * the **feature order** (first-occurrence sequence) for ordering analysis,
//! * optionally the **raw matrix** (for small runs, figures and tests).
//!
//! A text-log path ([`Tracer::enable_log`] / [`parse_text_log`]) mirrors the
//! paper's simulator-log-then-parse pipeline and is checked in tests to
//! produce byte-identical summaries.

use crate::fault::{FaultConfig, FaultPlan};
use crate::pipeline::PipelineStats;
use microsampler_stats::SipHasher;
use std::collections::BTreeSet;
use std::fmt;

/// Identifier of a tracked microarchitectural unit (paper Table IV).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum UnitId {
    /// Store queue destination addresses.
    SqAddr,
    /// Store queue program counters.
    SqPc,
    /// Load queue addresses.
    LqAddr,
    /// Load queue program counters.
    LqPc,
    /// ROB occupancy (single column).
    RobOccupancy,
    /// ROB program counters (includes wrong-path entries until squash).
    RobPc,
    /// Line-fill buffer content digests.
    LfbData,
    /// Line-fill buffer addresses.
    LfbAddr,
    /// ALU busy-with-PC.
    EuuAlu,
    /// Address-generation unit busy-with-PC.
    EuuAddrGen,
    /// Divider busy-with-PC.
    EuuDiv,
    /// Multiplier busy-with-PC.
    EuuMul,
    /// Next-line prefetcher addresses issued.
    NlpAddr,
    /// D-cache request addresses issued.
    CacheAddr,
    /// TLB resident entries.
    TlbAddr,
    /// MSHR outstanding miss addresses.
    MshrAddr,
}

impl UnitId {
    /// All sixteen units, in canonical order.
    pub const ALL: [UnitId; 16] = [
        UnitId::SqAddr,
        UnitId::SqPc,
        UnitId::LqAddr,
        UnitId::LqPc,
        UnitId::RobOccupancy,
        UnitId::RobPc,
        UnitId::LfbData,
        UnitId::LfbAddr,
        UnitId::EuuAlu,
        UnitId::EuuAddrGen,
        UnitId::EuuDiv,
        UnitId::EuuMul,
        UnitId::NlpAddr,
        UnitId::CacheAddr,
        UnitId::TlbAddr,
        UnitId::MshrAddr,
    ];

    /// Number of tracked units.
    pub const COUNT: usize = 16;

    /// Canonical index, `0..16` (the declaration order, which `ALL` follows).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Paper feature ID, e.g. `"SQ-ADDR"`.
    pub fn name(self) -> &'static str {
        match self {
            UnitId::SqAddr => "SQ-ADDR",
            UnitId::SqPc => "SQ-PC",
            UnitId::LqAddr => "LQ-ADDR",
            UnitId::LqPc => "LQ-PC",
            UnitId::RobOccupancy => "ROB-OCPNCY",
            UnitId::RobPc => "ROB-PC",
            UnitId::LfbData => "LFB-Data",
            UnitId::LfbAddr => "LFB-ADDR",
            UnitId::EuuAlu => "EUU-ALU",
            UnitId::EuuAddrGen => "EUU-ADDRGEN",
            UnitId::EuuDiv => "EUU-DIV",
            UnitId::EuuMul => "EUU-MUL",
            UnitId::NlpAddr => "NLP-ADDR",
            UnitId::CacheAddr => "Cache-ADDR",
            UnitId::TlbAddr => "TLB-ADDR",
            UnitId::MshrAddr => "MSHR-ADDR",
        }
    }

    /// Parses a paper feature ID.
    pub fn from_name(name: &str) -> Option<UnitId> {
        UnitId::ALL.iter().copied().find(|u| u.name() == name)
    }
}

impl fmt::Display for UnitId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// SipHash key of the snapshot hashers.
const HASH_KEY: (u64, u64) = (0x4d53_4d50, 0x4c52_5f31);

/// A fresh snapshot hasher: SipHash-1-3 (CPython's default) under
/// [`HASH_KEY`].
fn snapshot_hasher() -> SipHasher {
    SipHasher::new_1_3(HASH_KEY.0, HASH_KEY.1)
}

/// Tracer configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceConfig {
    /// Retain raw per-cycle matrices in each [`UnitTrace`] (memory-hungry;
    /// intended for small runs, figures and tests).
    pub keep_matrices: bool,
    /// Measurement-fault injection: when set, the tracer drops whole
    /// snapshot cycles ([`FaultConfig::drop_row_per_64k`]) and flips
    /// snapshot bits ([`FaultConfig::bitflip_per_64k`]) on a
    /// seed-deterministic schedule. Parse a faulted log back with
    /// `faults: None` — drops are replayed from `D` records and flips
    /// are already baked into the logged values.
    pub faults: Option<FaultConfig>,
}

/// Per-iteration summary of one unit's snapshot (see module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnitTrace {
    /// Snapshot hash over the full matrix.
    pub hash: u64,
    /// Snapshot hash with consecutive duplicate rows consolidated.
    pub hash_timeless: u64,
    /// Distinct non-zero values observed.
    pub features: BTreeSet<u64>,
    /// Values in first-occurrence order.
    pub order: Vec<u64>,
    /// Raw matrix (`rows[cycle][entry]`), kept only when
    /// [`TraceConfig::keep_matrices`] is set.
    pub rows: Option<Vec<Vec<u64>>>,
    /// Number of sampled cycles.
    pub cycle_rows: u64,
}

/// Everything sampled for one algorithmic iteration, labeled with its
/// secret class.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IterationTrace {
    /// Secret-class label written by the `ITER_START` marker.
    pub label: u64,
    /// First sampled cycle.
    pub start_cycle: u64,
    /// Last sampled cycle.
    pub end_cycle: u64,
    /// Snapshot cycles lost to injected capture faults (0 in clean runs).
    pub dropped_cycles: u64,
    /// Pipeline profiling deltas over this iteration (set by the core via
    /// [`Tracer::set_pipeline`]; all-zero for hand-driven tracers and logs
    /// without `P` records).
    pub pipeline: PipelineStats,
    /// Per-unit summaries, indexed by [`UnitId::index`].
    pub units: Vec<UnitTrace>,
}

impl IterationTrace {
    /// Iteration length in cycles.
    pub fn cycles(&self) -> u64 {
        self.end_cycle.saturating_sub(self.start_cycle) + 1
    }

    /// Snapshot cycles actually captured (every unit samples once per
    /// captured cycle, so the first unit's row count is the figure).
    pub fn sampled_cycles(&self) -> u64 {
        self.units.first().map_or(0, |u| u.cycle_rows)
    }

    /// The summary for one unit.
    pub fn unit(&self, unit: UnitId) -> &UnitTrace {
        &self.units[unit.index()]
    }
}

/// Insert-only set of non-zero words: open addressing with linear probing,
/// a multiplicative hash, and `0` (never a feature) marking empty slots.
#[derive(Default)]
struct SeenSet {
    slots: Vec<u64>,
    len: usize,
}

impl SeenSet {
    /// Adds non-zero `v`; true when it was not yet present.
    #[inline]
    fn insert(&mut self, v: u64) -> bool {
        debug_assert_ne!(v, 0);
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = (v.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & mask;
        while self.slots[i] != 0 {
            if self.slots[i] == v {
                return false;
            }
            i = (i + 1) & mask;
        }
        self.slots[i] = v;
        self.len += 1;
        true
    }

    #[cold]
    fn grow(&mut self) {
        let size = (2 * self.slots.len()).max(16);
        let old = std::mem::replace(&mut self.slots, vec![0; size]);
        self.len = 0;
        for v in old.into_iter().filter(|&v| v != 0) {
            self.insert(v);
        }
    }
}

struct UnitBuilder {
    hasher: SipHasher,
    timeless_hasher: SipHasher,
    last_row: Option<Vec<u64>>,
    /// Dedup index over `order`; the public `BTreeSet` is built from
    /// `order` once, in [`UnitBuilder::finish`].
    seen: SeenSet,
    order: Vec<u64>,
    rows: Option<Vec<Vec<u64>>>,
    cycle_rows: u64,
}

impl UnitBuilder {
    fn new(keep_matrices: bool) -> UnitBuilder {
        UnitBuilder {
            hasher: snapshot_hasher(),
            timeless_hasher: snapshot_hasher(),
            last_row: None,
            seen: SeenSet::default(),
            order: Vec::new(),
            rows: keep_matrices.then(Vec::new),
            cycle_rows: 0,
        }
    }

    /// Folds one row into the hash/feature accumulators; returns the
    /// number of bytes fed to the hashers.
    fn fold_row(&mut self, row: &[u64]) -> u64 {
        self.cycle_rows += 1;
        let row_bytes = 8 * (row.len() as u64 + 1);
        let mut hashed = row_bytes;
        self.hasher.write_u64(row.len() as u64);
        self.hasher.write_u64s(row);
        // An unchanged row is consolidated away by the timeless hasher, and
        // its values entered the feature set when the content first
        // appeared.
        if self.last_row.as_deref() != Some(row) {
            self.timeless_hasher.write_u64(row.len() as u64);
            self.timeless_hasher.write_u64s(row);
            for &v in row {
                if v != 0 && self.seen.insert(v) {
                    self.order.push(v);
                }
            }
            let last = self.last_row.get_or_insert_with(Vec::new);
            last.clear();
            last.extend_from_slice(row);
            hashed += row_bytes;
        }
        if let Some(rows) = &mut self.rows {
            rows.push(row.to_vec());
        }
        hashed
    }

    fn finish(self) -> UnitTrace {
        UnitTrace {
            hash: self.hasher.finish(),
            hash_timeless: self.timeless_hasher.finish(),
            features: self.order.iter().copied().collect(),
            order: self.order,
            rows: self.rows,
            cycle_rows: self.cycle_rows,
        }
    }
}

/// An iteration being sampled.
struct OpenIteration {
    label: u64,
    start_cycle: u64,
    last_cycle: u64,
    dropped: u64,
    /// Pipeline deltas staged by [`Tracer::set_pipeline`].
    pipeline: PipelineStats,
    units: Vec<UnitBuilder>,
}

impl OpenIteration {
    fn finish(self) -> IterationTrace {
        IterationTrace {
            label: self.label,
            start_cycle: self.start_cycle,
            end_cycle: self.last_cycle,
            dropped_cycles: self.dropped,
            pipeline: self.pipeline,
            units: self.units.into_iter().map(UnitBuilder::finish).collect(),
        }
    }
}

/// Collects per-cycle unit rows into labeled [`IterationTrace`]s,
/// optionally also emitting the text log format. Each row is folded into
/// its unit's hashers as it arrives.
pub struct Tracer {
    cfg: TraceConfig,
    in_scr: bool,
    current: Option<OpenIteration>,
    /// Completed iterations in commit order.
    pub iterations: Vec<IterationTrace>,
    /// Unit rows sampled so far (telemetry volume counter).
    pub rows_sampled: u64,
    /// Bytes fed to the snapshot hashers so far (full + timeless).
    pub hash_bytes: u64,
    /// Matrix cells retained so far (nonzero only with
    /// [`TraceConfig::keep_matrices`]).
    pub matrix_cells: u64,
    /// Snapshot cycles dropped by injected capture faults so far.
    pub dropped_cycles: u64,
    /// Snapshot bits flipped by injected capture faults so far.
    pub bit_flips: u64,
    /// Derived from [`TraceConfig::faults`]; `None` means no injection.
    fault_plan: Option<FaultPlan>,
    /// The cycle begun by [`Tracer::begin_cycle`] is a dropped capture:
    /// its `record_row` calls are suppressed.
    drop_this_cycle: bool,
    /// Guards double-counting a drop when the same cycle is begun twice
    /// (the parser replays one `D` record per lost cycle).
    counted_drop_for: Option<u64>,
    /// The text log, ASCII by construction.
    log: Option<Vec<u8>>,
}

impl Tracer {
    /// Creates a tracer.
    pub fn new(cfg: TraceConfig) -> Tracer {
        Tracer {
            cfg,
            in_scr: false,
            current: None,
            iterations: Vec::new(),
            rows_sampled: 0,
            hash_bytes: 0,
            matrix_cells: 0,
            dropped_cycles: 0,
            bit_flips: 0,
            fault_plan: cfg.faults.map(FaultPlan::new),
            drop_this_cycle: false,
            counted_drop_for: None,
            log: None,
        }
    }

    /// Starts accumulating the text log (paper's simulator-log pipeline).
    pub fn enable_log(&mut self) {
        self.log = Some(b"# MicroSampler trace log v1\n".to_vec());
    }

    /// The accumulated text log, if enabled.
    pub fn log_text(&self) -> Option<&str> {
        let log = self.log.as_deref()?;
        Some(std::str::from_utf8(log).expect("the text log is written in ASCII"))
    }

    /// Appends one marker line, `M <kind> <cycle>` and `args`, to the log.
    fn log_marker(&mut self, kind: &str, cycle: u64, args: &[u64]) {
        if let Some(log) = &mut self.log {
            log.extend_from_slice(b"M ");
            log.extend_from_slice(kind.as_bytes());
            for &v in std::iter::once(&cycle).chain(args) {
                push_dec(log, v);
            }
            log.push(b'\n');
        }
    }

    /// Whether sampling should run this cycle.
    pub fn active(&self) -> bool {
        self.in_scr && self.current.is_some()
    }

    /// Handles an `SCR_START` marker commit.
    pub fn scr_start(&mut self, cycle: u64) {
        self.in_scr = true;
        self.log_marker("SCR_START", cycle, &[]);
    }

    /// Handles an `SCR_END` marker commit.
    pub fn scr_end(&mut self, cycle: u64) {
        self.in_scr = false;
        self.log_marker("SCR_END", cycle, &[]);
    }

    /// Handles an `ITER_START` marker commit. An unterminated previous
    /// iteration is ended first.
    pub fn iter_start(&mut self, cycle: u64, label: u64) {
        self.iter_end(cycle);
        self.current = Some(OpenIteration {
            label,
            start_cycle: cycle,
            last_cycle: cycle,
            dropped: 0,
            pipeline: PipelineStats::default(),
            units: (0..UnitId::COUNT).map(|_| UnitBuilder::new(self.cfg.keep_matrices)).collect(),
        });
        self.log_marker("ITER_START", cycle, &[label]);
    }

    /// Stages the pipeline profiling deltas for the open iteration (the
    /// core calls this right before the closing marker commit). No-op when
    /// no iteration is open, so stray marker sequences leave no residue.
    pub fn set_pipeline(&mut self, pipeline: PipelineStats) {
        let Some(cur) = &mut self.current else { return };
        cur.pipeline = pipeline;
        if let Some(log) = &mut self.log {
            log.push(b'P');
            for v in pipeline.to_array() {
                push_dec(log, v);
            }
            log.push(b'\n');
        }
    }

    /// Handles an `ITER_END` marker commit.
    pub fn iter_end(&mut self, cycle: u64) {
        if let Some(cur) = self.current.take() {
            self.iterations.push(cur.finish());
            self.log_marker("ITER_END", cycle, &[]);
        }
    }

    /// Records one unit's row for the current cycle. Call exactly once per
    /// unit per active cycle, after [`Tracer::begin_cycle`]. With fault
    /// injection configured, the row may be bit-flipped before folding
    /// (post-flip values are also what the text log records), and rows of
    /// a dropped cycle are discarded wholesale.
    pub fn record_row(&mut self, unit: UnitId, row: &[u64]) {
        if self.current.is_none() || self.drop_this_cycle {
            return;
        }
        let flipped = self.flip_row(unit, row);
        let row: &[u64] = flipped.as_deref().unwrap_or(row);
        let cur = self.current.as_mut().expect("checked above");
        self.rows_sampled += 1;
        self.hash_bytes += cur.units[unit.index()].fold_row(row);
        if self.cfg.keep_matrices {
            self.matrix_cells += row.len() as u64;
        }
        if let Some(log) = &mut self.log {
            log.push(b'C');
            push_dec(log, cur.last_cycle);
            log.push(b' ');
            log.extend_from_slice(unit.name().as_bytes());
            for &v in row {
                push_hex(log, v);
            }
            log.push(b'\n');
        }
    }

    /// Applies the fault plan's bit-flip for `(current cycle, unit)`, if
    /// one fires: returns the perturbed copy of `row`.
    fn flip_row(&mut self, unit: UnitId, row: &[u64]) -> Option<Vec<u64>> {
        let plan = self.fault_plan.as_ref()?;
        let cycle = self.current.as_ref()?.last_cycle;
        let salt = plan.bitflip_at(cycle, unit.index())?;
        if row.is_empty() {
            return None;
        }
        let mut out = row.to_vec();
        let bit = salt % (out.len() as u64 * 64);
        out[(bit / 64) as usize] ^= 1 << (bit % 64);
        self.bit_flips += 1;
        Some(out)
    }

    /// Marks the cycle being sampled (call before the `record_row` batch).
    /// With fault injection configured this is also where the plan decides
    /// whether the cycle's capture is dropped.
    pub fn begin_cycle(&mut self, cycle: u64) {
        self.drop_this_cycle = false;
        if let Some(cur) = &mut self.current {
            cur.last_cycle = cycle;
        }
        if self.current.is_some()
            && self.fault_plan.as_ref().is_some_and(|p| p.drop_cycle_at(cycle))
        {
            self.drop_cycle(cycle);
        }
    }

    /// Records a lost snapshot capture for `cycle`: the cycle cursor still
    /// advances, but the cycle's `record_row` calls are suppressed and the
    /// loss is counted (and logged as a `D` record, so faulted text logs
    /// round-trip). Invoked by the fault plan on the live path and by
    /// [`parse_text_log`] when replaying `D` records.
    pub fn drop_cycle(&mut self, cycle: u64) {
        if self.current.is_none() {
            return;
        }
        self.drop_this_cycle = true;
        let first = self.counted_drop_for != Some(cycle);
        if let Some(cur) = &mut self.current {
            cur.last_cycle = cycle;
            if first {
                cur.dropped += 1;
            }
        }
        if first {
            self.counted_drop_for = Some(cycle);
            self.dropped_cycles += 1;
            if let Some(log) = &mut self.log {
                log.push(b'D');
                push_dec(log, cycle);
                log.push(b'\n');
            }
        }
    }
}

/// Appends ` {v:x}` (a space, then `v` in lower-case hex) to `out`.
#[inline]
fn push_hex(out: &mut Vec<u8>, v: u64) {
    if v == 0 {
        out.extend_from_slice(b" 0");
        return;
    }
    let digits = (67 - v.leading_zeros() as usize) / 4;
    let mut buf = [b' '; 17];
    for (i, d) in buf[1..=digits].iter_mut().rev().enumerate() {
        *d = b"0123456789abcdef"[(v >> (4 * i)) as usize & 0xf];
    }
    out.extend_from_slice(&buf[..=digits]);
}

/// Appends ` {v}` (a space, then `v` in decimal) to `out`.
#[inline]
fn push_dec(out: &mut Vec<u8>, mut v: u64) {
    let mut buf = [b' '; 21];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[i - 1..]);
}

/// Errors from [`parse_text_log`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseLogError {
    /// 1-based line number.
    pub line: u32,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseLogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace log line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseLogError {}

/// Parses a text trace log back into [`IterationTrace`]s (the MicroSampler
/// Parser of paper step ②). Produces summaries identical to the ones the
/// live [`Tracer`] builds.
///
/// # Errors
///
/// Returns [`ParseLogError`] on malformed lines.
pub fn parse_text_log(text: &str, cfg: TraceConfig) -> Result<Vec<IterationTrace>, ParseLogError> {
    let _span = microsampler_obs::span::span("parse");
    let mut tracer = Tracer::new(cfg);
    let mut row = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let lno = idx as u32 + 1;
        let err = |m: String| ParseLogError { line: lno, message: m };
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("M") => {
                let kind = parts.next().ok_or_else(|| err("missing marker kind".into()))?;
                let cycle: u64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err("missing marker cycle".into()))?;
                match kind {
                    "SCR_START" => tracer.scr_start(cycle),
                    "SCR_END" => tracer.scr_end(cycle),
                    "ITER_START" => {
                        let label: u64 = parts
                            .next()
                            .and_then(|s| s.parse().ok())
                            .ok_or_else(|| err("missing iteration label".into()))?;
                        tracer.iter_start(cycle, label);
                    }
                    "ITER_END" => tracer.iter_end(cycle),
                    other => return Err(err(format!("unknown marker `{other}`"))),
                }
            }
            Some("C") => {
                // The line is trimmed and its first token is `C`.
                let mut rest = &line[1..];
                let cycle: u64 = next_token(&mut rest)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err("missing cycle".into()))?;
                let unit_name = next_token(&mut rest).ok_or_else(|| err("missing unit".into()))?;
                let unit = UnitId::from_name(unit_name)
                    .ok_or_else(|| err(format!("unknown unit `{unit_name}`")))?;
                read_hex_row(rest, &mut row).map_err(|tok| err(format!("bad value `{tok}`")))?;
                tracer.begin_cycle(cycle);
                tracer.record_row(unit, &row);
            }
            Some("D") => {
                let cycle: u64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err("missing dropped cycle".into()))?;
                tracer.drop_cycle(cycle);
            }
            Some("P") => {
                let mut vals = [0u64; PipelineStats::FIELDS];
                for slot in vals.iter_mut() {
                    *slot = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err("bad pipeline record".into()))?;
                }
                if parts.next().is_some() {
                    return Err(err("trailing pipeline values".into()));
                }
                tracer.set_pipeline(PipelineStats::from_array(vals));
            }
            Some(other) => return Err(err(format!("unknown record `{other}`"))),
            None => {}
        }
    }
    // An unterminated trailing iteration (truncated log) is dropped, like
    // the live tracer drops an iteration whose ITER_END never commits.
    Ok(tracer.iterations)
}

/// Splits the first whitespace-separated token off `s`, as
/// `str::split_whitespace` would yield it.
fn next_token<'a>(s: &mut &'a str) -> Option<&'a str> {
    let t = s.trim_start();
    let (tok, rest) = t.split_at(t.find(char::is_whitespace).unwrap_or(t.len()));
    *s = rest;
    (!tok.is_empty()).then_some(tok)
}

/// [`HEX_CLASS`] of the ASCII bytes `char::is_whitespace` accepts.
const SPACE: u8 = 0x10;
/// [`HEX_CLASS`] of every byte that is neither a hex digit nor [`SPACE`].
const OTHER: u8 = 0x11;

/// Each byte's hex-digit value, or [`SPACE`] or [`OTHER`].
static HEX_CLASS: [u8; 256] = {
    let mut class = [OTHER; 256];
    let mut b = 0;
    while b < 256 {
        class[b] = match b as u8 {
            c @ b'0'..=b'9' => c - b'0',
            c @ b'a'..=b'f' => c - b'a' + 10,
            c @ b'A'..=b'F' => c - b'A' + 10,
            b' ' | b'\t' | b'\n' | 0x0b | 0x0c | b'\r' => SPACE,
            _ => OTHER,
        };
        b += 1;
    }
    class
};

/// Byte length of the non-ASCII whitespace character at byte `i` of `s`
/// (a char boundary), or 0 when there is none.
fn unicode_space_len(s: &str, i: usize) -> usize {
    if s.as_bytes()[i].is_ascii() {
        return 0;
    }
    s[i..].chars().next().filter(|c| c.is_whitespace()).map_or(0, char::len_utf8)
}

/// Reads the whitespace-separated hex values of `s` into `row` in one
/// scan, accepting exactly the `str::split_whitespace` tokens that
/// `u64::from_str_radix(token, 16)` accepts. On failure returns the
/// first token it rejects.
fn read_hex_row<'a>(s: &'a str, row: &mut Vec<u64>) -> Result<(), &'a str> {
    row.clear();
    let b = s.as_bytes();
    let class = |i: usize| HEX_CLASS[usize::from(b[i])];
    let mut i = 0;
    loop {
        while i < b.len() && class(i) == SPACE {
            i += 1;
        }
        if i == b.len() {
            return Ok(());
        }
        let space = unicode_space_len(s, i);
        if space > 0 {
            i += space;
            continue;
        }
        let start = i;
        i += usize::from(b[i] == b'+');
        let digits = i;
        let (mut v, mut overflow) = (0u64, false);
        while i < b.len() && class(i) < SPACE {
            overflow |= v >> 60 != 0;
            v = v << 4 | u64::from(class(i));
            i += 1;
        }
        let ended = i == b.len() || class(i) == SPACE || unicode_space_len(s, i) > 0;
        if i == digits || overflow || !ended {
            let tok = &s[start..];
            return Err(&tok[..tok.find(char::is_whitespace).unwrap_or(tok.len())]);
        }
        row.push(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microsampler_kernels::inputs::random_keys;
    use microsampler_kernels::modexp::{cycle_budget, ModexpKernel, ModexpVariant};

    fn sample_tracer(keep: bool) -> Tracer {
        let mut t = Tracer::new(TraceConfig { keep_matrices: keep, ..TraceConfig::default() });
        t.enable_log();
        t.scr_start(10);
        t.iter_start(10, 1);
        t.begin_cycle(11);
        t.record_row(UnitId::SqAddr, &[0x100, 0, 0]);
        t.record_row(UnitId::RobOccupancy, &[3]);
        t.begin_cycle(12);
        t.record_row(UnitId::SqAddr, &[0x100, 0, 0]);
        t.record_row(UnitId::RobOccupancy, &[4]);
        t.begin_cycle(13);
        t.record_row(UnitId::SqAddr, &[0x100, 0x200, 0]);
        t.record_row(UnitId::RobOccupancy, &[4]);
        t.set_pipeline(PipelineStats { cycles: 4, committed: 6, ..PipelineStats::default() });
        t.iter_end(14);
        t.scr_end(14);
        t
    }

    #[test]
    fn unit_names_roundtrip() {
        for (i, u) in UnitId::ALL.into_iter().enumerate() {
            assert_eq!(UnitId::from_name(u.name()), Some(u));
            assert_eq!(u.index(), i, "{u} is at position {i} of ALL");
        }
        assert_eq!(UnitId::from_name("BOGUS"), None);
        assert_eq!(UnitId::ALL.len(), UnitId::COUNT);
    }

    #[test]
    fn features_and_order_collected() {
        let t = sample_tracer(false);
        let iter = &t.iterations[0];
        let sq = iter.unit(UnitId::SqAddr);
        assert_eq!(sq.features.iter().copied().collect::<Vec<_>>(), vec![0x100, 0x200]);
        assert_eq!(sq.order, vec![0x100, 0x200]);
        assert_eq!(sq.cycle_rows, 3);
        assert_eq!(iter.cycles(), 13 - 10 + 1);
        assert_eq!(iter.label, 1);
    }

    #[test]
    fn timeless_hash_collapses_duplicates() {
        let t = sample_tracer(false);
        let sq = t.iterations[0].unit(UnitId::SqAddr);
        // Rows: A A B → timeless = A B; full = A A B. Hashes differ.
        assert_ne!(sq.hash, sq.hash_timeless);
        // ROB occupancy rows 3 4 4 → timeless 3 4.
        let rob = t.iterations[0].unit(UnitId::RobOccupancy);
        assert_ne!(rob.hash, rob.hash_timeless);
    }

    #[test]
    fn identical_matrices_hash_equal() {
        let t1 = sample_tracer(false);
        let t2 = sample_tracer(false);
        assert_eq!(
            t1.iterations[0].unit(UnitId::SqAddr).hash,
            t2.iterations[0].unit(UnitId::SqAddr).hash
        );
    }

    #[test]
    fn matrices_kept_when_requested() {
        let t = sample_tracer(true);
        let rows = t.iterations[0].unit(UnitId::SqAddr).rows.as_ref().unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2], vec![0x100, 0x200, 0]);
        let t2 = sample_tracer(false);
        assert!(t2.iterations[0].unit(UnitId::SqAddr).rows.is_none());
    }

    #[test]
    fn log_parses_back_to_identical_summaries() {
        let t = sample_tracer(false);
        let parsed = parse_text_log(t.log_text().unwrap(), TraceConfig::default()).unwrap();
        assert_eq!(parsed, t.iterations);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_text_log("X what\n", TraceConfig::default()).is_err());
        assert!(parse_text_log("C 5 NOT-A-UNIT 1 2\n", TraceConfig::default()).is_err());
        assert!(parse_text_log("M WHAT 5\n", TraceConfig::default()).is_err());
        let e = parse_text_log("# ok\nM ITER_START nope\n", TraceConfig::default()).unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn unterminated_iteration_flushed_by_next_start() {
        let mut t = Tracer::new(TraceConfig::default());
        t.scr_start(0);
        t.iter_start(1, 7);
        t.begin_cycle(2);
        t.record_row(UnitId::SqAddr, &[1]);
        t.iter_start(3, 8); // implicitly ends iteration 7
        t.iter_end(4);
        assert_eq!(t.iterations.len(), 2);
        assert_eq!(t.iterations[0].label, 7);
        assert_eq!(t.iterations[1].label, 8);
    }

    #[test]
    fn rows_of_different_widths_hash_differently() {
        let mut a = UnitBuilder::new(false);
        a.fold_row(&[1, 0]);
        a.fold_row(&[2, 0]);
        let mut b = UnitBuilder::new(false);
        b.fold_row(&[1, 0, 2, 0]);
        assert_ne!(a.finish().hash, b.finish().hash);
    }

    fn drive_faulted(faults: Option<FaultConfig>) -> Tracer {
        let mut t = Tracer::new(TraceConfig { faults, ..TraceConfig::default() });
        t.enable_log();
        t.scr_start(0);
        for i in 0..2u64 {
            t.iter_start(i * 100, i);
            for c in 0..24u64 {
                t.begin_cycle(i * 100 + 1 + c);
                t.record_row(UnitId::SqAddr, &[0x100 + c, 0x200]);
                t.record_row(UnitId::RobOccupancy, &[c % 4]);
            }
            t.iter_end(i * 100 + 30);
        }
        t.scr_end(250);
        t
    }

    fn heavy_faults() -> FaultConfig {
        FaultConfig {
            seed: 9,
            drop_row_per_64k: 20_000,
            bitflip_per_64k: 20_000,
            ..FaultConfig::default()
        }
    }

    #[test]
    fn injected_drops_and_flips_fire_and_perturb_hashes() {
        let clean = drive_faulted(None);
        let faulted = drive_faulted(Some(heavy_faults()));
        assert!(faulted.dropped_cycles > 0, "drop rate of ~30% over 48 cycles must fire");
        assert!(faulted.bit_flips > 0, "flip rate of ~30% over 96 rows must fire");
        assert_eq!(clean.dropped_cycles, 0);
        assert_eq!(clean.bit_flips, 0);
        assert_eq!(clean.iterations[0].dropped_cycles, 0);
        assert_ne!(
            clean.iterations[0].unit(UnitId::SqAddr).hash,
            faulted.iterations[0].unit(UnitId::SqAddr).hash
        );
        let it = &faulted.iterations[0];
        assert_eq!(it.sampled_cycles() + it.dropped_cycles, 24, "every cycle sampled or dropped");
        // Same plan, same schedule: re-driving reproduces everything.
        assert_eq!(drive_faulted(Some(heavy_faults())).iterations, faulted.iterations);
    }

    #[test]
    fn faulted_log_round_trips_with_plain_parse() {
        let faulted = drive_faulted(Some(heavy_faults()));
        let log = faulted.log_text().unwrap();
        assert!(log.contains("\nD "), "dropped cycles must be logged as D records");
        // Parse with faults off: flips are baked into logged values and
        // drops replay from D records.
        let parsed = parse_text_log(log, TraceConfig::default()).unwrap();
        assert_eq!(parsed, faulted.iterations);
        let parsed_dropped: u64 = parsed.iter().map(|i| i.dropped_cycles).sum();
        assert_eq!(parsed_dropped, faulted.dropped_cycles);
    }

    #[test]
    fn parse_rejects_bad_drop_record() {
        assert!(parse_text_log("D nope\n", TraceConfig::default()).is_err());
    }

    #[test]
    fn pipeline_deltas_attach_to_iterations_and_round_trip() {
        let t = sample_tracer(false);
        let expect = PipelineStats { cycles: 4, committed: 6, ..PipelineStats::default() };
        assert_eq!(t.iterations[0].pipeline, expect);
        let log = t.log_text().unwrap();
        assert!(log.contains("\nP 4 6 "), "pipeline record must be logged");
        let parsed = parse_text_log(log, TraceConfig::default()).unwrap();
        assert_eq!(parsed[0].pipeline, expect);
    }

    #[test]
    fn set_pipeline_without_open_iteration_leaves_no_residue() {
        let mut t = Tracer::new(TraceConfig::default());
        t.enable_log();
        t.scr_start(0);
        t.set_pipeline(PipelineStats { cycles: 99, ..PipelineStats::default() });
        t.iter_start(1, 0);
        t.begin_cycle(2);
        t.record_row(UnitId::SqAddr, &[1]);
        t.iter_end(3);
        t.scr_end(4);
        assert_eq!(t.iterations[0].pipeline, PipelineStats::default());
        assert!(!t.log_text().unwrap().contains("\nP "), "stray set must not be logged");
    }

    #[test]
    fn parse_rejects_bad_pipeline_record() {
        assert!(parse_text_log("P 1 2\n", TraceConfig::default()).is_err());
        let too_many = format!("P{}\n", " 1".repeat(PipelineStats::FIELDS + 1));
        assert!(parse_text_log(&too_many, TraceConfig::default()).is_err());
    }

    /// The straightforward fold the builder must reproduce: byte-wise
    /// hasher writes per word, a `BTreeSet` for the features. Returns the
    /// summary and the bytes hashed.
    fn reference_fold(keep_matrices: bool, rows: &[Vec<u64>]) -> (UnitTrace, u64) {
        let (mut full, mut timeless) = (snapshot_hasher(), snapshot_hasher());
        let (mut features, mut order) = (BTreeSet::new(), Vec::new());
        let mut last: Option<&[u64]> = None;
        let mut hashed = 0;
        for row in rows {
            let words = std::iter::once(row.len() as u64).chain(row.iter().copied());
            words.clone().for_each(|w| full.write(&w.to_le_bytes()));
            hashed += 8 * (row.len() as u64 + 1);
            if last != Some(row.as_slice()) {
                words.for_each(|w| timeless.write(&w.to_le_bytes()));
                hashed += 8 * (row.len() as u64 + 1);
                for &v in row {
                    if v != 0 && features.insert(v) {
                        order.push(v);
                    }
                }
                last = Some(row);
            }
        }
        let summary = UnitTrace {
            hash: full.finish(),
            hash_timeless: timeless.finish(),
            features,
            order,
            rows: keep_matrices.then(|| rows.to_vec()),
            cycle_rows: rows.len() as u64,
        };
        (summary, hashed)
    }

    /// A seeded xorshift64 stream.
    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[test]
    fn builder_matches_reference_fold() {
        let mut next = xorshift(0x2545_f491_4f6c_dd1d);
        for case in 0..48u64 {
            // Mixed widths, exact repeats of the previous row, zeros, a few
            // recurring line addresses and arbitrary words.
            let mut rows: Vec<Vec<u64>> = Vec::new();
            for _ in 0..next() % 80 {
                let r = next();
                if r.is_multiple_of(4) && !rows.is_empty() {
                    rows.push(rows[rows.len() - 1].clone());
                    continue;
                }
                let width = [0, 1, 2, 3, 8, 40][(r >> 8) as usize % 6];
                let row = (0..width).map(|_| match next() % 3 {
                    0 => 0,
                    1 => 0x8000_0000 + next() % 16 * 64,
                    _ => next(),
                });
                rows.push(row.collect());
            }
            for keep_matrices in [false, true] {
                let (expect, expect_bytes) = reference_fold(keep_matrices, &rows);
                let mut b = UnitBuilder::new(keep_matrices);
                let bytes = rows.iter().map(|r| b.fold_row(r)).sum::<u64>();
                assert_eq!(bytes, expect_bytes, "case {case} keep_matrices {keep_matrices}");
                assert_eq!(b.finish(), expect, "case {case} keep_matrices {keep_matrices}");
            }
        }
    }

    #[test]
    fn writers_match_format() {
        let mut next = xorshift(0x9e37_79b9_7f4a_7c15);
        let edge = [0, 1, 0xf, 0x10, 9, 10, 99, 100, u64::MAX];
        for v in edge.into_iter().chain((0..4096).map(|_| next() >> (next() % 64))) {
            let (mut hex, mut dec) = (b"x".to_vec(), b"x".to_vec());
            push_hex(&mut hex, v);
            push_dec(&mut dec, v);
            assert_eq!(hex, format!("x {v:x}").into_bytes(), "{v:#x}");
            assert_eq!(dec, format!("x {v}").into_bytes(), "{v}");
        }
    }

    #[test]
    fn log_text_is_pinned() {
        assert_eq!(
            sample_tracer(false).log_text().unwrap(),
            "# MicroSampler trace log v1\nM SCR_START 10\nM ITER_START 10 1\n\
             C 11 SQ-ADDR 100 0 0\nC 11 ROB-OCPNCY 3\nC 12 SQ-ADDR 100 0 0\n\
             C 12 ROB-OCPNCY 4\nC 13 SQ-ADDR 100 200 0\nC 13 ROB-OCPNCY 4\n\
             P 4 6 0 0 0 0 0 0 0 0 0 0 0 0\nM ITER_END 14\nM SCR_END 14\n"
        );
        let mut t = Tracer::new(TraceConfig::default());
        t.enable_log();
        t.scr_start(0);
        t.iter_start(1, 3);
        t.begin_cycle(2);
        t.record_row(UnitId::LfbData, &[u64::MAX, 0xf, 0x10, 0, 1]);
        t.drop_cycle(3);
        t.begin_cycle(4);
        t.record_row(UnitId::EuuAlu, &[0x8000_003c]);
        t.record_row(UnitId::MshrAddr, &[]);
        t.set_pipeline(PipelineStats::from_array(std::array::from_fn(|i| match i {
            0 => u64::MAX,
            1 => 0,
            _ => 7u64.pow(i as u32),
        })));
        t.iter_end(5);
        t.scr_end(6);
        assert_eq!(
            t.log_text().unwrap(),
            "# MicroSampler trace log v1\nM SCR_START 0\nM ITER_START 1 3\n\
             C 2 LFB-Data ffffffffffffffff f 10 0 1\nD 3\nC 4 EUU-ALU 8000003c\n\
             C 4 MSHR-ADDR\nP 18446744073709551615 0 49 343 2401 16807 117649 823543 \
             5764801 40353607 282475249 1977326743 13841287201 96889010407\n\
             M ITER_END 5\nM SCR_END 6\n"
        );
        assert_eq!(parse_text_log(t.log_text().unwrap(), TraceConfig::default()), Ok(t.iterations));
    }

    /// The parser that `parse_text_log` replaced: each `C` record is split
    /// with `split_whitespace` into a fresh row and each value is read with
    /// `u64::from_str_radix`. The reference for what the log grammar
    /// accepts and how it reports errors.
    fn oracle_parse(text: &str, cfg: TraceConfig) -> Result<Vec<IterationTrace>, ParseLogError> {
        let mut tracer = Tracer::new(cfg);
        for (idx, line) in text.lines().enumerate() {
            let lno = idx as u32 + 1;
            let err = |m: String| ParseLogError { line: lno, message: m };
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("M") => {
                    let kind = parts.next().ok_or_else(|| err("missing marker kind".into()))?;
                    let cycle: u64 = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err("missing marker cycle".into()))?;
                    match kind {
                        "SCR_START" => tracer.scr_start(cycle),
                        "SCR_END" => tracer.scr_end(cycle),
                        "ITER_START" => {
                            let label: u64 = parts
                                .next()
                                .and_then(|s| s.parse().ok())
                                .ok_or_else(|| err("missing iteration label".into()))?;
                            tracer.iter_start(cycle, label);
                        }
                        "ITER_END" => tracer.iter_end(cycle),
                        other => return Err(err(format!("unknown marker `{other}`"))),
                    }
                }
                Some("C") => {
                    let cycle: u64 = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err("missing cycle".into()))?;
                    let unit_name = parts.next().ok_or_else(|| err("missing unit".into()))?;
                    let unit = UnitId::from_name(unit_name)
                        .ok_or_else(|| err(format!("unknown unit `{unit_name}`")))?;
                    let mut row = Vec::new();
                    for tok in parts {
                        row.push(
                            u64::from_str_radix(tok, 16)
                                .map_err(|_| err(format!("bad value `{tok}`")))?,
                        );
                    }
                    tracer.begin_cycle(cycle);
                    tracer.record_row(unit, &row);
                }
                Some("D") => {
                    let cycle: u64 = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err("missing dropped cycle".into()))?;
                    tracer.drop_cycle(cycle);
                }
                Some("P") => {
                    let mut vals = [0u64; PipelineStats::FIELDS];
                    for slot in vals.iter_mut() {
                        *slot = parts
                            .next()
                            .and_then(|s| s.parse().ok())
                            .ok_or_else(|| err("bad pipeline record".into()))?;
                    }
                    if parts.next().is_some() {
                        return Err(err("trailing pipeline values".into()));
                    }
                    tracer.set_pipeline(PipelineStats::from_array(vals));
                }
                Some(other) => return Err(err(format!("unknown record `{other}`"))),
                None => {}
            }
        }
        Ok(tracer.iterations)
    }

    /// The text log of a one-byte-key modexp run on MegaBoom.
    ///
    /// The kernels crate links its own build of this crate, so only the
    /// program crosses over; the machine is this crate's.
    fn kernel_log(variant: ModexpVariant, faults: Option<FaultConfig>) -> String {
        let program = ModexpKernel::new(variant, 1).program().expect("kernel assembles");
        let mut m = crate::Machine::with_trace_config(
            crate::CoreConfig::mega_boom(),
            &program,
            TraceConfig { faults, ..TraceConfig::default() },
        );
        m.write_mem(program.symbol_addr("key"), &random_keys(1, 1, 11)[0]);
        m.enable_log();
        m.run(cycle_budget(1)).expect("kernel runs");
        m.log_text().expect("log enabled").to_owned()
    }

    fn capture_faults() -> FaultConfig {
        FaultConfig {
            seed: 5,
            drop_row_per_64k: 2_000,
            bitflip_per_64k: 2_000,
            ..FaultConfig::default()
        }
    }

    #[test]
    fn parser_matches_oracle_on_kernel_logs() {
        use ModexpVariant::*;
        for variant in [V1CompilerVuln, V1MicroarchVuln, V2Safe] {
            for faults in [None, Some(capture_faults())] {
                let log = kernel_log(variant, faults);
                let parsed = parse_text_log(&log, TraceConfig::default()).expect("log parses");
                let what = format!("{} faults {}", variant.name(), faults.is_some());
                assert!(parsed.len() >= 8, "{what}: {} iterations", parsed.len());
                if faults.is_some() {
                    assert!(log.contains("\nD "), "{what}: no D record");
                }
                assert!(log.contains("\nP "), "{what}: no P record");
                assert_eq!(Ok(parsed), oracle_parse(&log, TraceConfig::default()), "{what}");
            }
        }
    }

    /// `base` with one to three random ASCII edits.
    fn mutate(base: &str, next: &mut impl FnMut() -> u64) -> String {
        const WIDE: [&str; 4] =
            ["0000000000000000f", "10000000000000000", "fffffffffffffffff", "+0000000000000000a"];
        let mut b = base.as_bytes().to_vec();
        for _ in 0..1 + next() % 3 {
            let pos = (next() % (b.len() as u64 + 1)) as usize;
            // Just past the next space: the start of a token.
            let token = b[pos..].iter().position(|&c| c == b' ').map_or(b.len(), |i| pos + i + 1);
            match next() % 9 {
                0 if pos < b.len() => b[pos] = (next() % 128) as u8,
                1 if pos < b.len() => {
                    b.remove(pos);
                }
                2 => b.insert(if next().is_multiple_of(4) { pos } else { token }, b'+'),
                3 => b.insert(pos, b" \t\x0b\x0c\r"[(next() % 5) as usize]),
                4 => drop(b.splice(pos..pos, b"   "[..1 + (next() % 3) as usize].to_vec())),
                5 => b[pos..].iter_mut().take(1 + (next() % 12) as usize).for_each(|c| {
                    c.make_ascii_uppercase();
                }),
                6 => {
                    let wide = format!("{} ", WIDE[(next() % 4) as usize]);
                    drop(b.splice(token..token, wide.into_bytes()));
                }
                7 => b.truncate(pos),
                _ => b.insert(pos, b'\n'),
            }
        }
        String::from_utf8(b).expect("ASCII edits keep the text UTF-8")
    }

    #[test]
    fn parser_matches_oracle_on_mutated_logs() {
        let log = kernel_log(ModexpVariant::V1CompilerVuln, Some(capture_faults()));
        let lines: Vec<&str> = log.lines().collect();
        let find = |tag: &str| lines.iter().position(|l| l.starts_with(tag)).expect(tag);
        let (d, p) = (find("D "), find("P "));
        // The run's head, a dropped cycle, and an iteration's close with
        // the next one's start: every record kind in about 6 KB.
        let mut base: Vec<&str> = lines[..40].to_vec();
        base.extend(&lines[d - 2..d + 2]);
        base.extend(&lines[p - 20..p + 24]);
        let base = base.join("\n") + "\n";
        let clean = oracle_parse(&base, TraceConfig::default()).expect("the base parses");
        assert!(!clean.is_empty(), "the base closes an iteration");

        let mut next = xorshift(0x5eed_0f10_6500);
        let (mut ok, mut rejected) = (0, 0);
        for case in 0..12_000 {
            let text = mutate(&base, &mut next);
            let expect = oracle_parse(&text, TraceConfig::default());
            assert_eq!(parse_text_log(&text, TraceConfig::default()), expect, "case {case}");
            if expect.is_ok() {
                ok += 1;
            } else {
                rejected += 1;
            }
        }
        assert!(ok > 1_000 && rejected > 1_000, "{ok} accepted, {rejected} rejected");
    }

    #[test]
    fn parser_matches_oracle_on_unicode_whitespace() {
        let cases = [
            "C 4 SQ-ADDR 1\u{a0}2",
            "C\u{3000}4 SQ-ADDR 1 2",
            "C 4\u{2028}SQ-ADDR 1\u{85}",
            "\u{2029}C 4 SQ-ADDR +f\u{1680}+F",
            "C 4 SQ-ADDR 1\u{e9}",
            "C 4 SQ-ADDR \u{e9} 2",
            "C 4 SQ-ADDR \u{661}",
            "C 4 SQ-ADDR 1\u{200b}2",
            "C 4 SQ-ADDR 1 \u{feff}",
            "C 4 SQ-ADDR -1",
            "C 4 SQ-ADDR 1\u{0}",
        ];
        for case in cases {
            let text = format!("M SCR_START 0\nM ITER_START 0 1\n{case}\nM ITER_END 5\n");
            let expect = oracle_parse(&text, TraceConfig::default());
            assert_eq!(parse_text_log(&text, TraceConfig::default()), expect, "{case:?}");
        }
    }
}
