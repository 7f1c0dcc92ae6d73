//! Structured telemetry for the MicroSampler pipeline.
//!
//! Six independent, dependency-free layers:
//!
//! * [`mod@span`] — hierarchical scoped timers over the analysis pipeline
//!   (simulate → parse → correlate → extract). Near-zero cost when
//!   disabled: one relaxed atomic load, no clock read, no allocation.
//! * [`trace_event`] — Chrome trace-event / Perfetto JSON export of the
//!   span forest (`DIR/<name>.trace.json` next to every `repro --json
//!   DIR` run report, openable in ui.perfetto.dev).
//! * [`metrics`] — a process-wide registry aggregating named counters
//!   (simulator `CoreStats` counters, tracer volumes) per trial and
//!   across a sweep (count/sum/min/max plus a power-of-two histogram
//!   for p50/p99).
//! * [`mod@diag`] — a leveled diagnostic sink (`MICROSAMPLER_LOG`) and sweep
//!   progress heartbeats (`MICROSAMPLER_PROGRESS`) replacing ad-hoc
//!   `eprintln!` debugging.
//! * [`json`] — a hand-rolled JSON emitter/parser (the workspace's
//!   dependency policy forbids serde) rendering stable-schema run
//!   reports; see `repro --json <dir>`.
//! * [`sarif`] — a minimal SARIF 2.1.0 emitter over [`json`] so the
//!   static lint (`repro lint --sarif`) uploads straight into CI code
//!   scanning.
//!
//! # Example
//!
//! ```
//! use microsampler_obs::{json, metrics, span};
//!
//! span::set_enabled(true);
//! span::take(); // drop anything a previous test left behind
//! {
//!     let _outer = span::span("correlate");
//!     let _inner = span::span("contingency");
//! }
//! let tree = span::take();
//! assert_eq!(tree[0].name, "correlate");
//! assert_eq!(tree[0].children[0].name, "contingency");
//! let report = json::Value::object().field("spans", span::nodes_to_json(&tree)).build();
//! assert!(report.render_compact().contains("\"correlate\""));
//! span::set_enabled(false);
//! ```

pub mod diag;
pub mod json;
pub mod metrics;
pub mod sarif;
pub mod span;
pub mod trace_event;

pub use diag::Level;
pub use json::Value;
pub use span::{span, SpanGuard, SpanNode};
