//! Structured telemetry for the MPSoC simulator: typed trace events with
//! span semantics, per-offload phase attribution against the paper's
//! Eq. 1 terms, and a Chrome trace-event JSON exporter loadable in
//! Perfetto or `chrome://tracing`.
//!
//! This is the one tracing layer over the hardware models and the
//! schedulers. An [`EventTrace`] collects [`TraceEvent`]s — each
//! carrying a hardware [`Unit`], an [`EventKind`], a [`Mark`]
//! (begin/end/instant) and a span ID — and costs a single branch per
//! recording site when disabled.
//!
//! The statistics types ([`StatsRegistry`], [`Histogram`], [`Summary`])
//! are re-exported from `mpsoc_sim::stats`. Aggregation lives with the
//! owner of the registries: a serving fleet sums and merges its
//! per-shard registries itself (`mpsoc_serve::FleetSlo`).
//!
//! # Example
//!
//! ```
//! use mpsoc_sim::Cycle;
//! use mpsoc_telemetry::{EventKind, EventTrace, Unit};
//!
//! let mut trace = EventTrace::enabled(1024);
//! let span = trace.begin(Cycle::new(10), Unit::ClusterDma(0), EventKind::DmaIn);
//! trace.end(Cycle::new(74), Unit::ClusterDma(0), EventKind::DmaIn, span);
//! let json = mpsoc_telemetry::chrome_trace_json(&trace);
//! assert!(mpsoc_telemetry::validate_chrome_trace(&json).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod event;
pub mod phase;
pub mod recorder;
pub mod throughput;

/// The wall-clock scoped self-profiler (RAII guards, per-site call
/// tree, collapsed-stack export). Lives in `mpsoc-sim` so the lowest
/// layers can host profiling sites without a dependency cycle;
/// re-exported here because this crate owns its export surface
/// ([`chrome::profile_chrome_trace_json`] and friends).
pub use mpsoc_sim::profile;

pub use chrome::{
    chrome_trace_json, profile_chrome_trace_json, profile_chrome_trace_value,
    validate_chrome_trace, ChromeTraceSummary,
};
pub use event::{EventKind, Mark, TraceEvent, Unit};
pub use mpsoc_sim::profile::{ProfileNode, ProfileReport, SiteTotal};
pub use mpsoc_sim::stats::{Histogram, StatsRegistry, Summary};
pub use phase::{ModelTerms, PhaseBreakdown, ResidualAudit, TermResidual};
pub use recorder::EventTrace;
pub use throughput::{ThroughputMeter, ThroughputRow};
