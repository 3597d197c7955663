//! The Bouncer admission-control policy and its surrounding framework.
//!
//! This crate implements the paper's primary contribution:
//!
//! * [`policy::Bouncer`] — the measurement-based policy of §3: per-query
//!   percentile response-time estimates (Eq. 2–4) compared against per-type
//!   latency SLOs (Algorithm 1), with the cold-start handling of Appendix A.
//! * [`policy::AcceptanceAllowance`] and [`policy::HelpingTheUnderserved`] —
//!   the starvation-avoidance strategies of §4 (Algorithms 2 and 3).
//! * [`policy::MaxQueueLength`], [`policy::MaxQueueWaitTime`], and
//!   [`policy::AcceptFraction`] — the in-house baseline policies of §5.2.
//! * [`framework`] — the SEDA-style stage of Figure 1: an admission gate in
//!   front of a FIFO queue drained by a fixed pool of query-engine workers,
//!   with measurement hooks at the three points the paper instruments.
//!
//! All time is explicit (`Nanos`), so the same policy objects run unmodified
//! under the discrete-event simulator (§5.3) and the LIquid-like real system
//! (§5.4) elsewhere in this workspace.
//!
//! # Quick example
//!
//! ```
//! use bouncer_core::prelude::*;
//! use bouncer_metrics::time::millis;
//!
//! let mut registry = TypeRegistry::new();
//! let fast = registry.register("Fast");
//! let slow = registry.register("Slow");
//!
//! let slos = SloConfig::builder(&registry)
//!     .default_slo(Slo::p50_p90(millis(30), millis(400)))
//!     .set(fast, Slo::p50_p90(millis(10), millis(90)))
//!     .set(slow, Slo::p50_p90(millis(60), millis(270)))
//!     .build();
//!
//! let bouncer = Bouncer::new(slos, BouncerConfig::with_parallelism(64));
//! // Cold start: nothing measured yet, Bouncer lets queries in (Appendix A).
//! assert!(bouncer.admit(fast, 0).is_accept());
//! ```

#![warn(missing_docs)]

pub mod control;
pub mod framework;
pub mod obs;
pub mod policy;
pub mod rng;
pub mod slo;
pub mod slo_spec;
pub mod spec;
pub mod types;

/// Convenient glob-import surface for downstream crates and examples.
pub mod prelude {
    pub use crate::control::{
        slo_tail_targets, ControlDecision, ControlParam, ControlTap, Controller, StagedParam,
        Telemetry, TypeTelemetry,
    };
    pub use crate::framework::{Gate, GateConfig, ServerStats, StatsSnapshot};
    pub use crate::obs::{
        null_sink, render_prometheus, render_prometheus_full, render_prometheus_with_traces, Event,
        EventSink, HedgeCounters, JsonlSink, MemorySink, NullSink, PoolCounters, TraceContext,
        TraceCounters, Tracer, TracerConfig,
    };
    pub use crate::policy::{
        AcceptFraction, AcceptFractionConfig, AcceptanceAllowance, AdmissionPolicy, AlwaysAccept,
        Bouncer, BouncerConfig, Decision, DecisionRule, GatekeeperConfig, GatekeeperStyle,
        HelpingTheUnderserved, HistogramMode, MaxQueueLength, MaxQueueWaitTime, RejectReason,
    };
    pub use crate::slo::{Percentile, Slo, SloConfig};
    pub use crate::slo_spec::{apply_slo_spec, parse_slo_spec};
    pub use crate::spec::{
        BouncerParams, ClassSpec, ControllerSpec, DisciplineSpec, HistogramSpec, LawKind,
        LiquidSpec, PolicyEnv, PolicySpec, RuleSpec, RuntimeSpec, ScenarioSpec, SimSpec,
        SloEntrySpec, StrategySpec, TransportSpec, WorkloadSpec,
    };
    pub use crate::types::{TypeId, TypeRegistry, DEFAULT_TYPE};
}

pub use prelude::*;
