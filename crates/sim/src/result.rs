//! Simulation results and the accessors experiments report on.

use bouncer_core::framework::StatsSnapshot;
use bouncer_core::types::TypeId;
use bouncer_metrics::time::{as_millis_f64, Nanos};

/// Measured outcome of one simulation run (post-warm-up window only).
#[derive(Debug, Clone)]
pub struct SimResult {
    /// The policy that gated admissions.
    pub policy_name: String,
    /// The offered rate, queries per second.
    pub rate_qps: f64,
    /// Host statistics over the measured window.
    pub stats: StatsSnapshot,
    /// Measured window duration (virtual nanoseconds).
    pub duration: Nanos,
    /// Content hash of the scenario that produced this run, when the run
    /// was constructed through the spec layer.
    pub scenario_hash: Option<u64>,
}

impl SimResult {
    /// Response-time quantile for serviced queries of `ty`, in ms.
    pub fn response_ms(&self, ty: TypeId, q: f64) -> Option<f64> {
        self.stats.per_type[ty.index()]
            .response
            .value_at_quantile(q)
            .map(as_millis_f64)
    }

    /// Processing-time quantile for serviced queries of `ty`, in ms.
    pub fn processing_ms(&self, ty: TypeId, q: f64) -> Option<f64> {
        self.stats.per_type[ty.index()]
            .processing
            .value_at_quantile(q)
            .map(as_millis_f64)
    }

    /// Per-type rejection percentage (0–100).
    pub fn rejection_pct(&self, ty: TypeId) -> f64 {
        self.stats.rejection_ratio(ty) * 100.0
    }

    /// Overall rejection percentage (0–100).
    pub fn overall_rejection_pct(&self) -> f64 {
        self.stats.overall_rejection_ratio() * 100.0
    }

    /// Engine utilization percentage (0–100).
    pub fn utilization_pct(&self) -> f64 {
        self.stats.utilization * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use bouncer_core::framework::{Gate, GateConfig};
    use bouncer_core::policy::AlwaysAccept;
    use bouncer_metrics::time::{millis, secs};
    use bouncer_metrics::ManualClock;

    #[test]
    fn accessors_derive_from_snapshot() {
        // Ten queries of type 1 through the gate hooks the simulator runs:
        // one shed by the L_limit safeguard, one served with a 5 ms wait
        // and 15 ms of processing.
        let clock = Arc::new(ManualClock::new());
        let gate: Gate<()> =
            Gate::new(Arc::new(AlwaysAccept::new()), 2, clock.clone(), GateConfig::default());
        let ty = TypeId::from_index(1);
        for len in 0..10 {
            let at = gate.admit_external(ty).unwrap();
            if len == 0 {
                gate.reject_full_external(ty, at);
            } else {
                gate.enqueued_external(ty, at, len);
            }
        }
        clock.set(millis(5));
        let (dequeued_at, _) = gate.dequeued_external(ty, 0, None);
        clock.set(millis(20));
        gate.complete(ty, 0, dequeued_at);
        let r = SimResult {
            policy_name: "x".into(),
            rate_qps: 1000.0,
            stats: gate.stats().snapshot(secs(1), 10),
            duration: secs(1),
            scenario_hash: None,
        };
        assert!((r.rejection_pct(ty) - 10.0).abs() < 1e-9);
        assert!((r.overall_rejection_pct() - 10.0).abs() < 1e-9);
        let rt = r.response_ms(ty, 0.5).unwrap();
        assert!((rt - 20.0).abs() < 1.0, "rt={rt}");
        let pt = r.processing_ms(ty, 0.5).unwrap();
        assert!((pt - 15.0).abs() < 1.0, "pt={pt}");
        assert!(r.utilization_pct() > 0.0);
        assert_eq!(r.response_ms(TypeId::from_index(0), 0.5), None);
    }
}
