//! The Bouncer admission-control policy (§3).
//!
//! For every incoming query `Q`, Bouncer estimates the percentile response
//! times `Q` would experience and compares them against the target values in
//! `Q`'s latency SLO:
//!
//! * Eq. 2 — mean queue wait estimate:
//!   `ewt_mean = Σ_type count(type) · pt_mean(type) / P`
//! * Eq. 3/4 — percentile response-time estimates:
//!   `ert_pX(Q) = ewt_mean + pt_pX(Type(Q))`
//! * Algorithm 1 — reject iff any `ert_pX(Q) > SLO_pX(Q)`.
//!
//! Processing-time distributions are kept per query type in dual-buffer
//! histograms updated every `histogram_interval`; per-type queue occupancy is
//! tracked with atomic counters updated as queries are enqueued and dequeued.
//! These are deliberately *inexpensive estimations* — the paper trades
//! accuracy for speed because the computation is on the critical path of
//! every query.
//!
//! Cold starts and traffic lulls are handled per Appendix A: Bouncer also
//! maintains a *general* histogram across all types; while a type's own
//! histogram is insufficiently populated, decisions for it use the general
//! histogram together with the `default` type's SLO, and at swap time a
//! buffer with too few samples is retained rather than replaced by an empty
//! one ("we prefer stale data to no data").

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use bouncer_metrics::estimate::{fp_to_ns, mean_to_fp};
use bouncer_metrics::time::{secs, Nanos};
use bouncer_metrics::{DualHistogram, EstimateTable, SlidingHistogram};

use crate::obs::{Event, SinkSlot};
use crate::policy::{AdmissionPolicy, Decision, RejectReason};
use crate::slo::{Percentile, Slo, SloConfig};
use crate::types::TypeId;

/// How Algorithm 1 combines the per-percentile comparisons. The paper
/// evaluates the strict disjunction and notes the expression is a knob
/// ("adopt different logical expressions for acceptance decision making",
/// §3/§7); the lenient conjunction is provided for that ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecisionRule {
    /// Reject when **any** `ert_pX > SLO_pX` (Algorithm 1, the default).
    #[default]
    RejectIfAnyViolated,
    /// Reject only when **every** target would be violated.
    RejectIfAllViolated,
}

/// How processing-time distributions are maintained (§3 vs the §7 proposal
/// to "update processing time histograms in a sliding window, instead of
/// non-overlapping windows").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HistogramMode {
    /// Dual-buffer with atomic swap per interval (§3, the default): reads
    /// see exactly the previous interval; O(1)-ish reads.
    #[default]
    DualBuffer,
    /// Sliding window over the trailing `intervals` intervals: smoother,
    /// immediately-fresh estimates at `intervals`× read cost.
    Sliding {
        /// Number of trailing intervals merged on each read.
        intervals: usize,
    },
}

/// Configuration of the [`Bouncer`] policy.
#[derive(Debug, Clone)]
pub struct BouncerConfig {
    /// `P`: the number of query-engine processes on the host (the level of
    /// task parallelism for query processing).
    pub parallelism: u32,
    /// Dual-buffer histogram swap period (the paper's "time interval").
    pub histogram_interval: Nanos,
    /// At swap time, a populated buffer with fewer samples than this is
    /// retained instead of swapped in, so intermittent types keep serving
    /// estimates from stale-but-real data (Appendix A).
    pub retention_min_samples: u64,
    /// A type whose readable histogram holds fewer samples than this is
    /// considered cold and falls back to the general histogram and the
    /// `default` SLO (Appendix A warm-up phase).
    pub warmup_min_samples: u64,
    /// How the per-type percentile comparisons combine into a decision.
    pub decision_rule: DecisionRule,
    /// Dual-buffer (§3) or sliding-window (§7) histograms.
    pub histogram_mode: HistogramMode,
}

impl BouncerConfig {
    /// A reasonable configuration given only the engine parallelism `P`:
    /// 1 s histogram interval, unconditional swaps (the paper's §3
    /// behavior), warm-up threshold of 16 samples.
    ///
    /// `retention_min_samples` defaults to 0 deliberately. Retention (keep
    /// the old histogram when too few fresh samples arrived, Appendix A) is
    /// safe for *traffic lulls*, but under *rejection-driven* starvation it
    /// can deadlock: an interval in which a type is mostly rejected leaves
    /// only late-completing stragglers in the buffer, whose processing
    /// times are biased high; a retained poisoned histogram then rejects
    /// the type forever, and with no new completions it is never replaced.
    /// Unconditional swapping self-heals — an empty interval makes the type
    /// cold, re-enabling the general-histogram warm-up fallback. Enable
    /// retention only for workloads with genuinely intermittent types.
    pub fn with_parallelism(parallelism: u32) -> Self {
        Self {
            parallelism,
            histogram_interval: secs(1),
            retention_min_samples: 0,
            warmup_min_samples: 16,
            decision_rule: DecisionRule::default(),
            histogram_mode: HistogramMode::default(),
        }
    }
}

/// A processing-time estimator in either histogram mode, presenting the
/// uniform read interface Bouncer's equations need.
enum Estimator {
    Dual(DualHistogram),
    Sliding(SlidingHistogram),
}

impl Estimator {
    fn new(cfg: &BouncerConfig) -> Self {
        match cfg.histogram_mode {
            HistogramMode::DualBuffer => {
                Estimator::Dual(DualHistogram::with_min_samples(cfg.retention_min_samples))
            }
            HistogramMode::Sliding { intervals } => {
                Estimator::Sliding(SlidingHistogram::new(intervals, cfg.histogram_interval))
            }
        }
    }

    #[inline]
    fn record(&self, value: Nanos, now: Nanos) {
        match self {
            Estimator::Dual(h) => h.record(value),
            Estimator::Sliding(h) => h.record(value, now),
        }
    }

    /// Interval boundary: dual buffers swap; sliding windows rotate lazily
    /// on access and need no action here.
    fn on_interval(&self) {
        if let Estimator::Dual(h) = self {
            h.swap();
        }
    }

    /// Usable samples behind reads at `now` — frozen-or-populating for the
    /// dual buffer (see the bridge rationale on [`Bouncer`]), the live
    /// window for sliding mode.
    fn usable_count(&self, now: Nanos, min: u64) -> u64 {
        match self {
            Estimator::Dual(h) => {
                let frozen = h.read_count();
                if frozen >= min {
                    frozen
                } else {
                    h.populating_count()
                }
            }
            Estimator::Sliding(h) => h.count(now),
        }
    }

    fn quantile(&self, q: f64, now: Nanos, min: u64) -> Option<Nanos> {
        match self {
            Estimator::Dual(h) => {
                if h.read_count() >= min {
                    h.value_at_quantile(q)
                } else if h.populating_count() >= min {
                    h.populating_quantile(q)
                } else {
                    None
                }
            }
            Estimator::Sliding(h) => {
                (h.count(now) >= min).then(|| h.value_at_quantile(q, now)).flatten()
            }
        }
    }

    fn mean(&self, now: Nanos, min: u64) -> Option<f64> {
        match self {
            Estimator::Dual(h) => {
                if h.read_count() >= min {
                    h.mean()
                } else if h.populating_count() >= min {
                    h.populating_mean()
                } else {
                    None
                }
            }
            Estimator::Sliding(h) => (h.count(now) >= min).then(|| h.mean(now)).flatten(),
        }
    }

    /// Batch form of [`Estimator::quantile`]: one cumulative scan for all
    /// `qs`, used by the estimate-table rebuild. Semantics match per-`q`
    /// calls exactly (the Some/None outcome depends only on the counts, not
    /// on `q`).
    fn quantiles(&self, qs: &[f64], now: Nanos, min: u64, out: &mut [Option<Nanos>]) {
        match self {
            Estimator::Dual(h) => {
                if h.read_count() >= min {
                    h.values_at_quantiles(qs, out);
                } else if h.populating_count() >= min {
                    h.populating_quantiles(qs, out);
                } else {
                    out.fill(None);
                }
            }
            Estimator::Sliding(h) => {
                if h.count(now) >= min {
                    h.values_at_quantiles(qs, now, out);
                } else {
                    out.fill(None);
                }
            }
        }
    }

    /// `true` while reads at a fixed `now` may still change *without* an
    /// interval boundary: a dual buffer serves the populating buffer until
    /// the frozen one is sufficiently populated (the warm-up bridge), and a
    /// sliding window sees every fresh sample immediately. Non-volatile
    /// estimators change their reads only at swap points — the invariant
    /// the estimate table's caching rests on.
    fn is_volatile(&self, min: u64) -> bool {
        match self {
            Estimator::Dual(h) => h.read_count() < min,
            Estimator::Sliding(_) => true,
        }
    }
}

struct TypeState {
    /// Processing-time distribution for this type (§3 fn. 4 / §7 modes).
    hist: Estimator,
    /// Number of queries of this type currently in the FIFO queue.
    queued: AtomicU64,
}

/// The Bouncer admission-control policy.
///
/// # The interval-cached hot path
///
/// The decision path (`admit`/`can_admit`) does **not** recompute Eq. 2–4:
/// it reads an [`EstimateTable`] — per-type cached means and resolved
/// `(pt_pX, SLO_pX)` pairs — plus a running demand counter maintained by
/// `on_enqueued`/`on_dequeued`, making the decision O(SLO targets) in a
/// handful of relaxed loads, independent of type count and histogram size.
/// The cache is exact, not approximate (modulo the fixed-point mean
/// representation, < 4 ps per queued query): non-volatile estimators change
/// their reads only at swap points, where `on_tick` rebuilds the whole
/// table, and volatile ones (warm-up bridge, sliding windows) are refreshed
/// on the completions and interval boundaries that move them. The
/// recompute-from-scratch path is retained as
/// [`Bouncer::can_admit_reference`] for equivalence testing and before/after
/// benchmarking.
pub struct Bouncer {
    slos: SloConfig,
    cfg: BouncerConfig,
    per_type: Vec<TypeState>,
    /// Processing times across all types, used while a type is cold.
    general: Estimator,
    /// The interval-cached estimates + demand counter behind `can_admit`.
    table: EstimateTable,
    /// Number of types currently cold (reading the general fallback); lets
    /// `on_completed` skip the refresh-all-cold sweep in the steady state.
    cold_types: AtomicUsize,
    /// Sliding mode only: the interval number (`now / histogram_interval`)
    /// the table was last rebuilt for; crossing a boundary triggers a lazy
    /// rebuild because slot expiry changes sliding reads with time alone.
    last_refresh_slot: AtomicU64,
    last_swap: AtomicU64,
    sink: SinkSlot,
}

impl Bouncer {
    /// Creates a Bouncer enforcing `slos`, one SLO slot per registered type.
    pub fn new(slos: SloConfig, cfg: BouncerConfig) -> Self {
        assert!(cfg.parallelism > 0, "parallelism must be positive");
        assert!(cfg.histogram_interval > 0, "interval must be positive");
        if let HistogramMode::Sliding { intervals } = cfg.histogram_mode {
            assert!(intervals >= 2, "sliding mode needs >= 2 intervals");
        }
        let per_type: Vec<TypeState> = (0..slos.n_types())
            .map(|_| TypeState {
                hist: Estimator::new(&cfg),
                queued: AtomicU64::new(0),
            })
            .collect();
        let max_targets = (0..slos.n_types())
            .map(|i| slos.slo_for(TypeId::from_index(i as u32)).targets().len())
            .chain(std::iter::once(slos.default_slo().targets().len()))
            .max()
            .unwrap_or(0);
        Self {
            general: Estimator::new(&cfg),
            table: EstimateTable::new(per_type.len(), max_targets),
            cold_types: AtomicUsize::new(per_type.len()),
            last_refresh_slot: AtomicU64::new(0),
            per_type,
            slos,
            cfg,
            last_swap: AtomicU64::new(0),
            sink: SinkSlot::new(),
        }
    }

    /// The SLO configuration this policy enforces.
    pub fn slos(&self) -> &SloConfig {
        &self.slos
    }

    /// Minimum samples a buffer needs before its statistics are trusted.
    #[inline]
    fn min_samples(&self) -> u64 {
        self.cfg.warmup_min_samples.max(1)
    }

    /// `true` while `ty`'s own estimator holds too few samples and
    /// decisions fall back to the general histogram plus the `default` SLO
    /// (Appendix A warm-up phase).
    ///
    /// In dual-buffer mode, "usable" means the frozen buffer when it is
    /// sufficiently populated (the paper's §3 read path), else the
    /// still-populating buffer. That bridge matters under heavy per-type
    /// rejection: one interval with (nearly) no completions of a type would
    /// otherwise blind the policy for the whole next interval and let a
    /// flood of that type through; with the bridge, the first
    /// `warmup_min_samples` completions of the new interval put estimates
    /// back in force immediately.
    pub fn is_warming_up(&self, ty: TypeId) -> bool {
        self.is_warming_up_at(ty, 0)
    }

    /// Like [`Self::is_warming_up`], at an explicit time (sliding-window
    /// estimators expire samples by time).
    pub fn is_warming_up_at(&self, ty: TypeId, now: Nanos) -> bool {
        self.per_type[ty.index()]
            .hist
            .usable_count(now, self.min_samples())
            < self.min_samples()
    }

    /// Number of queries of `ty` currently in the FIFO queue.
    pub fn queued_count(&self, ty: TypeId) -> u64 {
        self.per_type[ty.index()].queued.load(Ordering::Relaxed)
    }

    /// Eq. 2: the estimated mean queue wait time for a newly admitted query,
    /// `Σ_type count(type) · pt_mean(type) / P`, in nanoseconds.
    pub fn estimated_wait_mean(&self) -> f64 {
        self.estimated_wait_mean_at(0)
    }

    /// Like [`Self::estimated_wait_mean`], at an explicit time.
    pub fn estimated_wait_mean_at(&self, now: Nanos) -> f64 {
        let min = self.min_samples();
        let mut demand = 0.0f64;
        for state in &self.per_type {
            let count = state.queued.load(Ordering::Relaxed);
            if count == 0 {
                continue;
            }
            let mean = state
                .hist
                .mean(now, min)
                .or_else(|| self.general.mean(now, min))
                .unwrap_or(0.0);
            demand += count as f64 * mean;
        }
        demand / self.cfg.parallelism as f64
    }

    /// The percentile processing time Bouncer would use for `ty` — from the
    /// type's estimator, or the general one during warm-up. `None` when
    /// everything is cold.
    pub fn processing_quantile(&self, ty: TypeId, p: Percentile) -> Option<Nanos> {
        self.processing_quantile_at(ty, p, 0)
    }

    /// Like [`Self::processing_quantile`], at an explicit time.
    pub fn processing_quantile_at(&self, ty: TypeId, p: Percentile, now: Nanos) -> Option<Nanos> {
        let min = self.min_samples();
        let state = &self.per_type[ty.index()];
        state
            .hist
            .quantile(p.quantile(), now, min)
            .or_else(|| self.general.quantile(p.quantile(), now, min))
    }

    /// Eq. 3/4 generalized: the estimated percentile response time
    /// `ert_p(Q) = ewt_mean + pt_p(Type(Q))`. `None` during a full cold
    /// start (no measurements anywhere).
    pub fn estimated_response(&self, ty: TypeId, p: Percentile) -> Option<Nanos> {
        let pt = self.processing_quantile(ty, p)?;
        Some((self.estimated_wait_mean() as Nanos).saturating_add(pt))
    }

    /// The SLO that currently applies to `ty`: its own once warm, the
    /// `default` type's while warming up (Appendix A).
    fn effective_slo(&self, ty: TypeId, now: Nanos) -> &Slo {
        if self.is_warming_up_at(ty, now) {
            self.slos.default_slo()
        } else {
            self.slos.slo_for(ty)
        }
    }

    /// Algorithm 1, exposed under the paper's name for the starvation
    /// avoidance strategies (`Bouncer.CanAdmit(Q)`).
    ///
    /// This is the O(1) fast path: a lookup in the interval-cached
    /// [`EstimateTable`] plus one comparison per SLO target, never touching
    /// a histogram. [`Bouncer::can_admit_reference`] recomputes the same
    /// decision from scratch.
    pub fn can_admit(&self, ty: TypeId, now: Nanos) -> Decision {
        if matches!(self.cfg.histogram_mode, HistogramMode::Sliding { .. }) {
            self.maybe_rebuild_for_slot(now);
        }
        let entry = self.table.entry(ty.index());
        // Eq. 2 from the running demand counter, shaped exactly like the
        // reference's `demand / P` division.
        let ewt = self.table.demand_ns() / self.cfg.parallelism as f64;
        let mut violated = 0usize;
        let mut evaluated = 0usize;
        for k in 0..entry.n_targets() {
            let (pt, target) = entry.target(k);
            // A `None` slot means neither the type nor the general histogram
            // had data: cold-start leniency (Appendix A).
            let Some(pt) = pt else {
                continue;
            };
            evaluated += 1;
            if ewt + pt as f64 > target as f64 {
                violated += 1;
                if self.cfg.decision_rule == DecisionRule::RejectIfAnyViolated {
                    return Decision::Reject(RejectReason::PredictedSloViolation);
                }
            }
        }
        let reject_all = self.cfg.decision_rule == DecisionRule::RejectIfAllViolated
            && evaluated > 0
            && violated == evaluated;
        if reject_all {
            Decision::Reject(RejectReason::PredictedSloViolation)
        } else {
            Decision::Accept
        }
    }

    /// The seed's exact decision path: recomputes Eq. 2 over every type and
    /// re-reads the percentile histograms on each call. Kept as the
    /// reference the cached [`Bouncer::can_admit`] is equivalence-tested
    /// against (`crates/core/tests/estimate_equivalence.rs`) and as the
    /// "before" side of the `admit_hot_path` benchmark.
    pub fn can_admit_reference(&self, ty: TypeId, now: Nanos) -> Decision {
        let ewt = self.estimated_wait_mean_at(now);
        let slo = self.effective_slo(ty, now);
        let mut violated = 0usize;
        let mut evaluated = 0usize;
        for &(p, target) in slo.targets() {
            // During a full cold start there is no data at all; be lenient
            // and let the query in so histograms can populate (Appendix A).
            let Some(pt) = self.processing_quantile_at(ty, p, now) else {
                continue;
            };
            evaluated += 1;
            if ewt + pt as f64 > target as f64 {
                violated += 1;
                if self.cfg.decision_rule == DecisionRule::RejectIfAnyViolated {
                    return Decision::Reject(RejectReason::PredictedSloViolation);
                }
            }
        }
        let reject_all = self.cfg.decision_rule == DecisionRule::RejectIfAllViolated
            && evaluated > 0
            && violated == evaluated;
        if reject_all {
            Decision::Reject(RejectReason::PredictedSloViolation)
        } else {
            Decision::Accept
        }
    }

    /// Recomputes one type's table entry from the estimators at `now`:
    /// cached mean (compensating the demand counter for the queries already
    /// queued), warm flag, and the resolved `(pt_pX, limit)` pairs under the
    /// SLO in effect.
    fn refresh_entry(&self, i: usize, now: Nanos) {
        let min = self.min_samples();
        let state = &self.per_type[i];
        let ty = TypeId::from_index(i as u32);

        let mean = state
            .hist
            .mean(now, min)
            .or_else(|| self.general.mean(now, min))
            .unwrap_or(0.0);
        self.table
            .set_mean(i, mean_to_fp(mean), state.queued.load(Ordering::Relaxed));

        let warm = state.hist.usable_count(now, min) >= min;
        if warm != self.table.entry(i).is_warm() {
            self.table.set_warm(i, warm);
            if warm {
                self.cold_types.fetch_sub(1, Ordering::Relaxed);
            } else {
                self.cold_types.fetch_add(1, Ordering::Relaxed);
            }
        }

        let slo = if warm {
            self.slos.slo_for(ty)
        } else {
            self.slos.default_slo()
        };
        let targets = slo.targets();
        // One cumulative scan prices every percentile; SLOs have a handful
        // of targets, so a stack buffer covers the practical case.
        const STACK: usize = 8;
        let mut qs_buf = [0.0f64; STACK];
        let mut own_buf = [None; STACK];
        let mut gen_buf = [None; STACK];
        let n = targets.len();
        if n <= STACK {
            let qs = &mut qs_buf[..n];
            for (slot, &(p, _)) in qs.iter_mut().zip(targets) {
                *slot = p.quantile();
            }
            let own = &mut own_buf[..n];
            state.hist.quantiles(qs, now, min, own);
            // Some/None depends only on counts: the own slots are either all
            // resolved or all empty, so one general pass covers the gaps.
            if own.iter().any(Option::is_none) {
                self.general.quantiles(qs, now, min, &mut gen_buf[..n]);
            }
            let mut resolved = [(None, 0u64); STACK];
            for (k, &(_, limit)) in targets.iter().enumerate() {
                resolved[k] = (own[k].or(gen_buf[k]), limit);
            }
            self.table.set_targets(i, &resolved[..n]);
        } else {
            let resolved: Vec<(Option<Nanos>, Nanos)> = targets
                .iter()
                .map(|&(p, limit)| (self.processing_quantile_at(ty, p, now), limit))
                .collect();
            self.table.set_targets(i, &resolved);
        }
    }

    /// Rebuilds every table entry and re-anchors the demand counter to an
    /// exactly recomputed `Σ queued × mean` — called at swap points and
    /// sliding interval boundaries.
    fn rebuild_table(&self, now: Nanos) {
        for i in 0..self.per_type.len() {
            self.refresh_entry(i, now);
        }
        self.table
            .reanchor_demand(self.per_type.iter().map(|s| s.queued.load(Ordering::Relaxed)));
    }

    /// Sliding mode's lazy boundary rebuild: a sliding read changes when
    /// `now` crosses into a new interval (slots expire by time alone), so
    /// the first decision of each interval rebuilds the table. Within one
    /// interval, sliding reads are pure functions of the recorded data and
    /// the per-completion refreshes keep the table exact.
    fn maybe_rebuild_for_slot(&self, now: Nanos) {
        let slot = now / self.cfg.histogram_interval;
        let last = self.last_refresh_slot.load(Ordering::Acquire);
        if slot == last {
            return;
        }
        if self
            .last_refresh_slot
            .compare_exchange(last, slot, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            self.rebuild_table(now);
        }
    }
}

impl AdmissionPolicy for Bouncer {
    fn name(&self) -> &str {
        "bouncer"
    }

    #[inline]
    fn admit(&self, ty: TypeId, now: Nanos) -> Decision {
        self.can_admit(ty, now)
    }

    #[inline]
    fn on_enqueued(&self, ty: TypeId, _now: Nanos) {
        self.per_type[ty.index()].queued.fetch_add(1, Ordering::Relaxed);
        self.table.on_enqueued(ty.index());
    }

    #[inline]
    fn on_dequeued(&self, ty: TypeId, _wait: Nanos, _now: Nanos) {
        let before = self.per_type[ty.index()].queued.fetch_sub(1, Ordering::Relaxed);
        // A dequeue with nothing queued means a producer published before
        // it accounted; the wrapped count would saturate Eq. 2 demand.
        debug_assert!(before > 0, "queued underflow for type {}", ty.index());
        self.table.on_dequeued(ty.index());
    }

    fn on_completed(&self, ty: TypeId, processing: Nanos, now: Nanos) {
        let i = ty.index();
        self.per_type[i].hist.record(processing, now);
        self.general.record(processing, now);
        // Keep the cache exact through the warm-up bridge: a volatile
        // estimator's reads move with this very sample, so re-price the
        // affected entries now instead of waiting for the next swap.
        let min = self.min_samples();
        if self.per_type[i].hist.is_volatile(min) {
            self.refresh_entry(i, now);
        }
        // A volatile *general* estimator changes the fallback every cold
        // type reads; in the steady state (`cold_types == 0`, general
        // frozen) this costs two relaxed loads.
        if self.general.is_volatile(min) && self.cold_types.load(Ordering::Relaxed) > 0 {
            for j in 0..self.per_type.len() {
                if j != i && !self.table.entry(j).is_warm() {
                    self.refresh_entry(j, now);
                }
            }
        }
    }

    fn on_tick(&self, now: Nanos) {
        let last = self.last_swap.load(Ordering::Acquire);
        if now.saturating_sub(last) < self.cfg.histogram_interval {
            return;
        }
        if self
            .last_swap
            .compare_exchange(last, now, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return; // another thread is performing this swap
        }
        for state in &self.per_type {
            state.hist.on_interval();
        }
        self.general.on_interval();
        self.last_refresh_slot
            .store(now / self.cfg.histogram_interval, Ordering::Release);
        self.rebuild_table(now);
        self.sink
            .emit(|| Event::HistogramSwap { at: now, policy: "bouncer" });
        for i in 0..self.per_type.len() {
            self.sink.emit(|| {
                let entry = self.table.entry(i);
                let n = entry.n_targets();
                Event::EstimateRefresh {
                    at: now,
                    policy: "bouncer",
                    ty: TypeId::from_index(i as u32),
                    warm: entry.is_warm(),
                    mean_ns: fp_to_ns(entry.mean_fp()),
                    pt_tail_ns: if n > 0 { entry.target(n - 1).0 } else { None },
                }
            });
        }
    }

    fn attach_sink(&self, sink: std::sync::Arc<dyn crate::obs::EventSink>) {
        self.sink.attach(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TypeRegistry;
    use bouncer_metrics::time::millis;

    /// Registry with "fast" and "slow"; SLOs of 18/50 ms like the paper's
    /// evaluation; parallelism 4; permissive default SLO.
    fn setup() -> (Bouncer, TypeId, TypeId) {
        let mut reg = TypeRegistry::new();
        let fast = reg.register("fast");
        let slow = reg.register("slow");
        let slos = SloConfig::builder(&reg)
            .default_slo(Slo::p50_p90(millis(100), millis(500)))
            .set(fast, Slo::p50_p90(millis(18), millis(50)))
            .set(slow, Slo::p50_p90(millis(18), millis(50)))
            .build();
        let cfg = BouncerConfig {
            parallelism: 4,
            histogram_interval: secs(1),
            retention_min_samples: 0,
            warmup_min_samples: 8,
            decision_rule: DecisionRule::default(),
            histogram_mode: HistogramMode::default(),
        };
        (Bouncer::new(slos, cfg), fast, slow)
    }

    /// Records `n` completions of duration `pt` and swaps them into the
    /// readable buffer.
    fn feed(b: &Bouncer, ty: TypeId, pt: Nanos, n: usize, now_tick: Nanos) {
        for _ in 0..n {
            b.on_completed(ty, pt, 0);
        }
        b.on_tick(now_tick);
    }

    #[test]
    fn cold_start_accepts_everything() {
        let (b, fast, slow) = setup();
        assert!(b.admit(fast, 0).is_accept());
        assert!(b.admit(slow, 0).is_accept());
        assert!(b.is_warming_up(fast));
        assert_eq!(b.estimated_response(fast, Percentile::P50), None);
    }

    #[test]
    fn fast_queries_within_slo_are_accepted() {
        let (b, fast, _) = setup();
        feed(&b, fast, millis(5), 100, secs(1));
        assert!(!b.is_warming_up(fast));
        assert!(b.admit(fast, secs(1)).is_accept());
    }

    #[test]
    fn queries_whose_p50_exceeds_slo_are_rejected() {
        let (b, _, slow) = setup();
        // pt_p50 = 30ms > SLO_p50 = 18ms even with an empty queue.
        feed(&b, slow, millis(30), 100, secs(1));
        assert_eq!(
            b.admit(slow, secs(1)),
            Decision::Reject(RejectReason::PredictedSloViolation)
        );
    }

    #[test]
    fn p90_violation_alone_rejects() {
        let (b, fast, _) = setup();
        // Mixed distribution: p50 ~ 1ms (fine), p90 ~ 60ms (> 50ms target).
        for _ in 0..80 {
            b.on_completed(fast, millis(1), 0);
        }
        for _ in 0..20 {
            b.on_completed(fast, millis(60), 0);
        }
        b.on_tick(secs(1));
        assert_eq!(
            b.admit(fast, secs(1)),
            Decision::Reject(RejectReason::PredictedSloViolation)
        );
    }

    #[test]
    fn queue_backlog_raises_wait_estimate_and_rejects() {
        let (b, fast, _) = setup();
        feed(&b, fast, millis(10), 100, secs(1));
        // Empty queue: ert_p50 ~ 10ms <= 18ms -> accept.
        assert!(b.admit(fast, secs(1)).is_accept());
        // 8 queued x 10ms / P=4 = 20ms wait -> ert_p50 ~ 30ms > 18ms.
        for _ in 0..8 {
            b.on_enqueued(fast, secs(1));
        }
        assert!(!b.admit(fast, secs(1)).is_accept());
        // Draining the queue restores acceptance.
        for _ in 0..8 {
            b.on_dequeued(fast, millis(1), secs(1));
        }
        assert!(b.admit(fast, secs(1)).is_accept());
    }

    #[test]
    fn wait_estimate_matches_eq2() {
        let (b, fast, slow) = setup();
        // Both types measured within the same interval, then one swap —
        // otherwise the second swap would empty the first type's histogram
        // (retention threshold is 0 in this fixture).
        for _ in 0..100 {
            b.on_completed(fast, millis(10), 0);
            b.on_completed(slow, millis(40), 0);
        }
        b.on_tick(secs(1));
        for _ in 0..3 {
            b.on_enqueued(fast, 0);
        }
        for _ in 0..2 {
            b.on_enqueued(slow, 0);
        }
        // (3*10 + 2*40) / 4 = 27.5ms.
        let ewt = b.estimated_wait_mean();
        let expected = (3.0 * 10.0 + 2.0 * 40.0) / 4.0;
        let got_ms = ewt / 1e6;
        assert!((got_ms - expected).abs() < 1.5, "got {got_ms}ms");
    }

    #[test]
    fn per_type_isolation_rejects_only_offending_type() {
        let (b, fast, slow) = setup();
        for _ in 0..100 {
            b.on_completed(fast, millis(2), 0);
            b.on_completed(slow, millis(45), 0);
        }
        b.on_tick(secs(1));
        assert!(b.admit(fast, secs(1)).is_accept());
        assert!(!b.admit(slow, secs(1)).is_accept());
    }

    #[test]
    fn warming_type_uses_general_histogram_and_default_slo() {
        let (b, fast, slow) = setup();
        // Only "fast" has data; its 30ms exceeds fast/slow SLO p50=18ms but
        // not the default SLO p50=100ms.
        feed(&b, fast, millis(30), 100, secs(1));
        assert!(b.is_warming_up(slow));
        // slow falls back to general histogram (30ms) + default SLO (100ms).
        assert!(b.admit(slow, secs(1)).is_accept());
        // fast is warm: its own SLO applies and rejects.
        assert!(!b.admit(fast, secs(1)).is_accept());
    }

    #[test]
    fn estimated_response_is_wait_plus_percentile() {
        let (b, fast, _) = setup();
        feed(&b, fast, millis(10), 100, secs(1));
        let ert = b.estimated_response(fast, Percentile::P50).unwrap();
        let pt = b.processing_quantile(fast, Percentile::P50).unwrap();
        assert_eq!(ert, pt); // empty queue: ewt = 0
        b.on_enqueued(fast, 0);
        let ert2 = b.estimated_response(fast, Percentile::P50).unwrap();
        assert!(ert2 > ert);
    }

    #[test]
    fn tick_is_paced_by_interval() {
        let (b, fast, _) = setup();
        for _ in 0..100 {
            b.on_completed(fast, millis(5), 0);
        }
        // Before any swap, the populating-buffer bridge already serves
        // estimates (the type is not considered cold)...
        assert!(!b.is_warming_up(fast));
        b.on_tick(millis(500)); // too early: no swap yet
        assert_eq!(b.processing_quantile(fast, Percentile::P50), {
            // ...read from the populating buffer.
            b.processing_quantile(fast, Percentile::P50)
        });
        // After the interval elapses, the samples move to the frozen buffer
        // and a new (empty) populating buffer starts.
        b.on_tick(secs(1));
        let p50 = b.processing_quantile(fast, Percentile::P50).unwrap();
        assert!(p50.abs_diff(millis(5)) < millis(1), "p50={p50}");
        // A second swap with no new samples empties the frozen buffer; the
        // type becomes cold again (and would use the general fallback).
        b.on_tick(secs(2));
        assert!(b.is_warming_up(fast));
    }

    #[test]
    fn retention_keeps_estimates_through_lulls() {
        let mut reg = TypeRegistry::new();
        let t = reg.register("t");
        let slos = SloConfig::uniform(&reg, Slo::p50_p90(millis(18), millis(50)));
        let cfg = BouncerConfig {
            parallelism: 4,
            histogram_interval: secs(1),
            retention_min_samples: 8,
            warmup_min_samples: 8,
            decision_rule: DecisionRule::default(),
            histogram_mode: HistogramMode::default(),
        };
        let b = Bouncer::new(slos, cfg);
        for _ in 0..100 {
            b.on_completed(t, millis(30), 0);
        }
        b.on_tick(secs(1));
        assert!(!b.admit(t, secs(1)).is_accept());
        // A whole interval with no traffic: swap would empty the histogram,
        // but retention keeps the stale 30ms distribution readable.
        b.on_tick(secs(2));
        assert!(!b.admit(t, secs(2)).is_accept());
        assert!(!b.is_warming_up(t));
    }

    #[test]
    fn reject_if_all_is_more_lenient_than_reject_if_any() {
        let mut reg = TypeRegistry::new();
        let t = reg.register("t");
        let slos = SloConfig::uniform(&reg, Slo::p50_p90(millis(18), millis(50)));
        let make = |rule| {
            let mut cfg = BouncerConfig::with_parallelism(4);
            cfg.decision_rule = rule;
            cfg.warmup_min_samples = 1;
            let b = Bouncer::new(slos.clone(), cfg);
            // p50 ~ 25ms (> 18 target) but p90 ~ 30ms (< 50 target): the
            // strict rule rejects, the lenient one does not.
            for _ in 0..90 {
                b.on_completed(t, millis(25), 0);
            }
            for _ in 0..10 {
                b.on_completed(t, millis(30), 0);
            }
            b.on_tick(secs(1));
            b
        };
        let strict = make(DecisionRule::RejectIfAnyViolated);
        let lenient = make(DecisionRule::RejectIfAllViolated);
        assert!(!strict.admit(t, secs(1)).is_accept());
        assert!(lenient.admit(t, secs(1)).is_accept());
        // With both targets violated, even the lenient rule rejects.
        let both = {
            let mut cfg = BouncerConfig::with_parallelism(4);
            cfg.decision_rule = DecisionRule::RejectIfAllViolated;
            cfg.warmup_min_samples = 1;
            let b = Bouncer::new(slos.clone(), cfg);
            for _ in 0..100 {
                b.on_completed(t, millis(60), 0);
            }
            b.on_tick(secs(1));
            b
        };
        assert!(!both.admit(t, secs(1)).is_accept());
    }

    #[test]
    fn sliding_mode_sees_fresh_samples_without_a_swap() {
        let mut reg = TypeRegistry::new();
        let t = reg.register("t");
        let slos = SloConfig::uniform(&reg, Slo::p50_p90(millis(18), millis(50)));
        let mut cfg = BouncerConfig::with_parallelism(4);
        cfg.histogram_mode = HistogramMode::Sliding { intervals: 4 };
        cfg.warmup_min_samples = 8;
        let b = Bouncer::new(slos, cfg);
        for _ in 0..50 {
            b.on_completed(t, millis(30), millis(100));
        }
        // No tick yet: sliding estimates are already live and reject.
        assert!(!b.is_warming_up_at(t, millis(100)));
        assert!(!b.admit(t, millis(200)).is_accept());
    }

    #[test]
    fn sliding_mode_expires_old_intervals() {
        let mut reg = TypeRegistry::new();
        let t = reg.register("t");
        let slos = SloConfig::uniform(&reg, Slo::p50_p90(millis(18), millis(50)));
        let mut cfg = BouncerConfig::with_parallelism(4);
        cfg.histogram_interval = secs(1);
        cfg.histogram_mode = HistogramMode::Sliding { intervals: 2 };
        cfg.warmup_min_samples = 8;
        let b = Bouncer::new(slos, cfg);
        for _ in 0..50 {
            b.on_completed(t, millis(30), 0);
        }
        assert!(!b.admit(t, millis(500)).is_accept());
        // Two interval lengths later the samples have expired: the type is
        // cold again and the (empty) general fallback admits leniently.
        assert!(b.is_warming_up_at(t, secs(3)));
        assert!(b.admit(t, secs(3)).is_accept());
    }

    #[test]
    #[should_panic(expected = "sliding mode needs >= 2 intervals")]
    fn sliding_mode_validates_intervals() {
        let reg = TypeRegistry::new();
        let slos = SloConfig::uniform(&reg, Slo::unbounded());
        let mut cfg = BouncerConfig::with_parallelism(1);
        cfg.histogram_mode = HistogramMode::Sliding { intervals: 1 };
        let _ = Bouncer::new(slos, cfg);
    }

    #[test]
    fn unbounded_slo_never_rejects() {
        let mut reg = TypeRegistry::new();
        let t = reg.register("t");
        let slos = SloConfig::uniform(&reg, Slo::unbounded());
        let b = Bouncer::new(slos, BouncerConfig::with_parallelism(1));
        for _ in 0..100 {
            b.on_completed(t, secs(10), 0);
        }
        b.on_tick(secs(1));
        assert!(b.admit(t, secs(1)).is_accept());
    }
}
