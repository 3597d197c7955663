//! The paper's dual-buffer histogram technique (§3, footnote 4).
//!
//! "While one histogram is only read, a second histogram is being populated.
//! At the end of a time interval the new and old histograms are swapped
//! atomically, and the old histogram is reset before being populated again."
//!
//! Reads therefore always see the *previous* interval's distribution — a
//! stable snapshot that changes only at swap points, which is what makes
//! per-query percentile lookups cheap and consistent within an interval.
//!
//! This implementation also covers the retention rule from Appendix A: when
//! a query type goes quiet, swapping would replace its histogram with an
//! empty one, so [`DualHistogram::swap`] keeps the previous interval's data
//! when the populated buffer holds fewer than a configured minimum number of
//! samples ("we prefer stale data to no data").

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::histogram::{AtomicHistogram, HistogramSnapshot};

/// Outcome of a swap attempt, mostly useful for observability and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapOutcome {
    /// Buffers were swapped; reads now serve the just-finished interval.
    Swapped,
    /// The populated buffer had too few samples; the read buffer was
    /// retained and the populated buffer keeps accumulating (Appendix A).
    Retained,
}

/// A pair of [`AtomicHistogram`]s: writers record into the *active* buffer,
/// readers query the *frozen* one populated during the previous interval.
///
/// A writer that races with [`swap`](Self::swap) may deposit a sample into
/// the buffer that just froze; the paper's technique has the same benign
/// window and the effect is bounded by the number of in-flight recordings.
pub struct DualHistogram {
    buffers: [AtomicHistogram; 2],
    /// Index of the buffer currently being populated.
    active: AtomicUsize,
    /// Samples below this threshold cause `swap` to retain the read buffer.
    min_samples_to_swap: u64,
}

impl std::fmt::Debug for DualHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DualHistogram")
            .field("frozen_count", &self.frozen().count())
            .field("active_count", &self.active().count())
            .finish()
    }
}

impl DualHistogram {
    /// Creates an empty dual histogram that always swaps (threshold 0).
    pub fn new() -> Self {
        Self::with_min_samples(0)
    }

    /// Creates a dual histogram that retains the frozen buffer whenever the
    /// populated buffer holds fewer than `min_samples` entries at swap time.
    pub fn with_min_samples(min_samples: u64) -> Self {
        Self {
            buffers: [AtomicHistogram::new(), AtomicHistogram::new()],
            active: AtomicUsize::new(0),
            min_samples_to_swap: min_samples,
        }
    }

    #[inline]
    fn active(&self) -> &AtomicHistogram {
        &self.buffers[self.active.load(Ordering::Acquire)]
    }

    #[inline]
    fn frozen(&self) -> &AtomicHistogram {
        &self.buffers[1 - self.active.load(Ordering::Acquire)]
    }

    /// Records one sample into the buffer being populated.
    #[inline]
    pub fn record(&self, value: u64) {
        self.active().record(value);
    }

    /// Ends the current interval: freezes the populated buffer for reading
    /// and resets the previously read buffer for population — unless the
    /// populated buffer is under the retention threshold, in which case the
    /// read buffer is kept and population continues (Appendix A).
    pub fn swap(&self) -> SwapOutcome {
        let active = self.active.load(Ordering::Acquire);
        if self.buffers[active].count() < self.min_samples_to_swap {
            return SwapOutcome::Retained;
        }
        let next = 1 - active;
        self.buffers[next].reset();
        self.active.store(next, Ordering::Release);
        SwapOutcome::Swapped
    }

    /// Number of samples in the frozen (readable) buffer.
    #[inline]
    pub fn read_count(&self) -> u64 {
        self.frozen().count()
    }

    /// `true` if the frozen buffer holds no samples (cold start).
    #[inline]
    pub fn is_cold(&self) -> bool {
        self.frozen().is_empty()
    }

    /// Mean of the frozen buffer, or `None` if cold.
    #[inline]
    pub fn mean(&self) -> Option<f64> {
        self.frozen().mean()
    }

    /// Quantile of the frozen buffer, or `None` if cold.
    #[inline]
    pub fn value_at_quantile(&self, q: f64) -> Option<u64> {
        self.frozen().value_at_quantile(q)
    }

    /// Several quantiles of the frozen buffer in one cumulative scan (see
    /// [`AtomicHistogram::values_at_quantiles`]).
    #[inline]
    pub fn values_at_quantiles(&self, qs: &[f64], out: &mut [Option<u64>]) {
        self.frozen().values_at_quantiles(qs, out)
    }

    /// Snapshot of the frozen buffer.
    pub fn read_snapshot(&self) -> HistogramSnapshot {
        self.frozen().snapshot()
    }

    /// Number of samples accumulated so far in the buffer being populated.
    #[inline]
    pub fn populating_count(&self) -> u64 {
        self.active().count()
    }

    /// Mean of the buffer being populated (the *current*, still-open
    /// interval), or `None` if it is empty.
    ///
    /// Readers normally use the frozen buffer; this accessor lets a policy
    /// bridge a type whose frozen buffer went empty with the freshest
    /// partial data instead of flying blind for a whole interval.
    #[inline]
    pub fn populating_mean(&self) -> Option<f64> {
        self.active().mean()
    }

    /// Quantile of the buffer being populated, or `None` if it is empty.
    #[inline]
    pub fn populating_quantile(&self, q: f64) -> Option<u64> {
        self.active().value_at_quantile(q)
    }

    /// Several quantiles of the populating buffer in one cumulative scan.
    #[inline]
    pub fn populating_quantiles(&self, qs: &[f64], out: &mut [Option<u64>]) {
        self.active().values_at_quantiles(qs, out)
    }
}

impl Default for DualHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_see_previous_interval_only() {
        let d = DualHistogram::new();
        d.record(100);
        d.record(200);
        // Nothing frozen yet: cold.
        assert!(d.is_cold());
        assert_eq!(d.mean(), None);

        assert_eq!(d.swap(), SwapOutcome::Swapped);
        assert_eq!(d.read_count(), 2);
        assert_eq!(d.mean(), Some(150.0));

        // New interval's samples are invisible until the next swap.
        d.record(1_000_000);
        assert_eq!(d.mean(), Some(150.0));

        assert_eq!(d.swap(), SwapOutcome::Swapped);
        assert_eq!(d.read_count(), 1);
        assert!(d.mean().unwrap() > 900_000.0);
    }

    #[test]
    fn swap_resets_the_new_active_buffer() {
        let d = DualHistogram::new();
        d.record(1);
        d.swap();
        d.record(2);
        d.swap();
        // The buffer that held {1} must have been reset before repopulation.
        assert_eq!(d.read_count(), 1);
        d.swap();
        assert_eq!(d.read_count(), 0);
    }

    #[test]
    fn retention_keeps_stale_data_over_no_data() {
        let d = DualHistogram::with_min_samples(10);
        for _ in 0..10 {
            d.record(500);
        }
        assert_eq!(d.swap(), SwapOutcome::Swapped);
        assert_eq!(d.read_count(), 10);

        // Traffic lull: only 3 samples this interval -> retain.
        for _ in 0..3 {
            d.record(900);
        }
        assert_eq!(d.swap(), SwapOutcome::Retained);
        assert_eq!(d.read_count(), 10);
        assert_eq!(d.mean(), Some(500.0));

        // The under-threshold samples keep accumulating and eventually swap.
        for _ in 0..7 {
            d.record(900);
        }
        assert_eq!(d.swap(), SwapOutcome::Swapped);
        assert_eq!(d.read_count(), 10);
        assert_eq!(d.mean(), Some(900.0));
    }

    #[test]
    fn concurrent_record_and_swap_is_safe() {
        use std::sync::atomic::AtomicBool;
        use std::sync::{Arc, Barrier};
        const WRITERS: usize = 4;
        let d = Arc::new(DualHistogram::new());
        let stop = Arc::new(AtomicBool::new(false));
        // Every writer records once before the swap loop starts, so the
        // final count does not depend on the scheduler.
        let started = Arc::new(Barrier::new(WRITERS + 1));
        let writers: Vec<_> = (0..WRITERS)
            .map(|_| {
                let d = Arc::clone(&d);
                let stop = Arc::clone(&stop);
                let started = Arc::clone(&started);
                std::thread::spawn(move || {
                    d.record(0);
                    started.wait();
                    let mut n = 1u64;
                    while !stop.load(Ordering::Relaxed) {
                        d.record(n % 10_000);
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        started.wait();
        for _ in 0..1_000 {
            d.swap();
            let _ = d.value_at_quantile(0.9);
            let _ = d.mean();
        }
        stop.store(true, Ordering::Relaxed);
        let written: u64 = writers.into_iter().map(|t| t.join().unwrap()).sum();
        assert!(written >= WRITERS as u64);
    }
}
