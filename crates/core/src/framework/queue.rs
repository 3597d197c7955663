//! The bounded FIFO queue between the admission policy and the query-engine
//! processes.
//!
//! "In LIquid not only MaxQL, but the other policies too can enforce a limit
//! on the queue's length to safeguard against its unbounded growth" (§5.4) —
//! the bound lives here in the framework, so any policy gets the `L_limit`
//! safeguard; an over-limit push is reported as a [`RejectReason::QueueFull`]
//! rejection by the gate.
//!
//! The paper's LIquid "currently processes queries in FIFO order and
//! evaluating other scheduling disciplines is left as future work" (§6);
//! the §7 scheduling ablation (priority by type, shortest job first) runs
//! on the simulator's queue, `bouncer_sim::queue`.
//!
//! [`RejectReason::QueueFull`]: crate::policy::RejectReason::QueueFull

use std::collections::VecDeque;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use bouncer_metrics::Nanos;

use crate::types::TypeId;

/// A queued query: its type, enqueue timestamp, optional expiration, and
/// caller payload.
#[derive(Debug)]
pub struct Entry<T> {
    /// The query's type.
    pub ty: TypeId,
    /// When the query entered the queue.
    pub enqueued_at: Nanos,
    /// Absolute expiration time; queries past it are not worth processing
    /// ("brokers and shards also enforce expiration times for admitted
    /// queries", §5.1). `None` = never expires.
    pub deadline: Option<Nanos>,
    /// Caller data carried through the queue (the query itself).
    pub payload: T,
}

/// Outcome of a blocking pop.
#[derive(Debug)]
pub enum PopOutcome<T> {
    /// An entry was dequeued.
    Entry(Entry<T>),
    /// The queue was closed and drained; engine threads should exit.
    Closed,
    /// The timeout elapsed with the queue empty.
    TimedOut,
}

struct Inner<T> {
    store: VecDeque<Entry<T>>,
    closed: bool,
}

/// A thread-safe bounded FIFO queue with blocking consumers.
pub struct AdmissionQueue<T> {
    inner: Mutex<Inner<T>>,
    available: Condvar,
    max_len: Option<usize>,
}

impl<T> AdmissionQueue<T> {
    /// Creates a FIFO queue; `max_len` is the `L_limit` safeguard (`None`
    /// for unbounded, as in the paper's simulation study).
    pub fn new(max_len: Option<usize>) -> Self {
        Self {
            inner: Mutex::new(Inner {
                store: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            max_len,
        }
    }

    /// Appends an entry, failing (returning it back) when the queue is full
    /// or closed.
    pub fn push(&self, entry: Entry<T>) -> Result<(), Entry<T>> {
        self.push_with(entry, |_| {})
    }

    /// [`AdmissionQueue::push`] that runs `on_accept` under the queue lock
    /// once the entry is certain to be queued, before any consumer can pop
    /// it, passing the queue length with the entry included.
    pub fn push_with(
        &self,
        entry: Entry<T>,
        on_accept: impl FnOnce(usize),
    ) -> Result<(), Entry<T>> {
        let mut inner = self.inner.lock();
        if inner.closed {
            return Err(entry);
        }
        if let Some(limit) = self.max_len {
            if inner.store.len() >= limit {
                return Err(entry);
            }
        }
        on_accept(inner.store.len() + 1);
        inner.store.push_back(entry);
        drop(inner);
        self.available.notify_one();
        Ok(())
    }

    /// Dequeues the oldest entry, blocking up to `timeout` (or indefinitely
    /// if `None`) while the queue is empty and open.
    pub fn pop(&self, timeout: Option<Duration>) -> PopOutcome<T> {
        let mut inner = self.inner.lock();
        loop {
            if let Some(entry) = inner.store.pop_front() {
                return PopOutcome::Entry(entry);
            }
            if inner.closed {
                return PopOutcome::Closed;
            }
            match timeout {
                Some(t) => {
                    if self.available.wait_for(&mut inner, t).timed_out() {
                        return match inner.store.pop_front() {
                            Some(entry) => PopOutcome::Entry(entry),
                            None if inner.closed => PopOutcome::Closed,
                            None => PopOutcome::TimedOut,
                        };
                    }
                }
                None => self.available.wait(&mut inner),
            }
        }
    }

    /// Attempts a non-blocking dequeue.
    pub fn try_pop(&self) -> Option<Entry<T>> {
        self.inner.lock().store.pop_front()
    }

    /// Current queue length.
    pub fn len(&self) -> usize {
        self.inner.lock().store.len()
    }

    /// `true` when no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes the queue: future pushes fail, and consumers observe
    /// [`PopOutcome::Closed`] once drained.
    pub fn close(&self) {
        self.inner.lock().closed = true;
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn entry(ty: u32, t: Nanos) -> Entry<u32> {
        Entry {
            ty: TypeId(ty),
            enqueued_at: t,
            deadline: None,
            payload: ty,
        }
    }

    #[test]
    fn fifo_order() {
        let q = AdmissionQueue::new(None);
        q.push(entry(1, 10)).unwrap();
        q.push(entry(2, 20)).unwrap();
        match q.pop(None) {
            PopOutcome::Entry(e) => assert_eq!(e.payload, 1),
            other => panic!("{other:?}"),
        }
        assert_eq!(q.try_pop().unwrap().payload, 2);
        assert!(q.is_empty());
    }

    #[test]
    fn bounded_queue_rejects_overflow() {
        let q = AdmissionQueue::new(Some(2));
        q.push(entry(1, 0)).unwrap();
        q.push(entry(2, 0)).unwrap();
        let back = q.push(entry(3, 0)).unwrap_err();
        assert_eq!(back.payload, 3);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn pop_times_out_when_empty() {
        let q: AdmissionQueue<u32> = AdmissionQueue::new(None);
        match q.pop(Some(Duration::from_millis(5))) {
            PopOutcome::TimedOut => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q: Arc<AdmissionQueue<u32>> = Arc::new(AdmissionQueue::new(None));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || matches!(q2.pop(None), PopOutcome::Closed));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(h.join().unwrap());
        assert!(q.push(entry(1, 0)).is_err());
    }

    #[test]
    fn drains_remaining_entries_after_close() {
        let q = AdmissionQueue::new(None);
        q.push(entry(1, 0)).unwrap();
        q.close();
        assert!(matches!(q.pop(None), PopOutcome::Entry(_)));
        assert!(matches!(q.pop(None), PopOutcome::Closed));
    }

    #[test]
    fn producer_consumer_transfers_everything() {
        let q: Arc<AdmissionQueue<u64>> = Arc::new(AdmissionQueue::new(None));
        let n = 10_000u64;
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..n {
                        q.push(Entry {
                            ty: TypeId(0),
                            enqueued_at: i,
                            deadline: None,
                            payload: p * n + i,
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut sum = 0u64;
                    loop {
                        match q.pop(None) {
                            PopOutcome::Entry(e) => sum += e.payload,
                            PopOutcome::Closed => return sum,
                            PopOutcome::TimedOut => unreachable!(),
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let got: u64 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        let expected: u64 = (0..4 * n).sum();
        assert_eq!(got, expected);
    }
}
