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
//! [`Discipline::PriorityByType`] implements the priority extension §7
//! sketches ("extend Bouncer to support queries served based on
//! priorities"), with FIFO order preserved within a priority level.
//!
//! [`RejectReason::QueueFull`]: crate::policy::RejectReason::QueueFull

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
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

/// The order in which engine processes drain admitted queries.
#[derive(Debug, Clone, Default)]
pub enum Discipline {
    /// First-come, first-served — the paper's deployed order.
    #[default]
    Fifo,
    /// Serve higher-priority types first; FIFO within a priority level.
    /// `priorities[TypeId::index()]` gives each type's level (higher wins);
    /// types beyond the vector's length get priority 0.
    PriorityByType(Vec<u8>),
}

/// A queued item inside the priority heap: ordered by (priority desc,
/// arrival sequence asc).
struct HeapItem<T> {
    priority: u8,
    seq: u64,
    entry: Entry<T>,
}

impl<T> PartialEq for HeapItem<T> {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl<T> Eq for HeapItem<T> {}
impl<T> PartialOrd for HeapItem<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapItem<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: higher priority first, then older sequence first.
        self.priority
            .cmp(&other.priority)
            .then_with(|| Reverse(self.seq).cmp(&Reverse(other.seq)))
    }
}

enum Store<T> {
    Fifo(VecDeque<Entry<T>>),
    Priority {
        heap: BinaryHeap<HeapItem<T>>,
        priorities: Vec<u8>,
        next_seq: u64,
    },
}

impl<T> Store<T> {
    fn len(&self) -> usize {
        match self {
            Store::Fifo(q) => q.len(),
            Store::Priority { heap, .. } => heap.len(),
        }
    }

    fn push(&mut self, entry: Entry<T>) {
        match self {
            Store::Fifo(q) => q.push_back(entry),
            Store::Priority {
                heap,
                priorities,
                next_seq,
            } => {
                let priority = priorities.get(entry.ty.index()).copied().unwrap_or(0);
                heap.push(HeapItem {
                    priority,
                    seq: *next_seq,
                    entry,
                });
                *next_seq += 1;
            }
        }
    }

    fn pop(&mut self) -> Option<Entry<T>> {
        match self {
            Store::Fifo(q) => q.pop_front(),
            Store::Priority { heap, .. } => heap.pop().map(|item| item.entry),
        }
    }
}

struct Inner<T> {
    store: Store<T>,
    closed: bool,
}

/// A thread-safe bounded queue with blocking consumers and a pluggable
/// service discipline.
pub struct AdmissionQueue<T> {
    inner: Mutex<Inner<T>>,
    available: Condvar,
    max_len: Option<usize>,
}

impl<T> AdmissionQueue<T> {
    /// Creates a FIFO queue; `max_len` is the `L_limit` safeguard (`None`
    /// for unbounded, as in the paper's simulation study).
    pub fn new(max_len: Option<usize>) -> Self {
        Self::with_discipline(max_len, Discipline::Fifo)
    }

    /// Creates a queue with an explicit service discipline.
    pub fn with_discipline(max_len: Option<usize>, discipline: Discipline) -> Self {
        let store = match discipline {
            Discipline::Fifo => Store::Fifo(VecDeque::new()),
            Discipline::PriorityByType(priorities) => Store::Priority {
                heap: BinaryHeap::new(),
                priorities,
                next_seq: 0,
            },
        };
        Self {
            inner: Mutex::new(Inner {
                store,
                closed: false,
            }),
            available: Condvar::new(),
            max_len,
        }
    }

    /// Appends an entry, failing (returning it back) when the queue is full
    /// or closed.
    pub fn push(&self, entry: Entry<T>) -> Result<(), Entry<T>> {
        self.push_with(entry, || {}).map(|_| ())
    }

    /// [`AdmissionQueue::push`] that runs `on_accept` under the queue lock
    /// once the entry is certain to be queued, before any consumer can pop
    /// it. Returns the queue length with the entry included.
    pub fn push_with(&self, entry: Entry<T>, on_accept: impl FnOnce()) -> Result<usize, Entry<T>> {
        let mut inner = self.inner.lock();
        if inner.closed {
            return Err(entry);
        }
        if let Some(limit) = self.max_len {
            if inner.store.len() >= limit {
                return Err(entry);
            }
        }
        on_accept();
        inner.store.push(entry);
        let len = inner.store.len();
        drop(inner);
        self.available.notify_one();
        Ok(len)
    }

    /// Dequeues the oldest entry, blocking up to `timeout` (or indefinitely
    /// if `None`) while the queue is empty and open.
    pub fn pop(&self, timeout: Option<Duration>) -> PopOutcome<T> {
        let mut inner = self.inner.lock();
        loop {
            if let Some(entry) = inner.store.pop() {
                return PopOutcome::Entry(entry);
            }
            if inner.closed {
                return PopOutcome::Closed;
            }
            match timeout {
                Some(t) => {
                    if self.available.wait_for(&mut inner, t).timed_out() {
                        return match inner.store.pop() {
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
        self.inner.lock().store.pop()
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
    fn priority_discipline_serves_high_priority_first() {
        // Types 0 (low) and 1 (high).
        let q = AdmissionQueue::with_discipline(None, Discipline::PriorityByType(vec![0, 5]));
        q.push(entry(0, 1)).unwrap();
        q.push(entry(0, 2)).unwrap();
        q.push(entry(1, 3)).unwrap();
        q.push(entry(0, 4)).unwrap();
        q.push(entry(1, 5)).unwrap();
        let order: Vec<u32> = std::iter::from_fn(|| q.try_pop().map(|e| e.payload)).collect();
        // High-priority entries first (FIFO among them), then the lows.
        assert_eq!(order, vec![1, 1, 0, 0, 0]);
    }

    #[test]
    fn priority_is_fifo_within_a_level() {
        let q: AdmissionQueue<u64> =
            AdmissionQueue::with_discipline(None, Discipline::PriorityByType(vec![3]));
        for i in 0..10u64 {
            q.push(Entry {
                ty: TypeId(0),
                enqueued_at: i,
                deadline: None,
                payload: i,
            })
            .unwrap();
        }
        for i in 0..10u64 {
            assert_eq!(q.try_pop().unwrap().payload, i);
        }
    }

    #[test]
    fn unlisted_types_default_to_priority_zero() {
        let q = AdmissionQueue::with_discipline(None, Discipline::PriorityByType(vec![0, 9]));
        q.push(entry(7, 1)).unwrap(); // type 7 beyond the vector -> 0
        q.push(entry(1, 2)).unwrap();
        assert_eq!(q.try_pop().unwrap().ty, TypeId(1));
        assert_eq!(q.try_pop().unwrap().ty, TypeId(7));
    }

    #[test]
    fn priority_queue_honors_length_limit() {
        let q = AdmissionQueue::with_discipline(Some(2), Discipline::PriorityByType(vec![1]));
        q.push(entry(0, 1)).unwrap();
        q.push(entry(0, 2)).unwrap();
        assert!(q.push(entry(0, 3)).is_err());
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
