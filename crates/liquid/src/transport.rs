//! Broker→shard transports: in-process and TCP.
//!
//! Experiments default to the in-process transport (deterministic, no
//! kernel in the measurement path); the TCP transport exercises the same
//! code over real sockets with length-prefixed frames and correlation-id
//! multiplexing, for deployments where hosts are separate processes.
//!
//! Both transports carry one request shape, the per-shard batch
//! ([`ShardClient::submit_batch`]): a round's sub-queries to one shard
//! travel as one frame, land as one admission unit, and come back as one
//! batched reply — one reply channel, one frame write, one frame read,
//! however wide the fan-out (a single sub-query is a batch of one). Frame
//! encoding recycles buffers through a bounded [`BufferPool`] (client side,
//! arbitrary submitter threads) or a per-thread scratch vec (server loops),
//! and every frame is staged with [`begin_frame`]/[`end_frame`] so it goes
//! out in a single `write_all`.

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use bouncer_core::obs::TraceContext;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::query::SubQuery;
use crate::shard::{ShardHost, SubOutcome};
use crate::wire::{
    begin_frame, decode_subreply_any, decode_subrequest, encode_cancel_into,
    encode_subquery_batch_into, encode_subreply_batch_into, end_frame, read_frame_into,
    BufferPool, SubReplyBody, SubRequest,
};

/// A handle a broker uses to reach one shard.
pub trait ShardClient: Send + Sync {
    /// Offers a round's sub-queries to this shard as **one** admission
    /// unit; the returned channel yields one outcome per sub-query, in
    /// submission order. An admission rejection rejects the whole batch.
    /// The optional trace context rides along — by value in process, as
    /// the versioned trailing wire field over TCP.
    fn submit_batch(
        &self,
        subs: Vec<SubQuery>,
        ctx: Option<TraceContext>,
    ) -> Receiver<Vec<SubOutcome>>;

    /// [`ShardClient::submit_batch`] plus a [`CancelHandle`] for hedged
    /// fan-out: cancelling before the shard dequeues the batch makes it
    /// reply per-item `Cancelled` without executing (and without charging
    /// processing time); cancelling later is a harmless no-op. A reply
    /// always arrives either way. The default implementation has no cancel
    /// path and returns a no-op handle.
    fn submit_batch_cancellable(
        &self,
        subs: Vec<SubQuery>,
        ctx: Option<TraceContext>,
    ) -> (Receiver<Vec<SubOutcome>>, CancelHandle) {
        (self.submit_batch(subs, ctx), CancelHandle::noop())
    }
}

/// Best-effort cancellation of one in-flight batch (see
/// [`ShardClient::submit_batch_cancellable`]). In process it flips the
/// shard host's cancel flag directly; over TCP it writes a cancel frame
/// carrying the batch's correlation id.
pub struct CancelHandle(CancelInner);

enum CancelInner {
    /// Nothing to cancel.
    Noop,
    /// In-process / rings: the shard-side cancel flag.
    Flag(Arc<AtomicBool>),
    /// TCP: tell the server to flip the flag on its side.
    Tcp { conn: Arc<TcpConn>, id: u64 },
}

impl CancelHandle {
    /// A handle that cancels nothing.
    pub fn noop() -> Self {
        Self(CancelInner::Noop)
    }

    pub(crate) fn flag(flag: Arc<AtomicBool>) -> Self {
        Self(CancelInner::Flag(flag))
    }

    /// Requests cancellation. Consumes the handle — cancel is one-shot.
    pub fn cancel(self) {
        match self.0 {
            CancelInner::Noop => {}
            CancelInner::Flag(flag) => flag.store(true, Ordering::Release),
            CancelInner::Tcp { conn, id } => {
                let mut frame = Vec::with_capacity(13);
                let start = begin_frame(&mut frame);
                encode_cancel_into(&mut frame, id);
                end_frame(&mut frame, start);
                let mut writer = conn.writer.lock();
                let _ = writer.write_all(&frame).and_then(|_| writer.flush());
            }
        }
    }
}

/// Same-process transport: calls into the shard host directly.
pub struct InProcShardClient {
    host: Arc<ShardHost>,
}

impl InProcShardClient {
    /// Wraps a shard host.
    pub fn new(host: Arc<ShardHost>) -> Self {
        Self { host }
    }
}

impl ShardClient for InProcShardClient {
    fn submit_batch(
        &self,
        subs: Vec<SubQuery>,
        ctx: Option<TraceContext>,
    ) -> Receiver<Vec<SubOutcome>> {
        self.host.submit_batch(subs, ctx)
    }

    fn submit_batch_cancellable(
        &self,
        subs: Vec<SubQuery>,
        ctx: Option<TraceContext>,
    ) -> (Receiver<Vec<SubOutcome>>, CancelHandle) {
        let (rx, flag) = self.host.submit_batch_cancellable(subs, ctx);
        (rx, CancelHandle::flag(flag))
    }
}

/// Serves a shard host over TCP.
pub struct TcpShardServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
}

impl TcpShardServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// `host`. Returns once the listener is ready.
    pub fn serve(host: Arc<ShardHost>, addr: &str) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        std::thread::Builder::new()
            .name(format!("shard-listener-{addr}"))
            .spawn(move || {
                for stream in listener.incoming() {
                    if stop2.load(Ordering::Acquire) {
                        break;
                    }
                    match stream {
                        Ok(stream) => spawn_connection(Arc::clone(&host), stream),
                        Err(_) => break,
                    }
                }
            })?;
        Ok(Self { addr, stop })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting new connections (existing ones drain naturally when
    /// clients disconnect).
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A reply the responder thread still has to write, in submission order:
/// correlation id, batch width, outcome channel.
type PendingReply = (u64, usize, Receiver<Vec<SubOutcome>>);

/// One connection: a reader that decodes requests and submits them, and a
/// responder that writes outcomes back in submission order. Responses are
/// therefore delivered in request order per connection — acceptable because
/// the shard's own FIFO queue completes them in roughly that order anyway.
///
/// Each loop thread owns one scratch buffer, so the steady-state read and
/// write paths stop allocating once the buffers reach the connection's
/// working frame size.
fn spawn_connection(host: Arc<ShardHost>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let mut read_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (tx, rx): (Sender<PendingReply>, Receiver<PendingReply>) = unbounded();
    // Cancel tokens of this connection's in-flight batches, by correlation
    // id. The reader inserts before handing the reply off; the responder
    // removes once the reply is written; a cancel frame in between flips
    // the flag the shard engine checks at dequeue.
    let cancels: Arc<Mutex<HashMap<u64, Arc<AtomicBool>>>> = Arc::new(Mutex::new(HashMap::new()));
    let reader_cancels = Arc::clone(&cancels);

    std::thread::spawn(move || {
        let mut scratch = Vec::new();
        while let Ok(n) = read_frame_into(&mut read_half, &mut scratch) {
            match decode_subrequest(&scratch[..n]) {
                Ok((id, SubRequest::Batch(subs), ctx)) => {
                    let len = subs.len();
                    let (outcome_rx, cancel) = host.submit_batch_cancellable(subs, ctx);
                    reader_cancels.lock().insert(id, cancel);
                    if tx.send((id, len, outcome_rx)).is_err() {
                        break;
                    }
                }
                Ok((id, SubRequest::Cancel, _)) => {
                    // Best-effort; a cancel for an id already replied to
                    // (or never seen) is silently ignored, and cancel
                    // frames never get a reply of their own.
                    if let Some(flag) = reader_cancels.lock().get(&id) {
                        flag.store(true, Ordering::Release);
                    }
                }
                Err(_) => break, // protocol violation: drop the connection
            }
        }
    });

    let mut write_half = stream;
    std::thread::spawn(move || {
        let mut frame = Vec::new();
        for (id, len, outcome_rx) in rx.iter() {
            frame.clear();
            let start = begin_frame(&mut frame);
            let outcomes = outcome_rx
                .recv()
                .unwrap_or_else(|_| vec![SubOutcome::Error; len]);
            encode_subreply_batch_into(&mut frame, id, &outcomes);
            cancels.lock().remove(&id);
            end_frame(&mut frame, start);
            if write_half.write_all(&frame).is_err() {
                break;
            }
            if write_half.flush().is_err() {
                break;
            }
        }
    });
}

/// A reply channel waiting on a correlation id, with the batch width so a
/// dying connection can fail every item.
struct PendingTx(Sender<Vec<SubOutcome>>, usize);

impl PendingTx {
    fn fail(self) {
        let _ = self.0.send(vec![SubOutcome::Error; self.1]);
    }
}

type Pending = Arc<Mutex<HashMap<u64, PendingTx>>>;

struct TcpConn {
    writer: Mutex<TcpStream>,
    pending: Pending,
}

/// TCP client to one shard, multiplexing requests over a small pool of
/// connections by correlation id.
pub struct TcpShardClient {
    conns: Vec<Arc<TcpConn>>,
    next_conn: AtomicUsize,
    next_id: AtomicU64,
    /// Recycled encode buffers for submitter threads (see [`BufferPool`]).
    pool: Arc<BufferPool>,
}

impl TcpShardClient {
    /// Opens `connections` sockets to a shard server.
    pub fn connect(addr: SocketAddr, connections: usize) -> std::io::Result<Self> {
        assert!(connections > 0);
        let mut conns = Vec::with_capacity(connections);
        for _ in 0..connections {
            let stream = TcpStream::connect(addr)?;
            let _ = stream.set_nodelay(true);
            let pending: Pending = Arc::new(Mutex::new(HashMap::new()));
            let mut read_half = stream.try_clone()?;
            let reader_pending = Arc::clone(&pending);
            std::thread::spawn(move || {
                let mut scratch = Vec::new();
                while let Ok(n) = read_frame_into(&mut read_half, &mut scratch) {
                    let Ok((id, body)) = decode_subreply_any(&scratch[..n]) else {
                        break;
                    };
                    let Some(tx) = reader_pending.lock().remove(&id) else {
                        continue;
                    };
                    let SubReplyBody::Batch(outcomes) = body;
                    let _ = tx.0.send(outcomes);
                }
                // Connection gone: fail everything still pending.
                for (_, tx) in reader_pending.lock().drain() {
                    tx.fail();
                }
            });
            conns.push(Arc::new(TcpConn {
                writer: Mutex::new(stream),
                pending,
            }));
        }
        Ok(Self {
            conns,
            next_conn: AtomicUsize::new(0),
            next_id: AtomicU64::new(1),
            pool: BufferPool::for_transport(),
        })
    }

    /// The client's encode-buffer pool, for observability snapshots.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Registers a waiter, writes one staged frame, and unwinds the waiter
    /// on a failed write.
    fn send_frame(&self, id: u64, conn: &TcpConn, frame: &[u8]) {
        let mut writer = conn.writer.lock();
        let write_result = writer.write_all(frame).and_then(|_| writer.flush());
        drop(writer);
        if write_result.is_err() {
            if let Some(tx) = conn.pending.lock().remove(&id) {
                tx.fail();
            }
        }
    }

    fn next_conn(&self) -> &Arc<TcpConn> {
        &self.conns[self.next_conn.fetch_add(1, Ordering::Relaxed) % self.conns.len()]
    }
}

impl ShardClient for TcpShardClient {
    fn submit_batch(
        &self,
        subs: Vec<SubQuery>,
        ctx: Option<TraceContext>,
    ) -> Receiver<Vec<SubOutcome>> {
        self.submit_batch_cancellable(subs, ctx).0
    }

    fn submit_batch_cancellable(
        &self,
        subs: Vec<SubQuery>,
        ctx: Option<TraceContext>,
    ) -> (Receiver<Vec<SubOutcome>>, CancelHandle) {
        let (tx, rx) = bounded(1);
        if subs.is_empty() {
            let _ = tx.send(Vec::new());
            return (rx, CancelHandle::noop());
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let conn = Arc::clone(self.next_conn());
        conn.pending.lock().insert(id, PendingTx(tx, subs.len()));
        let mut frame = self.pool.get();
        let start = begin_frame(&mut frame);
        encode_subquery_batch_into(&mut frame, id, &subs, ctx.as_ref());
        end_frame(&mut frame, start);
        self.send_frame(id, &conn, &frame);
        (rx, CancelHandle(CancelInner::Tcp { conn, id }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Graph, GraphConfig};
    use crate::query::SubResponse;
    use crate::shard::ShardConfig;
    use bouncer_core::policy::AlwaysAccept;
    use bouncer_metrics::MonotonicClock;

    fn test_host() -> (Graph, Arc<ShardHost>) {
        let g = Graph::generate(&GraphConfig {
            vertices: 500,
            edges_per_vertex: 3,
            seed: 9,
        });
        let host = ShardHost::spawn(
            Arc::new(g.shard_slice(0, 1)),
            Arc::new(AlwaysAccept::new()),
            Arc::new(MonotonicClock::new()),
            ShardConfig::default(),
        );
        (g, host)
    }

    #[test]
    fn inproc_client_round_trips() {
        let (g, host) = test_host();
        let client = InProcShardClient::new(Arc::clone(&host));
        let rx = client.submit_batch(vec![SubQuery::Degree(5)], None);
        assert_eq!(
            rx.recv().unwrap(),
            vec![SubOutcome::Ok(SubResponse::Count(g.degree(5) as u64))]
        );
        host.shutdown();
    }

    #[test]
    fn tcp_client_round_trips_over_real_sockets() {
        let (g, host) = test_host();
        let server = TcpShardServer::serve(Arc::clone(&host), "127.0.0.1:0").unwrap();
        let client = TcpShardClient::connect(server.addr(), 2).unwrap();

        // Interleave several requests to exercise multiplexing.
        let receivers: Vec<_> = (0..50)
            .map(|v| client.submit_batch(vec![SubQuery::Degree(v)], None))
            .collect();
        for (v, rx) in receivers.into_iter().enumerate() {
            assert_eq!(
                rx.recv().unwrap(),
                vec![SubOutcome::Ok(SubResponse::Count(g.degree(v as u32) as u64))],
                "vertex {v}"
            );
        }
        server.stop();
        host.shutdown();
    }

    #[test]
    fn tcp_transports_large_batches() {
        let (g, host) = test_host();
        let server = TcpShardServer::serve(Arc::clone(&host), "127.0.0.1:0").unwrap();
        let client = TcpShardClient::connect(server.addr(), 1).unwrap();
        let vs: Vec<u32> = (0..500).collect();
        let rx = client.submit_batch(vec![SubQuery::NeighborsMany(vs.into())], None);
        match rx.recv().unwrap().pop().unwrap() {
            SubOutcome::Ok(SubResponse::IdLists(lists)) => {
                assert_eq!(lists.len(), 500);
                assert_eq!(lists.get(42).unwrap(), g.neighbors(42));
            }
            other => panic!("{other:?}"),
        }
        server.stop();
        host.shutdown();
    }

    #[test]
    fn tcp_cancel_frame_cancels_a_queued_batch() {
        let g = Graph::generate(&GraphConfig {
            vertices: 500,
            edges_per_vertex: 3,
            seed: 9,
        });
        let host = ShardHost::spawn(
            Arc::new(g.shard_slice(0, 1)),
            Arc::new(AlwaysAccept::new()),
            Arc::new(MonotonicClock::new()),
            ShardConfig {
                engines: 1,
                ..ShardConfig::default()
            },
        );
        let server = TcpShardServer::serve(Arc::clone(&host), "127.0.0.1:0").unwrap();
        let client = TcpShardClient::connect(server.addr(), 1).unwrap();
        // Park heavy work in front of the single engine, then cancel a
        // batch queued behind it before the engine can reach it.
        let heavy: Vec<_> = (0..8)
            .map(|_| {
                client.submit_batch(
                    vec![SubQuery::NeighborsMany(Arc::new((0..500).collect())); 32],
                    None,
                )
            })
            .collect();
        let (rx, handle) = client.submit_batch_cancellable(vec![SubQuery::Degree(0); 3], None);
        handle.cancel();
        for h in heavy {
            assert!(h.recv().unwrap().iter().all(|o| matches!(o, SubOutcome::Ok(_))));
        }
        assert_eq!(rx.recv().unwrap(), vec![SubOutcome::Cancelled; 3]);
        // An uncancelled cancellable batch executes normally.
        let (rx, _handle) = client.submit_batch_cancellable(vec![SubQuery::Degree(2)], None);
        assert_eq!(
            rx.recv().unwrap(),
            vec![SubOutcome::Ok(SubResponse::Count(g.degree(2) as u64))]
        );
        server.stop();
        host.shutdown();
    }

    #[test]
    fn batches_match_batches_of_one_on_both_transports() {
        let (g, host) = test_host();
        let server = TcpShardServer::serve(Arc::clone(&host), "127.0.0.1:0").unwrap();
        let tcp = TcpShardClient::connect(server.addr(), 2).unwrap();
        let inproc = InProcShardClient::new(Arc::clone(&host));
        let clients: [&dyn ShardClient; 2] = [&inproc, &tcp];

        let subs = vec![
            SubQuery::Degree(5),
            SubQuery::Neighbors(6),
            SubQuery::HasEdge(5, g.neighbors(5)[0]),
            SubQuery::DegreeMany(vec![1, 2, 3].into()),
            SubQuery::CountIntersect(7, Arc::new((0..100).collect())),
        ];
        for client in clients {
            // The batched outcomes must equal the item-by-item outcomes.
            let singles: Vec<SubOutcome> = subs
                .iter()
                .flat_map(|s| client.submit_batch(vec![s.clone()], None).recv().unwrap())
                .collect();
            let batched = client.submit_batch(subs.clone(), None).recv().unwrap();
            assert_eq!(batched, singles);
            // Empty batches resolve immediately.
            assert_eq!(client.submit_batch(Vec::new(), None).recv().unwrap(), Vec::new());
        }
        server.stop();
        host.shutdown();
    }
}
