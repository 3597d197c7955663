//! Binary wire protocol for the TCP transport.
//!
//! LIquid's brokers "offer REST endpoints"; the equivalent role here —
//! a network boundary in front of each host with its own serialization
//! cost — is played by a compact length-prefixed binary protocol:
//!
//! ```text
//! frame      := u32_be length, payload[length]
//! rpc        := u64 correlation-id, u8 tag, body
//! ```
//!
//! The same envelope carries broker-bound client queries and shard-bound
//! sub-queries; correlation ids let one connection multiplex many in-flight
//! requests (responses may arrive out of order).
//!
//! # Broker→shard protocol: batches only
//!
//! Every request a broker sends a shard is one round's sub-queries to that
//! shard as a single batch envelope, answered by a single batch reply —
//! a round with one sub-query sends a batch of one:
//!
//! ```text
//! batch_req  := u64 id, u8 6, u32 count, count × (u8 tag, body), [trace_ctx]
//! batch_rep  := u64 id, u8 0, u8 5, u32 count,
//!               count × (u8 status, body-if-ok)
//! cancel     := u64 id, u8 7
//! ```
//!
//! Envelope tags: request [`TAG_SUBQUERY_BATCH`] (6) and [`TAG_CANCEL`] (7);
//! reply [`TAG_SUBREPLY_BATCH`] (5). Any other envelope tag is a
//! [`DecodeError`]. Item tags inside a batch are `0..=5` for requests
//! (`Neighbors`, `Degree`, `HasEdge`, `NeighborsMany`, `DegreeMany`,
//! `CountIntersect`) and `0..=4` for `Ok` reply bodies (`Ids`, `IdLists`,
//! `Counts`, `Count`, `Flag`).
//!
//! # Allocation-lean encode/decode
//!
//! Every encoder has a `*_into` form that appends to a caller-owned
//! `Vec<u8>`; [`begin_frame`]/[`end_frame`] reserve and patch the length
//! prefix in the same buffer so a whole frame goes out in **one**
//! `write_all`. Transports recycle those buffers through a bounded
//! [`BufferPool`] (or a per-thread scratch vec), making steady-state frame
//! encoding allocation-free. Decoders are generic over [`Buf`], so the read
//! path parses borrowed `&[u8]` scratch without copying into a fresh
//! [`Bytes`] first.
//!
//! # Trace context
//!
//! Request envelopes (client queries and sub-query batches) may carry a
//! **versioned trailing trace-context field** so distributed traces survive
//! the TCP boundary:
//!
//! ```text
//! trace_ctx  := u8 version (=1), u64 trace, u64 parent, u8 flags (bit0 = sampled)
//! ```
//!
//! The field sits after the request body. Decoders that predate it never
//! required buffer exhaustion, so old peers simply ignore it, and a new
//! decoder reading an old frame sees zero remaining bytes and yields
//! `None` — the extension is backward- and forward-compatible. A present
//! but unknown version (or a truncated context) is a [`DecodeError`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bouncer_core::obs::{Event, EventSink, PoolCounters, SpanId, TraceContext, TraceId};
use bouncer_metrics::time::Nanos;
use bytes::{Buf, BufMut, Bytes};
use parking_lot::Mutex;

use crate::graph::VertexId;
use crate::query::{IdLists, Query, QueryKind, SubQuery, SubResponse};
use crate::shard::SubOutcome;

/// Hard cap on frame payloads (guards against corrupt length prefixes).
pub const MAX_FRAME: usize = 64 << 20;

/// Request tag marking a sub-query batch envelope.
pub const TAG_SUBQUERY_BATCH: u8 = 6;

/// Reply tag marking a batched sub-reply body.
pub const TAG_SUBREPLY_BATCH: u8 = 5;

/// Request tag asking the shard to cancel the in-flight request whose
/// correlation id is the envelope id. Best-effort: honored only if the
/// target is still queued when an engine dequeues it. Cancel frames carry
/// no body and produce **no reply** — the cancelled request itself replies
/// (with [`Status::Cancelled`] items) or already did.
pub const TAG_CANCEL: u8 = 7;

/// Decode failure: malformed or truncated payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub &'static str);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

/// Outcome status on reply envelopes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The request was serviced.
    Ok,
    /// Admission control rejected the request (the early error response of
    /// §2).
    Rejected,
    /// The host failed to process the request.
    Error,
    /// The request was cancelled by the caller (a hedged duplicate whose
    /// twin won the race) before an engine executed it.
    Cancelled,
}

impl Status {
    fn to_u8(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::Rejected => 1,
            Status::Error => 2,
            Status::Cancelled => 3,
        }
    }

    fn from_u8(b: u8) -> Result<Self, DecodeError> {
        match b {
            0 => Ok(Status::Ok),
            1 => Ok(Status::Rejected),
            2 => Ok(Status::Error),
            3 => Ok(Status::Cancelled),
            _ => Err(DecodeError("bad status byte")),
        }
    }
}

/// Wire version of the trailing trace-context field.
const TRACE_CTX_VERSION: u8 = 1;

fn put_trace_ctx(buf: &mut Vec<u8>, ctx: Option<&TraceContext>) {
    if let Some(ctx) = ctx {
        buf.put_u8(TRACE_CTX_VERSION);
        buf.put_u64(ctx.trace.0);
        buf.put_u64(ctx.parent.0);
        buf.put_u8(u8::from(ctx.sampled));
    }
}

fn get_trace_ctx<B: Buf>(buf: &mut B) -> Result<Option<TraceContext>, DecodeError> {
    if buf.remaining() == 0 {
        return Ok(None);
    }
    let version = buf.get_u8();
    if version != TRACE_CTX_VERSION {
        return Err(DecodeError("unknown trace-context version"));
    }
    if buf.remaining() < 17 {
        return Err(DecodeError("truncated trace context"));
    }
    let trace = TraceId(buf.get_u64());
    let parent = SpanId(buf.get_u64());
    let flags = buf.get_u8();
    Ok(Some(TraceContext {
        trace,
        parent,
        sampled: flags & 1 != 0,
    }))
}

fn put_ids(buf: &mut Vec<u8>, ids: &[VertexId]) {
    buf.put_u32(ids.len() as u32);
    for &v in ids {
        buf.put_u32(v);
    }
}

fn get_ids<B: Buf>(buf: &mut B) -> Result<Vec<VertexId>, DecodeError> {
    if buf.remaining() < 4 {
        return Err(DecodeError("truncated id list length"));
    }
    let n = buf.get_u32() as usize;
    if buf.remaining() < n * 4 {
        return Err(DecodeError("truncated id list"));
    }
    Ok((0..n).map(|_| buf.get_u32()).collect())
}

// ---------------------------------------------------------------------------
// Sub-query requests

fn put_subquery_body(buf: &mut Vec<u8>, sub: &SubQuery) {
    match sub {
        SubQuery::Neighbors(v) => {
            buf.put_u8(0);
            buf.put_u32(*v);
        }
        SubQuery::Degree(v) => {
            buf.put_u8(1);
            buf.put_u32(*v);
        }
        SubQuery::HasEdge(u, v) => {
            buf.put_u8(2);
            buf.put_u32(*u);
            buf.put_u32(*v);
        }
        SubQuery::NeighborsMany(vs) => {
            buf.put_u8(3);
            put_ids(buf, vs);
        }
        SubQuery::DegreeMany(vs) => {
            buf.put_u8(4);
            put_ids(buf, vs);
        }
        SubQuery::CountIntersect(v, ids) => {
            buf.put_u8(5);
            buf.put_u32(*v);
            put_ids(buf, ids);
        }
    }
}

/// Appends a sub-query **batch** request envelope to `buf`: one
/// correlation id, `subs.len()` bodies, one optional trailing trace
/// context. The whole batch is one admission-control unit on the shard.
pub fn encode_subquery_batch_into(
    buf: &mut Vec<u8>,
    id: u64,
    subs: &[SubQuery],
    ctx: Option<&TraceContext>,
) {
    buf.reserve(32 + subs.iter().map(|s| 9 + 4 * s.batch_len()).sum::<usize>());
    buf.put_u64(id);
    buf.put_u8(TAG_SUBQUERY_BATCH);
    buf.put_u32(subs.len() as u32);
    for sub in subs {
        put_subquery_body(buf, sub);
    }
    put_trace_ctx(buf, ctx);
}

/// A decoded shard-bound request: a round's batch, or a cancellation of an
/// earlier one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubRequest {
    /// A round's sub-queries to one shard (request tag [`TAG_SUBQUERY_BATCH`]).
    Batch(Vec<SubQuery>),
    /// Cancel the in-flight request whose correlation id is this envelope's
    /// id (request tag [`TAG_CANCEL`]). No body, no reply of its own.
    Cancel,
}

/// Decodes a shard-bound request envelope (trailing trace context
/// included, when present). Tags other than [`TAG_SUBQUERY_BATCH`] and
/// [`TAG_CANCEL`] are a [`DecodeError`].
pub fn decode_subrequest<B: Buf>(
    mut buf: B,
) -> Result<(u64, SubRequest, Option<TraceContext>), DecodeError> {
    if buf.remaining() < 9 {
        return Err(DecodeError("truncated sub-query header"));
    }
    let id = buf.get_u64();
    let tag = buf.get_u8();
    match tag {
        TAG_CANCEL => return Ok((id, SubRequest::Cancel, None)),
        TAG_SUBQUERY_BATCH => {}
        _ => return Err(DecodeError("bad sub-request tag")),
    }
    if buf.remaining() < 4 {
        return Err(DecodeError("truncated batch count"));
    }
    let n = buf.get_u32() as usize;
    if n > MAX_FRAME / 2 {
        return Err(DecodeError("batch count exceeds frame bound"));
    }
    let mut subs = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        subs.push(get_subquery_body(&mut buf)?);
    }
    let ctx = get_trace_ctx(&mut buf)?;
    Ok((id, SubRequest::Batch(subs), ctx))
}

/// Decodes one tagged sub-query body of a batch.
fn get_subquery_body<B: Buf>(buf: &mut B) -> Result<SubQuery, DecodeError> {
    if buf.remaining() < 1 {
        return Err(DecodeError("truncated sub-query header"));
    }
    let tag = buf.get_u8();
    let need = |buf: &B, n: usize| {
        if buf.remaining() < n {
            Err(DecodeError("truncated sub-query body"))
        } else {
            Ok(())
        }
    };
    Ok(match tag {
        0 => {
            need(buf, 4)?;
            SubQuery::Neighbors(buf.get_u32())
        }
        1 => {
            need(buf, 4)?;
            SubQuery::Degree(buf.get_u32())
        }
        2 => {
            need(buf, 8)?;
            SubQuery::HasEdge(buf.get_u32(), buf.get_u32())
        }
        3 => SubQuery::NeighborsMany(get_ids(buf)?.into()),
        4 => SubQuery::DegreeMany(get_ids(buf)?.into()),
        5 => {
            need(buf, 4)?;
            let v = buf.get_u32();
            SubQuery::CountIntersect(v, get_ids(buf)?.into())
        }
        _ => return Err(DecodeError("bad sub-query tag")),
    })
}

/// Appends a cancel request envelope to `buf`: the envelope id *is* the
/// correlation id of the request being cancelled.
pub fn encode_cancel_into(buf: &mut Vec<u8>, target_id: u64) {
    buf.reserve(9);
    buf.put_u64(target_id);
    buf.put_u8(TAG_CANCEL);
}

// ---------------------------------------------------------------------------
// Sub-query replies

fn put_subresponse_body(buf: &mut Vec<u8>, resp: &SubResponse) {
    match resp {
        SubResponse::Ids(ids) => {
            buf.put_u8(0);
            put_ids(buf, ids);
        }
        SubResponse::IdLists(lists) => {
            buf.put_u8(1);
            buf.put_u32(lists.len() as u32);
            for l in lists.iter() {
                put_ids(buf, l);
            }
        }
        SubResponse::Counts(cs) => {
            buf.put_u8(2);
            buf.put_u32(cs.len() as u32);
            for &c in cs {
                buf.put_u32(c);
            }
        }
        SubResponse::Count(c) => {
            buf.put_u8(3);
            buf.put_u64(*c);
        }
        SubResponse::Flag(b) => {
            buf.put_u8(4);
            buf.put_u8(*b as u8);
        }
    }
}

fn get_subresponse_body<B: Buf>(tag: u8, buf: &mut B) -> Result<SubResponse, DecodeError> {
    Ok(match tag {
        0 => SubResponse::Ids(get_ids(buf)?),
        1 => {
            if buf.remaining() < 4 {
                return Err(DecodeError("truncated list count"));
            }
            let n = buf.get_u32() as usize;
            let mut lists = IdLists::with_capacity(n.min(4096), 0);
            for _ in 0..n {
                if buf.remaining() < 4 {
                    return Err(DecodeError("truncated id list length"));
                }
                let len = buf.get_u32() as usize;
                if buf.remaining() < len * 4 {
                    return Err(DecodeError("truncated id list"));
                }
                for _ in 0..len {
                    lists.push_id(buf.get_u32());
                }
                lists.seal_list();
            }
            SubResponse::IdLists(lists)
        }
        2 => {
            if buf.remaining() < 4 {
                return Err(DecodeError("truncated counts"));
            }
            let n = buf.get_u32() as usize;
            if buf.remaining() < n * 4 {
                return Err(DecodeError("truncated counts body"));
            }
            SubResponse::Counts((0..n).map(|_| buf.get_u32()).collect())
        }
        3 => {
            if buf.remaining() < 8 {
                return Err(DecodeError("truncated count"));
            }
            SubResponse::Count(buf.get_u64())
        }
        4 => {
            if buf.remaining() < 1 {
                return Err(DecodeError("truncated flag"));
            }
            SubResponse::Flag(buf.get_u8() != 0)
        }
        _ => return Err(DecodeError("bad sub-reply tag")),
    })
}

/// Appends a sub-query batch reply envelope to `buf`: one per-item
/// `(status, body-if-ok)` entry per sub-query of the request batch, in
/// request order. A whole-batch admission rejection is simply every item
/// carrying [`Status::Rejected`].
pub fn encode_subreply_batch_into(buf: &mut Vec<u8>, id: u64, outcomes: &[SubOutcome]) {
    buf.put_u64(id);
    buf.put_u8(Status::Ok.to_u8());
    buf.put_u8(TAG_SUBREPLY_BATCH);
    buf.put_u32(outcomes.len() as u32);
    for outcome in outcomes {
        match outcome {
            SubOutcome::Ok(resp) => {
                buf.put_u8(Status::Ok.to_u8());
                put_subresponse_body(buf, resp);
            }
            SubOutcome::Rejected => buf.put_u8(Status::Rejected.to_u8()),
            SubOutcome::Error => buf.put_u8(Status::Error.to_u8()),
            SubOutcome::Cancelled => buf.put_u8(Status::Cancelled.to_u8()),
        }
    }
}

/// A decoded broker-bound reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubReplyBody {
    /// Reply to a sub-query batch, one outcome per item in request order.
    Batch(Vec<SubOutcome>),
}

/// Decodes a sub-query batch reply envelope. An envelope whose status byte
/// is not `Ok` or whose tag is not [`TAG_SUBREPLY_BATCH`] is a
/// [`DecodeError`].
pub fn decode_subreply_any<B: Buf>(mut buf: B) -> Result<(u64, SubReplyBody), DecodeError> {
    if buf.remaining() < 10 {
        return Err(DecodeError("truncated sub-reply header"));
    }
    let id = buf.get_u64();
    if Status::from_u8(buf.get_u8())? != Status::Ok {
        return Err(DecodeError("bad sub-reply envelope status"));
    }
    if buf.get_u8() != TAG_SUBREPLY_BATCH {
        return Err(DecodeError("bad sub-reply tag"));
    }
    if buf.remaining() < 4 {
        return Err(DecodeError("truncated batch count"));
    }
    let n = buf.get_u32() as usize;
    if n > MAX_FRAME / 2 {
        return Err(DecodeError("batch count exceeds frame bound"));
    }
    let mut outcomes = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        if buf.remaining() < 1 {
            return Err(DecodeError("truncated batch item"));
        }
        match Status::from_u8(buf.get_u8())? {
            Status::Ok => {
                if buf.remaining() < 1 {
                    return Err(DecodeError("truncated batch item body"));
                }
                let tag = buf.get_u8();
                outcomes.push(SubOutcome::Ok(get_subresponse_body(tag, &mut buf)?));
            }
            Status::Rejected => outcomes.push(SubOutcome::Rejected),
            Status::Error => outcomes.push(SubOutcome::Error),
            Status::Cancelled => outcomes.push(SubOutcome::Cancelled),
        }
    }
    Ok((id, SubReplyBody::Batch(outcomes)))
}

// ---------------------------------------------------------------------------
// Client queries

/// Appends a client query request envelope to `buf`, with an optional
/// trailing trace context.
pub fn encode_query_into(buf: &mut Vec<u8>, id: u64, q: &Query, ctx: Option<&TraceContext>) {
    buf.reserve(35);
    buf.put_u64(id);
    buf.put_u8(q.kind.index() as u8);
    buf.put_u32(q.u);
    buf.put_u32(q.v);
    put_trace_ctx(buf, ctx);
}

/// Encodes a client query request envelope, with an optional trailing
/// trace context. Allocating wrapper around [`encode_query_into`].
pub fn encode_query(id: u64, q: &Query, ctx: Option<&TraceContext>) -> Bytes {
    let mut buf = Vec::with_capacity(35);
    encode_query_into(&mut buf, id, q, ctx);
    Bytes::from(buf)
}

/// Decodes a client query request envelope (trailing trace context
/// included, when present).
pub fn decode_query<B: Buf>(mut buf: B) -> Result<(u64, Query, Option<TraceContext>), DecodeError> {
    if buf.remaining() < 17 {
        return Err(DecodeError("truncated query"));
    }
    let id = buf.get_u64();
    let kind =
        QueryKind::from_index(buf.get_u8() as usize).ok_or(DecodeError("bad query kind"))?;
    let q = Query {
        kind,
        u: buf.get_u32(),
        v: buf.get_u32(),
    };
    let ctx = get_trace_ctx(&mut buf)?;
    Ok((id, q, ctx))
}

/// Appends a client query reply envelope to `buf`.
pub fn encode_query_reply_into(buf: &mut Vec<u8>, id: u64, status: Status, value: u64) {
    buf.reserve(17);
    buf.put_u64(id);
    buf.put_u8(status.to_u8());
    buf.put_u64(value);
}

/// Encodes a client query reply envelope. Allocating wrapper around
/// [`encode_query_reply_into`].
pub fn encode_query_reply(id: u64, status: Status, value: u64) -> Bytes {
    let mut buf = Vec::with_capacity(17);
    encode_query_reply_into(&mut buf, id, status, value);
    Bytes::from(buf)
}

/// Decodes a client query reply envelope.
pub fn decode_query_reply<B: Buf>(mut buf: B) -> Result<(u64, Status, u64), DecodeError> {
    if buf.remaining() < 17 {
        return Err(DecodeError("truncated query reply"));
    }
    Ok((buf.get_u64(), Status::from_u8(buf.get_u8())?, buf.get_u64()))
}

// ---------------------------------------------------------------------------
// Framing

/// Begins a length-prefixed frame in `buf`: reserves the 4-byte prefix and
/// returns the offset to hand back to [`end_frame`]. Several frames can be
/// staged back-to-back in one buffer and flushed with a single `write_all`.
pub fn begin_frame(buf: &mut Vec<u8>) -> usize {
    let start = buf.len();
    buf.extend_from_slice(&[0u8; 4]);
    start
}

/// Ends the frame begun at `start`, patching the length prefix over the
/// bytes appended since [`begin_frame`].
pub fn end_frame(buf: &mut [u8], start: usize) {
    let len = buf.len() - start - 4;
    assert!(len <= MAX_FRAME);
    buf[start..start + 4].copy_from_slice(&(len as u32).to_be_bytes());
}

/// Writes a length-prefixed frame to a stream.
pub fn write_frame<W: std::io::Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    assert!(payload.len() <= MAX_FRAME);
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)
}

/// Reads a length-prefixed frame from a stream.
pub fn read_frame<R: std::io::Read>(r: &mut R) -> std::io::Result<Bytes> {
    let mut payload = Vec::new();
    read_frame_into(r, &mut payload)?;
    Ok(Bytes::from(payload))
}

/// Reads a length-prefixed frame into a caller-owned scratch buffer
/// (cleared first), returning the payload length. Reusing one scratch
/// buffer per reader thread makes the steady-state read path
/// allocation-free once the buffer has grown to the connection's working
/// frame size.
pub fn read_frame_into<R: std::io::Read>(r: &mut R, buf: &mut Vec<u8>) -> std::io::Result<usize> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame exceeds MAX_FRAME",
        ));
    }
    buf.clear();
    buf.resize(len, 0);
    r.read_exact(buf)?;
    Ok(len)
}

// ---------------------------------------------------------------------------
// Buffer pool

/// A bounded pool of reusable encode buffers for concurrent frame writers.
///
/// Submission paths run on arbitrary caller threads, so they cannot keep a
/// per-thread scratch vec the way reader/responder loop threads do; the
/// pool gives them recycled buffers instead. Bounded two ways so bursts
/// cannot bloat it: at most `max_pooled` buffers are retained, and a
/// buffer that grew beyond `max_retained_capacity` is dropped rather than
/// parked (guarding against one giant frame pinning memory forever).
pub struct BufferPool {
    bufs: Mutex<Vec<Vec<u8>>>,
    max_pooled: usize,
    max_retained_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl BufferPool {
    /// A pool retaining at most `max_pooled` buffers of at most
    /// `max_retained_capacity` bytes each.
    pub fn new(max_pooled: usize, max_retained_capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            bufs: Mutex::new(Vec::with_capacity(max_pooled)),
            max_pooled,
            max_retained_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// A pool sized for a transport client: one buffer per plausibly
    /// concurrent submitter, capped at 64 KiB retained each.
    pub fn for_transport() -> Arc<Self> {
        Self::new(32, 64 << 10)
    }

    /// Takes a cleared buffer from the pool (or allocates a fresh one).
    pub fn get(self: &Arc<Self>) -> PooledBuf {
        let recycled = self.bufs.lock().pop();
        match &recycled {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        PooledBuf {
            buf: recycled.unwrap_or_default(),
            pool: Arc::clone(self),
        }
    }

    /// Buffers currently parked in the pool.
    pub fn pooled(&self) -> usize {
        self.bufs.lock().len()
    }

    /// A snapshot of the pool's hit/miss totals and current occupancy.
    pub fn counters(&self) -> PoolCounters {
        PoolCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            pooled: self.pooled() as u64,
        }
    }

    /// Emits an [`Event::PoolStats`] snapshot of this pool to `sink`.
    ///
    /// Call this at natural boundaries (shutdown, periodic flushes); the
    /// hot `get()` path only bumps relaxed atomics.
    pub fn emit_stats(&self, label: &'static str, sink: &dyn EventSink, at: Nanos) {
        let c = self.counters();
        sink.emit(&Event::PoolStats {
            at,
            pool: label,
            hits: c.hits,
            misses: c.misses,
            pooled: c.pooled,
        });
    }

    fn put_back(&self, mut buf: Vec<u8>) {
        if buf.capacity() > self.max_retained_capacity {
            return;
        }
        buf.clear();
        let mut bufs = self.bufs.lock();
        if bufs.len() < self.max_pooled {
            bufs.push(buf);
        }
    }
}

/// A pooled scratch buffer; returns to its [`BufferPool`] on drop.
pub struct PooledBuf {
    buf: Vec<u8>,
    pool: Arc<BufferPool>,
}

impl std::ops::Deref for PooledBuf {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        &self.buf
    }
}

impl std::ops::DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        self.pool.put_back(std::mem::take(&mut self.buf));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn sample_subqueries() -> Vec<SubQuery> {
        vec![
            SubQuery::Neighbors(7),
            SubQuery::Degree(9),
            SubQuery::HasEdge(1, 2),
            SubQuery::NeighborsMany(vec![1, 2, 3].into()),
            SubQuery::DegreeMany(Vec::new().into()),
            SubQuery::CountIntersect(5, vec![1, 4, 9].into()),
        ]
    }

    #[test]
    fn subquery_batch_round_trips() {
        let subs = sample_subqueries();
        let ctx = TraceContext {
            trace: TraceId(5),
            parent: SpanId(6),
            sampled: true,
        };
        for ctx in [None, Some(&ctx)] {
            let mut buf = Vec::new();
            encode_subquery_batch_into(&mut buf, 42, &subs, ctx);
            let (id, req, got_ctx) = decode_subrequest(&buf[..]).unwrap();
            assert_eq!(id, 42);
            assert_eq!(req, SubRequest::Batch(subs.clone()));
            assert_eq!(got_ctx.as_ref(), ctx);
        }
        // An empty batch is legal on the wire.
        let mut buf = Vec::new();
        encode_subquery_batch_into(&mut buf, 1, &[], None);
        let (_, req, _) = decode_subrequest(&buf[..]).unwrap();
        assert_eq!(req, SubRequest::Batch(Vec::new()));
    }

    #[test]
    fn cancel_request_round_trips() {
        let mut buf = Vec::new();
        encode_cancel_into(&mut buf, 0xDEAD_BEEF);
        let (id, req, ctx) = decode_subrequest(&buf[..]).unwrap();
        assert_eq!(id, 0xDEAD_BEEF);
        assert_eq!(req, SubRequest::Cancel);
        assert_eq!(ctx, None);
    }

    #[test]
    fn subreply_batch_round_trips() {
        let outcomes = vec![
            SubOutcome::Ok(SubResponse::Ids(vec![1, 2])),
            SubOutcome::Ok(SubResponse::Counts(vec![3, 4, 5])),
            SubOutcome::Ok(SubResponse::Count(7)),
            SubOutcome::Rejected,
            SubOutcome::Error,
            SubOutcome::Cancelled,
            SubOutcome::Ok(SubResponse::IdLists(
                [vec![1u32, 2], vec![3]].into_iter().collect(),
            )),
            SubOutcome::Ok(SubResponse::Flag(false)),
        ];
        let mut buf = Vec::new();
        encode_subreply_batch_into(&mut buf, 9, &outcomes);
        let (id, body) = decode_subreply_any(&buf[..]).unwrap();
        assert_eq!(id, 9);
        assert_eq!(body, SubReplyBody::Batch(outcomes));
        // Truncating inside the batch body errors, never panics.
        for cut in 0..buf.len() {
            assert!(decode_subreply_any(&buf[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn query_round_trips() {
        let ctx = TraceContext {
            trace: TraceId(123),
            parent: SpanId(456),
            sampled: false,
        };
        for kind in QueryKind::ALL {
            let q = Query { kind, u: 11, v: 22 };
            let (id, got, got_ctx) = decode_query(encode_query(3, &q, None)).unwrap();
            assert_eq!(id, 3);
            assert_eq!(got, q);
            assert_eq!(got_ctx, None);
            let (_, got, got_ctx) = decode_query(encode_query(3, &q, Some(&ctx))).unwrap();
            assert_eq!(got, q);
            assert_eq!(got_ctx, Some(ctx));
        }
        let (id, s, v) = decode_query_reply(encode_query_reply(4, Status::Ok, 99)).unwrap();
        assert_eq!((id, s, v), (4, Status::Ok, 99));
    }

    #[test]
    fn trace_ctx_rejects_bad_version_and_truncation() {
        let q = Query {
            kind: QueryKind::ALL[0],
            u: 1,
            v: 2,
        };
        let ctx = TraceContext {
            trace: TraceId(9),
            parent: SpanId(10),
            sampled: true,
        };
        let full = encode_query(1, &q, Some(&ctx));
        let raw = full.as_slice();
        // Truncate inside the trailing context: every prefix that cuts the
        // context short must error, never panic.
        for cut in 18..raw.len() {
            assert!(
                decode_query(&raw[..cut]).is_err(),
                "prefix of {cut} bytes should be rejected"
            );
        }
        // Corrupt the version byte (first byte after the 17-byte body).
        let mut bad = raw.to_vec();
        bad[17] = 2;
        assert_eq!(
            decode_query(&bad[..]),
            Err(DecodeError("unknown trace-context version"))
        );
    }

    #[test]
    fn truncated_payloads_error_cleanly() {
        assert!(decode_subrequest(Bytes::from_static(&[0, 1, 2])).is_err());
        assert!(decode_subreply_any(Bytes::from_static(&[0; 9])).is_err());
        assert!(decode_query(Bytes::from_static(&[0; 5])).is_err());
        // Bad tags.
        let mut b = BytesMut::new();
        b.put_u64(1);
        b.put_u8(99);
        b.put_u32(0);
        assert!(decode_subrequest(b.freeze()).is_err());
    }

    #[test]
    fn former_single_envelope_tags_are_decode_errors() {
        // Requests: tag byte 0..=5 right after the id, each followed by a
        // body that would have decoded as that single sub-query.
        for (tag, sub) in sample_subqueries().iter().enumerate() {
            let mut batch = Vec::new();
            encode_subquery_batch_into(&mut batch, 3, std::slice::from_ref(sub), None);
            // Drop the 5-byte batch header: id, then the item's own tag.
            let mut single = batch[..8].to_vec();
            single.extend_from_slice(&batch[13..]);
            assert_eq!(single[8], tag as u8);
            assert_eq!(
                decode_subrequest(&single[..]),
                Err(DecodeError("bad sub-request tag")),
                "request tag {tag}"
            );
        }
        // Replies: status byte, then a former single-reply tag where the
        // batch tag (5) belongs — a body tag 0..=4 or the empty-body 255.
        for status in [Status::Ok, Status::Rejected, Status::Error] {
            for tag in (0..TAG_SUBREPLY_BATCH).chain([255]) {
                let mut b = BytesMut::new();
                b.put_u64(4);
                b.put_u8(status.to_u8());
                b.put_u8(tag);
                b.put_u64(1);
                assert!(decode_subreply_any(b.freeze()).is_err(), "reply {status:?}/{tag}");
            }
        }
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().as_ref(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().as_ref(), b"");
        assert!(read_frame(&mut cursor).is_err()); // EOF
    }

    #[test]
    fn staged_frames_match_write_frame_layout() {
        // begin/end_frame in one buffer must produce byte-identical output
        // to write_frame per payload.
        let payloads: [&[u8]; 3] = [b"alpha", b"", b"bee"];
        let mut staged = Vec::new();
        for p in payloads {
            let s = begin_frame(&mut staged);
            staged.extend_from_slice(p);
            end_frame(&mut staged, s);
        }
        let mut reference = Vec::new();
        for p in payloads {
            write_frame(&mut reference, p).unwrap();
        }
        assert_eq!(staged, reference);
        // And read_frame_into walks them back out, reusing one scratch.
        let mut cursor = std::io::Cursor::new(staged);
        let mut scratch = Vec::new();
        for p in payloads {
            let n = read_frame_into(&mut cursor, &mut scratch).unwrap();
            assert_eq!(&scratch[..n], p);
        }
        assert!(read_frame_into(&mut cursor, &mut scratch).is_err());
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        buf.extend_from_slice(&[0; 16]);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn buffer_pool_recycles_within_bounds() {
        let pool = BufferPool::new(2, 64);
        {
            let mut a = pool.get();
            a.extend_from_slice(&[1; 10]);
            let mut b = pool.get();
            b.extend_from_slice(&[2; 10]);
            let _c = pool.get();
        }
        // Only two buffers parked, despite three returns.
        assert_eq!(pool.pooled(), 2);
        // Reuse comes back cleared.
        let buf = pool.get();
        assert!(buf.is_empty());
        assert!(buf.capacity() > 0);
        drop(buf);
        // A buffer grown beyond the retention cap is dropped, not parked.
        {
            let mut big = pool.get();
            big.resize(1024, 0);
        }
        assert!(pool.bufs.lock().iter().all(|b| b.capacity() <= 64));
    }

    #[test]
    fn buffer_pool_counts_hits_and_misses() {
        let pool = BufferPool::new(2, 64);
        // Empty pool: first two gets are misses.
        let a = pool.get();
        let b = pool.get();
        drop(a);
        drop(b);
        // Both parked now; the next two gets are hits.
        let a = pool.get();
        let b = pool.get();
        let c = pool.counters();
        assert_eq!((c.hits, c.misses, c.pooled), (2, 2, 0));
        drop(a);
        drop(b);
        assert_eq!(pool.counters().pooled, 2);

        // The snapshot reaches a sink as one pool_stats event.
        let sink = bouncer_core::obs::MemorySink::new();
        pool.emit_stats("shard_client", &sink, 99);
        let events = sink.events();
        assert_eq!(events.len(), 1);
        match events[0] {
            Event::PoolStats {
                at,
                pool: label,
                hits,
                misses,
                pooled,
            } => {
                assert_eq!((at, label), (99, "shard_client"));
                assert_eq!((hits, misses, pooled), (2, 2, 2));
            }
            ref other => panic!("unexpected event {other:?}"),
        }
    }
}
