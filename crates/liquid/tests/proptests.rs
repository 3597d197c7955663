//! Property-based tests: wire-protocol round trips and fuzz, graph
//! invariants, and shard/broker agreement.

use bouncer_core::obs::{SpanId, TraceContext, TraceId};
use bytes::Bytes;
use liquid::graph::{Graph, GraphConfig};
use liquid::query::{IdLists, Query, QueryKind, SubQuery, SubResponse};
use liquid::shard::SubOutcome;
use liquid::wire::{
    decode_query, decode_query_reply, decode_subreply_any, decode_subrequest, encode_query,
    encode_query_reply, encode_subquery_batch_into, encode_subreply_batch_into, read_frame,
    write_frame, Status, SubReplyBody, SubRequest, TAG_SUBQUERY_BATCH, TAG_SUBREPLY_BATCH,
};
use proptest::prelude::*;

fn arb_ids() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(any::<u32>(), 0..64)
}

fn arb_id_lists() -> impl Strategy<Value = IdLists> {
    prop::collection::vec(arb_ids(), 0..8).prop_map(|lists| lists.into_iter().collect())
}

fn arb_ctx() -> impl Strategy<Value = Option<TraceContext>> {
    prop::option::of((any::<u64>(), any::<u64>(), any::<bool>()).prop_map(
        |(trace, parent, sampled)| TraceContext {
            trace: TraceId(trace),
            parent: SpanId(parent),
            sampled,
        },
    ))
}

fn arb_subquery() -> impl Strategy<Value = SubQuery> {
    prop_oneof![
        any::<u32>().prop_map(SubQuery::Neighbors),
        any::<u32>().prop_map(SubQuery::Degree),
        (any::<u32>(), any::<u32>()).prop_map(|(u, v)| SubQuery::HasEdge(u, v)),
        arb_ids().prop_map(|ids| SubQuery::NeighborsMany(ids.into())),
        arb_ids().prop_map(|ids| SubQuery::DegreeMany(ids.into())),
        (any::<u32>(), arb_ids()).prop_map(|(v, ids)| SubQuery::CountIntersect(v, ids.into())),
    ]
}

fn arb_subresponse() -> impl Strategy<Value = SubResponse> {
    prop_oneof![
        arb_ids().prop_map(SubResponse::Ids),
        arb_id_lists().prop_map(SubResponse::IdLists),
        prop::collection::vec(any::<u32>(), 0..32).prop_map(SubResponse::Counts),
        any::<u64>().prop_map(SubResponse::Count),
        any::<bool>().prop_map(SubResponse::Flag),
    ]
}

fn arb_suboutcome() -> impl Strategy<Value = SubOutcome> {
    prop_oneof![
        arb_subresponse().prop_map(SubOutcome::Ok),
        Just(SubOutcome::Rejected),
        Just(SubOutcome::Error),
        Just(SubOutcome::Cancelled),
    ]
}

proptest! {
    /// Sub-query batch envelopes round-trip: any mix of every sub-query
    /// body, with and without a trailing trace context.
    #[test]
    fn subquery_batch_codec_round_trips(
        id in any::<u64>(),
        subs in prop::collection::vec(arb_subquery(), 0..12),
        ctx in arb_ctx(),
    ) {
        let mut buf = Vec::new();
        encode_subquery_batch_into(&mut buf, id, &subs, ctx.as_ref());
        let (got_id, got, got_ctx) = decode_subrequest(&buf[..]).unwrap();
        prop_assert_eq!(got_id, id);
        prop_assert_eq!(got, SubRequest::Batch(subs));
        prop_assert_eq!(got_ctx, ctx);
    }

    /// Batch reply envelopes round-trip: every per-item status and every
    /// `Ok` body.
    #[test]
    fn subreply_batch_codec_round_trips(
        id in any::<u64>(),
        outcomes in prop::collection::vec(arb_suboutcome(), 0..12),
    ) {
        let mut buf = Vec::new();
        encode_subreply_batch_into(&mut buf, id, &outcomes);
        let (got_id, body) = decode_subreply_any(&buf[..]).unwrap();
        prop_assert_eq!(got_id, id);
        prop_assert_eq!(body, SubReplyBody::Batch(outcomes));
    }

    /// Every strict prefix of a valid batch frame (request or reply) is
    /// rejected with an error — a batch cannot silently lose tail items.
    #[test]
    fn truncated_batch_frames_are_rejected(
        id in any::<u64>(),
        subs in prop::collection::vec(arb_subquery(), 0..6),
        outcomes in prop::collection::vec(arb_suboutcome(), 0..6),
        ctx in arb_ctx(),
    ) {
        let mut req = Vec::new();
        encode_subquery_batch_into(&mut req, id, &subs, ctx.as_ref());
        for cut in 0..req.len() {
            // A cut that removes exactly the optional trace-context tail
            // still decodes (backward compatibility); everything else must
            // error. No prefix may ever panic.
            let body_len = req.len() - if ctx.is_some() { 18 } else { 0 };
            match decode_subrequest(&req[..cut]) {
                Ok((gid, got, gctx)) => {
                    prop_assert_eq!(cut, body_len);
                    prop_assert_eq!(gid, id);
                    prop_assert_eq!(got, SubRequest::Batch(subs.clone()));
                    prop_assert_eq!(gctx, None);
                }
                Err(_) => prop_assert_ne!(cut, body_len),
            }
        }
        let mut rep = Vec::new();
        encode_subreply_batch_into(&mut rep, id, &outcomes);
        for cut in 0..rep.len() {
            prop_assert!(decode_subreply_any(&rep[..cut]).is_err(), "cut={}", cut);
        }
    }

    /// Query and query-reply envelopes round-trip, the query with and
    /// without a trailing trace context.
    #[test]
    fn query_codec_round_trips(
        id in any::<u64>(),
        kind_idx in 0usize..11,
        u in any::<u32>(),
        v in any::<u32>(),
        value in any::<u64>(),
        ctx in arb_ctx(),
    ) {
        let q = Query { kind: QueryKind::from_index(kind_idx).unwrap(), u, v };
        let (gid, gq, gctx) = decode_query(encode_query(id, &q, ctx.as_ref())).unwrap();
        prop_assert_eq!((gid, gq, gctx), (id, q, ctx));
        let (rid, s, rv) = decode_query_reply(encode_query_reply(id, Status::Ok, value)).unwrap();
        prop_assert_eq!((rid, s, rv), (id, Status::Ok, value));
    }

    /// Arbitrary bytes never panic the decoders — they error or parse —
    /// whether they start anywhere or right after a valid batch envelope
    /// header, where the item bodies are parsed.
    #[test]
    fn decoders_tolerate_garbage(
        id in any::<u64>(),
        bytes in prop::collection::vec(any::<u8>(), 0..128),
    ) {
        let b = Bytes::from(bytes.clone());
        let _ = decode_subrequest(b.clone());
        let _ = decode_subreply_any(b.clone());
        let _ = decode_query(b.clone());
        let _ = decode_query_reply(b);
        let mut req = id.to_be_bytes().to_vec();
        req.push(TAG_SUBQUERY_BATCH);
        req.extend_from_slice(&bytes);
        let _ = decode_subrequest(&req[..]);
        let mut rep = id.to_be_bytes().to_vec();
        rep.extend_from_slice(&[0, TAG_SUBREPLY_BATCH]);
        rep.extend_from_slice(&bytes);
        let _ = decode_subreply_any(&rep[..]);
    }

    /// A framed stream cut mid-frame errors out of `read_frame` cleanly.
    #[test]
    fn truncated_frame_stream_errors(
        payload in prop::collection::vec(any::<u8>(), 0..64),
        keep in 0usize..68,
    ) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let keep = keep.min(buf.len().saturating_sub(1));
        buf.truncate(keep);
        let mut cursor = std::io::Cursor::new(buf);
        prop_assert!(read_frame(&mut cursor).is_err());
    }

    /// Frames written back-to-back are read back intact, in order.
    #[test]
    fn frame_stream_round_trips(payloads in prop::collection::vec(
        prop::collection::vec(any::<u8>(), 0..256), 1..10,
    )) {
        let mut buf = Vec::new();
        for p in &payloads {
            write_frame(&mut buf, p).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        for p in &payloads {
            let frame = read_frame(&mut cursor).unwrap();
            prop_assert_eq!(frame.as_ref(), p.as_slice());
        }
        prop_assert!(read_frame(&mut cursor).is_err());
    }

    /// Generated graphs are simple (no self-loops, no duplicate edges),
    /// symmetric, and within the expected edge budget, for any seed.
    #[test]
    fn graph_generation_invariants(seed in any::<u64>(), m in 2u32..6) {
        let g = Graph::generate(&GraphConfig {
            vertices: 300,
            edges_per_vertex: m,
            seed,
        });
        let mut edges = 0u64;
        for v in 0..g.vertex_count() {
            let ns = g.neighbors(v);
            prop_assert!(ns.windows(2).all(|w| w[0] < w[1]), "sorted+dedup at {v}");
            for &u in ns {
                prop_assert_ne!(u, v, "self loop");
                prop_assert!(g.has_edge(u, v), "symmetry {v}-{u}");
            }
            edges += ns.len() as u64;
        }
        edges /= 2;
        // Preferential attachment adds at most m edges per new vertex plus
        // the seed clique.
        let n = 300u64;
        let m = m as u64;
        prop_assert!(edges <= n * m + m * (m + 1) / 2);
        prop_assert!(edges >= n.saturating_sub(m + 1), "graph too sparse: {edges}");
    }

    /// Shard slices partition the graph: each vertex's adjacency lives on
    /// exactly its owner shard.
    #[test]
    fn shard_partition_is_exact(seed in any::<u64>(), n_shards in 1usize..6) {
        let g = Graph::generate(&GraphConfig {
            vertices: 200,
            edges_per_vertex: 3,
            seed,
        });
        let slices: Vec<_> = (0..n_shards).map(|s| g.shard_slice(s, n_shards)).collect();
        for v in 0..g.vertex_count() {
            let mut holders = 0;
            for slice in &slices {
                if let Some(ns) = slice.neighbors(v) {
                    prop_assert_eq!(ns, g.neighbors(v));
                    holders += 1;
                }
            }
            prop_assert_eq!(holders, 1, "vertex {} held by {} shards", v, holders);
        }
    }
}
