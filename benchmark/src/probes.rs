//! The isolated per-layer probes: each public layer entry timed from
//! outside, on an otherwise idle process.
//!
//! Every probe repeats [`REPS`] times and reports the median repetition (the
//! minimum is printed beside it: on a shared two-core host the minimum is
//! the cost, the median says how often the host lets you see it). Probes
//! are sized to finish in about five seconds together, because they ride
//! along with every traced run.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bouncer_core::framework::{Gate, GateConfig, TakeOutcome};
use bouncer_core::obs::recorder::DEFAULT_RING_CAPACITY;
use bouncer_core::obs::{Event, Recorder};
use bouncer_core::policy::{AcceptFraction, AcceptFractionConfig, AdmissionPolicy};
use bouncer_core::types::TypeRegistry;
use bouncer_metrics::spsc::{self, Waker};
use bouncer_metrics::time::{millis, secs};
use bouncer_metrics::{AtomicHistogram, Clock, MonotonicClock};
use liquid::broker::{kind_type_id, liquid_registry, ClientOutcome};
use liquid::cluster::TransportKind;
use liquid::graph::{intersect_count, Graph, VertexId};
use liquid::query::{IdLists, Query, QueryKind, SubQuery, SubResponse};
use liquid::shard::{ShardConfig, ShardHost, SubOutcome};
use liquid::transport::{InProcShardClient, ShardClient, TcpShardClient, TcpShardServer};
use liquid::wire;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::report::Metric;
use crate::stats::{median, quantile};
use crate::workload::{broker_policy, by_name, Drive, Entry, Reply, System, Workload};

/// Repetitions of every probe.
const REPS: usize = 5;
/// Repetitions of the two probes that take most of a second each.
const GRAPH_REPS: usize = 2;
/// Sub-queries of the fixed wire/shard batch, and ids per reply list.
const BATCH_IDS: usize = 64;
const REPLY_LIST_IDS: usize = 20;
/// Round trips per repetition of an RTT probe.
const ROUND_TRIPS: usize = 500;

/// `(min, median)` over repetitions.
type MinMed = (f64, f64);

fn min_med(reps: &[f64]) -> MinMed {
    (
        reps.iter().copied().fold(f64::INFINITY, f64::min),
        median(reps),
    )
}

/// Nanoseconds per call of `f`, over `reps` repetitions of `iters` calls.
fn per_call_ns(reps: usize, iters: u64, mut f: impl FnMut()) -> MinMed {
    let reps: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    min_med(&reps)
}

/// Nanoseconds one serviced call of `f` takes. `f` says whether it was
/// serviced: a freshly spawned Bouncer can turn queries away on an idle
/// cluster until its first histogram swap (README.md, "What the benchmark
/// found"), and a microsecond-fast rejection is not a round trip. Calls
/// turned away are made again and not timed.
fn serviced_ns(f: &mut impl FnMut() -> bool) -> u64 {
    loop {
        let t = Instant::now();
        if f() {
            return t.elapsed().as_nanos() as u64;
        }
    }
}

/// Exact p50 of [`ROUND_TRIPS`] sequential serviced calls of `f`, in µs.
fn round_trips_p50_us(f: &mut impl FnMut() -> bool) -> f64 {
    let mut each: Vec<u64> = (0..ROUND_TRIPS).map(|_| serviced_ns(f)).collect();
    quantile(&mut each, 0.5).expect("round trips") as f64 / 1e3
}

/// Median round trip of `f` in µs over [`REPS`] repetitions.
fn rtt_p50_us(mut f: impl FnMut() -> bool) -> MinMed {
    let reps: Vec<f64> = (0..REPS).map(|_| round_trips_p50_us(&mut f)).collect();
    min_med(&reps)
}

struct Out(Vec<Metric>);

impl Out {
    fn push(&mut self, name: &'static str, unit: &'static str, (min, med): MinMed) {
        println!("  {name:<32} {med:>14.3} {unit:<5} (min {min:.3})");
        self.0.push(Metric::new(name, unit, med));
    }
}

/// Brings a policy to steady state: completions for every type, one
/// interval tick, then a standing queue so the demand estimate has work.
fn warm(policy: &dyn AdmissionPolicy, reg: &TypeRegistry) {
    for (ty, _) in reg.iter() {
        for k in 0..200u64 {
            policy.on_completed(ty, millis(1 + ty.index() as u64) + k * 1000, 0);
        }
    }
    policy.on_tick(secs(1));
    for (ty, _) in reg.iter() {
        for _ in 0..8 {
            policy.on_enqueued(ty, secs(1));
        }
    }
}

fn admission_probes(out: &mut Out) {
    let reg = liquid_registry();
    let ty = kind_type_id(QueryKind::Qt11Distance4);

    let policy = broker_policy(&reg, 4);
    warm(policy.as_ref(), &reg);
    out.push(
        "policy.admit_ns",
        "ns",
        per_call_ns(REPS, 1_000_000, || {
            black_box(policy.admit(black_box(ty), secs(1)));
        }),
    );

    let policy = broker_policy(&reg, 4);
    warm(policy.as_ref(), &reg);
    let gate: Gate<u32> = Gate::new(
        policy,
        reg.len(),
        Arc::new(MonotonicClock::new()),
        GateConfig::default(),
    );
    out.push(
        "gate.cycle_ns",
        "ns",
        per_call_ns(REPS, 100_000, || {
            if gate.offer(black_box(ty), 1).is_ok() {
                if let TakeOutcome::Query(q) = gate.take(None) {
                    gate.complete(q.ty, q.enqueued_at, q.dequeued_at);
                }
            }
        }),
    );

    let recorder = Recorder::new(DEFAULT_RING_CAPACITY);
    let mut at = 0u64;
    out.push(
        "obs.recorder_record_ns",
        "ns",
        per_call_ns(REPS, 1_000_000, || {
            at += 1_000;
            recorder.record_event(black_box(&Event::Admitted { at, ty }));
        }),
    );
}

fn metrics_probes(out: &mut Out) {
    let hist = AtomicHistogram::new();
    let mut v = 0u64;
    out.push(
        "metrics.hist_record_ns",
        "ns",
        per_call_ns(REPS, 1_000_000, || {
            v = v.wrapping_add(12_345);
            hist.record(black_box(v % 50_000_000));
        }),
    );

    // One value bounced between two threads over a ring pair: push, the
    // peer's pop_wait, its push back, our pop_wait.
    let (mut ping_tx, mut ping_rx) = spsc::channel::<u64>(8, Waker::new());
    let (mut pong_tx, mut pong_rx) = spsc::channel::<u64>(8, Waker::new());
    let wait = Duration::from_secs(5);
    let result = std::thread::scope(|scope| {
        scope.spawn(move || {
            while let Some(v) = ping_rx.pop_wait(wait, |slot| *slot) {
                if v == u64::MAX || !pong_tx.try_push(|slot| *slot = v) {
                    break;
                }
            }
        });
        let result = per_call_ns(REPS, 5_000, || {
            assert!(ping_tx.try_push(|slot| *slot = 1), "ping ring full");
            pong_rx
                .pop_wait(wait, |slot| *slot)
                .expect("echo thread gone");
        });
        assert!(ping_tx.try_push(|slot| *slot = u64::MAX));
        result
    });
    out.push("metrics.spsc_roundtrip_ns", "ns", result);
}

/// Ids owned by shard 0 of 2, seeded.
fn owned_ids(graph: &Graph, n: usize) -> Vec<VertexId> {
    let mut rng = SmallRng::seed_from_u64(0xBA7C4);
    let mut ids = Vec::with_capacity(n);
    while ids.len() < n {
        let v = rng.random_range(0..graph.vertex_count());
        if Graph::owner(v, 2) == 0 {
            ids.push(v);
        }
    }
    ids
}

fn wire_probes(out: &mut Out, batch_ids: &[VertexId]) {
    let query = Query {
        kind: QueryKind::Qt9CommonNetwork,
        u: 123_456,
        v: 654_321,
    };
    let mut buf = Vec::new();
    out.push(
        "wire.query_encode_ns",
        "ns",
        per_call_ns(REPS, 1_000_000, || {
            buf.clear();
            wire::encode_query_into(&mut buf, black_box(77), black_box(&query), None);
        }),
    );
    out.push(
        "wire.query_decode_ns",
        "ns",
        per_call_ns(REPS, 1_000_000, || {
            black_box(wire::decode_query(black_box(&buf[..])).expect("decodes"));
        }),
    );

    let subs = vec![SubQuery::NeighborsMany(Arc::new(batch_ids.to_vec()))];
    out.push(
        "wire.batch_encode_ns",
        "ns",
        per_call_ns(REPS, 200_000, || {
            buf.clear();
            wire::encode_subquery_batch_into(&mut buf, black_box(77), black_box(&subs), None);
        }),
    );
    out.push(
        "wire.batch_bytes",
        "B",
        (buf.len() as f64, buf.len() as f64),
    );
    out.push(
        "wire.batch_decode_ns",
        "ns",
        per_call_ns(REPS, 200_000, || {
            black_box(wire::decode_subrequest(black_box(&buf[..])).expect("decodes"));
        }),
    );

    let lists: IdLists = (0..BATCH_IDS as u32)
        .map(|i| {
            (0..REPLY_LIST_IDS as u32)
                .map(|k| i * 1_000 + k)
                .collect::<Vec<_>>()
        })
        .collect();
    let reply = vec![SubOutcome::Ok(SubResponse::IdLists(lists))];
    out.push(
        "wire.reply_encode_ns",
        "ns",
        per_call_ns(REPS, 20_000, || {
            buf.clear();
            wire::encode_subreply_batch_into(&mut buf, black_box(77), black_box(&reply));
        }),
    );
    out.push(
        "wire.reply_decode_ns",
        "ns",
        per_call_ns(REPS, 20_000, || {
            black_box(wire::decode_subreply_any(black_box(&buf[..])).expect("decodes"));
        }),
    );
}

/// QT1 round trips through whole (small, idle) clusters: what one query
/// pays for the path itself, by transport and by entry.
fn cluster_probes(out: &mut Out) {
    let small = |transport, entry| Workload {
        name: "probe",
        drive: Drive::Closed { clients: 1 },
        transport,
        entry,
        vertices: 20_000,
        mix: by_name("cheap_closed_rings").expect("workload").mix,
    };
    let mut next = 0u32;
    let mut qt1 = move || {
        next = (next + 7_919) % 20_000;
        Query {
            kind: QueryKind::Qt1Degree,
            u: next,
            v: 0,
        }
    };

    let sys = System::spawn(&small(TransportKind::Rings, Entry::Execute), false);
    out.push(
        "transport.rings_qt1_rtt_us",
        "us",
        rtt_p50_us(|| matches!(sys.cluster.execute(qt1()), ClientOutcome::Ok(_))),
    );
    sys.shutdown();

    let sys = System::spawn(&small(TransportKind::InProc, Entry::FrontDoor), false);
    out.push(
        "transport.channels_qt1_rtt_us",
        "us",
        rtt_p50_us(|| matches!(sys.cluster.execute(qt1()), ClientOutcome::Ok(_))),
    );
    // What the front door adds on top of the same broker reached directly:
    // the two are called in turn, so both see the same idle-host wake-up
    // behaviour, and their medians are subtracted. The difference of two
    // wake-up-dominated numbers can come out below zero; it is not clamped.
    let client = sys.client();
    let mut direct = Vec::with_capacity(REPS);
    let mut front = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let (mut d, mut f) = (Vec::new(), Vec::new());
        for _ in 0..ROUND_TRIPS {
            d.push(serviced_ns(&mut || {
                matches!(sys.cluster.execute(qt1()), ClientOutcome::Ok(_))
            }));
            f.push(serviced_ns(&mut || {
                matches!(client.call(qt1()), Reply::Ok(_))
            }));
        }
        direct.push(quantile(&mut d, 0.5).expect("round trips") as f64 / 1e3);
        front.push(quantile(&mut f, 0.5).expect("round trips") as f64 / 1e3);
    }
    let added: Vec<f64> = front.iter().zip(&direct).map(|(f, d)| f - d).collect();
    out.push("front.rtt_us", "us", min_med(&added));
    drop(client);
    sys.shutdown();
}

fn all_ok(outcomes: &[SubOutcome]) -> bool {
    outcomes.iter().all(|o| matches!(o, SubOutcome::Ok(_)))
}

/// Graph kernels on the 1 M-vertex graph (past the last-level cache), then
/// one idle shard host over half of it reached three ways.
fn graph_and_shard_probes(out: &mut Out) {
    let heavy = by_name("heavy_closed_rings").expect("workload");
    let mut graph = None;
    out.push("graph.generate_s", "s", {
        let (min, med) = per_call_ns(GRAPH_REPS, 1, || {
            graph = Some(Graph::generate(&heavy.graph_config()));
        });
        (min / 1e9, med / 1e9)
    });
    let graph = graph.expect("generated");
    let mut slices = Vec::new();
    out.push("graph.shard_slice_ms", "ms", {
        let (min, med) = per_call_ns(GRAPH_REPS, 1, || {
            slices = vec![graph.shard_slice(0, 2), graph.shard_slice(1, 2)];
        });
        (min / 1e6, med / 1e6)
    });
    let bpe = graph.stats().bytes_per_edge;
    out.push("graph.bytes_per_edge", "B", (bpe, bpe));

    // A random walk: each step's address depends on the previous load.
    let mut rng = SmallRng::seed_from_u64(0x6EA9);
    let mut at: VertexId = 1;
    let mut seen = 0usize;
    out.push(
        "graph.neighbors_ns",
        "ns",
        per_call_ns(REPS, 200_000, || {
            let near = graph.neighbors(black_box(at));
            seen += near.len();
            at = if near.is_empty() {
                rng.random_range(0..graph.vertex_count())
            } else {
                near[rng.random_range(0..near.len())]
            };
        }),
    );
    black_box(seen);

    // Endpoints of random edges: a vertex is picked in proportion to its
    // degree, which is how the BFS-style plans meet them.
    let mut endpoint = || loop {
        let near = graph.neighbors(rng.random_range(0..graph.vertex_count()));
        if !near.is_empty() {
            return near[rng.random_range(0..near.len())];
        }
    };
    let pairs: Vec<(VertexId, VertexId)> = (0..4_096).map(|_| (endpoint(), endpoint())).collect();
    let mut i = 0usize;
    out.push(
        "graph.intersect_ns",
        "ns",
        per_call_ns(REPS, 100_000, || {
            let (u, v) = pairs[i % pairs.len()];
            i += 1;
            black_box(intersect_count(graph.neighbors(u), graph.neighbors(v)));
        }),
    );

    let batch_ids = owned_ids(&graph, BATCH_IDS);
    let one_id = Arc::new(vec![batch_ids[0]]);
    drop(graph);
    let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
    let cfg = ShardConfig::default();
    let host = ShardHost::spawn(
        Arc::new(slices.swap_remove(0)),
        Arc::new(AcceptFraction::new(AcceptFractionConfig::new(
            0.8,
            cfg.engines,
        ))),
        clock,
        cfg,
    );
    drop(slices);

    let batch = Arc::new(batch_ids.clone());
    out.push(
        "shard.batch_service_us",
        "us",
        rtt_p50_us(|| {
            let rx = host.submit_batch(vec![SubQuery::NeighborsMany(Arc::clone(&batch))], None);
            all_ok(&rx.recv().expect("shard replies"))
        }),
    );
    let in_proc = InProcShardClient::new(Arc::clone(&host));
    out.push(
        "transport.inproc_rtt_us",
        "us",
        rtt_p50_us(|| {
            let rx = in_proc.submit_batch(vec![SubQuery::DegreeMany(Arc::clone(&one_id))], None);
            all_ok(&rx.recv().expect("shard replies"))
        }),
    );
    let server =
        TcpShardServer::serve(Arc::clone(&host), "127.0.0.1:0").expect("bind shard server");
    let tcp = TcpShardClient::connect(server.addr(), 1).expect("connect shard server");
    out.push(
        "transport.tcp_rtt_us",
        "us",
        rtt_p50_us(|| {
            let rx = tcp.submit_batch(vec![SubQuery::DegreeMany(Arc::clone(&one_id))], None);
            all_ok(&rx.recv().expect("shard replies"))
        }),
    );
    drop(tcp);
    server.stop();
    host.shutdown();

    wire_probes(out, &batch_ids);
}

/// Runs every probe; prints each as it lands.
pub fn run() -> Vec<Metric> {
    println!("probes (median of repetitions; min in brackets):");
    let mut out = Out(Vec::new());
    admission_probes(&mut out);
    metrics_probes(&mut out);
    cluster_probes(&mut out);
    graph_and_shard_probes(&mut out);
    out.0
}
