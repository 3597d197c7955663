//! Round-trip property tests for the scenario-spec layer: for every spec
//! kind, `parse(render(x)) == x` over randomly generated specs, so the
//! canonical text form loses nothing and the content hash is meaningful.
//!
//! Generated numbers are dyadic rationals (n/4, n/256) so `f64` Display
//! round-trips exactly — the format's own guarantee (`fmt_f64` uses the
//! shortest-round-trip form); the strategies just keep the values readable.

use bouncer_core::spec::{
    BouncerParams, ClassSpec, ControllerSpec, DisciplineSpec, HistogramSpec, LawKind, LiquidSpec,
    PolicySpec, RuleSpec, RuntimeSpec, ScenarioSpec, SimSpec, SloEntrySpec, StrategySpec,
    TransportSpec, WorkloadSpec,
};
use proptest::prelude::*;

/// A lowercase alphanumeric identifier — safe for names, labels, and key
/// segments in the flat `key = value` format.
fn ident() -> BoxedStrategy<String> {
    prop::collection::vec(0usize..36, 1..8)
        .prop_map(|ix| {
            const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
            ix.into_iter().map(|i| ALPHABET[i] as char).collect()
        })
        .boxed()
}

/// Durations in quarter-millisecond steps, spanning the sub-ms, plain-ms,
/// and whole-second (`1s`) rendering paths.
fn dur_ms() -> BoxedStrategy<f64> {
    (1u32..8000).prop_map(|q| q as f64 / 4.0).boxed()
}

/// Positive factors in 1/256 steps (rate factors, allowances, alphas).
fn pos_frac() -> BoxedStrategy<f64> {
    (1u32..1024).prop_map(|n| n as f64 / 256.0).boxed()
}

/// A fraction in `(0, 1]` (utilization thresholds).
fn unit_frac() -> BoxedStrategy<f64> {
    (1u32..=256).prop_map(|n| n as f64 / 256.0).boxed()
}

fn arb_bouncer_params() -> BoxedStrategy<BouncerParams> {
    (
        prop_oneof![
            Just(HistogramSpec::Dual),
            (1u32..8).prop_map(HistogramSpec::Sliding),
        ],
        dur_ms(),
        0u64..64,
        0u64..64,
        prop_oneof![Just(RuleSpec::Any), Just(RuleSpec::All)],
    )
        .prop_map(|(histogram, interval_ms, retention, warmup, rule)| BouncerParams {
            histogram,
            interval_ms,
            retention,
            warmup,
            rule,
        })
        .boxed()
}

fn arb_policy() -> BoxedStrategy<PolicySpec> {
    prop_oneof![
        arb_bouncer_params().prop_map(PolicySpec::Bouncer),
        (arb_bouncer_params(), unit_frac()).prop_map(|(bouncer, allowance)| {
            PolicySpec::BouncerAllowance { bouncer, allowance }
        }),
        (arb_bouncer_params(), pos_frac()).prop_map(|(bouncer, alpha)| {
            PolicySpec::BouncerUnderserved { bouncer, alpha }
        }),
        (1u64..10_000).prop_map(|limit| PolicySpec::MaxQl { limit }),
        dur_ms().prop_map(|wait_ms| PolicySpec::MaxQwt { wait_ms }),
        prop::collection::vec(dur_ms(), 1..6)
            .prop_map(|wait_ms| PolicySpec::MaxQwtPerType { wait_ms }),
        unit_frac().prop_map(|max_utilization| PolicySpec::AcceptFraction { max_utilization }),
        (dur_ms(), pos_frac())
            .prop_map(|(horizon_ms, beta)| PolicySpec::Gatekeeper { horizon_ms, beta }),
        Just(PolicySpec::Always),
    ]
    .boxed()
}

fn arb_workload() -> BoxedStrategy<WorkloadSpec> {
    prop_oneof![
        Just(WorkloadSpec::PaperTable1),
        Just(WorkloadSpec::Liquid),
        (
            ident(),
            prop::collection::vec((dur_ms(), dur_ms()), 1..5),
            any::<bool>(),
        )
            .prop_map(|(prefix, times, shifted)| {
                // Equal proportions sum to 1 within the format's 1e-3
                // tolerance even when 1/n is not exactly representable.
                // `pshift` is all-or-none per the validation rule, so the
                // shifted variant gives every class the same equal share.
                let n = times.len();
                WorkloadSpec::Custom(
                    times
                        .into_iter()
                        .enumerate()
                        .map(|(i, (median_ms, p90_ms))| ClassSpec {
                            name: format!("{prefix}{i}"),
                            proportion: 1.0 / n as f64,
                            median_ms,
                            p90_ms,
                            pshift: shifted.then(|| 1.0 / n as f64),
                        })
                        .collect(),
                )
            }),
    ]
    .boxed()
}

fn arb_discipline() -> BoxedStrategy<DisciplineSpec> {
    prop_oneof![
        Just(DisciplineSpec::Fifo),
        Just(DisciplineSpec::ShortestJobFirst),
        prop::collection::vec(0u8..4, 1..6).prop_map(DisciplineSpec::Priority),
    ]
    .boxed()
}

fn arb_sim() -> BoxedStrategy<SimSpec> {
    (
        1u32..300,
        prop::collection::vec(pos_frac(), 1..5),
        prop::option::of(pos_frac().prop_map(|f| f * 1000.0)),
        prop::option::of(1u64..5000),
        arb_discipline(),
        (
            prop::collection::vec((dur_ms(), pos_frac()), 0..3),
            prop::option::of(dur_ms()),
        ),
    )
        .prop_map(
            |(parallelism, rate_factors, rate_qps, queue_limit, discipline, (rate_steps, shift_at))| {
                SimSpec {
                    parallelism,
                    rate_factors,
                    rate_qps,
                    queue_limit,
                    discipline,
                    rate_steps,
                    shift_at,
                }
            },
        )
        .boxed()
}

fn arb_liquid() -> BoxedStrategy<LiquidSpec> {
    (
        1u32..8,
        1u32..4,
        prop_oneof![
            Just(TransportSpec::Channels),
            Just(TransportSpec::Rings),
            Just(TransportSpec::Tcp)
        ],
        unit_frac(),
        (
            (ident(), prop::collection::vec(pos_frac(), 1..6)),
            (1u32..2_000_000, 1u32..32),
            (
                1u32..4,
                prop_oneof![
                    Just(StrategySpec::PrimaryOnly),
                    Just(StrategySpec::LoadBalanced),
                    Just(StrategySpec::Hedged)
                ],
            ),
        ),
    )
        .prop_map(
            |(shards, brokers, transport, shard_max_utilization, extra)| {
                let (points, graph, replication) = extra;
                let (prefix, factors) = points;
                let (graph_vertices, graph_edges_per_vertex) = graph;
                let (replicas, strategy) = replication;
                LiquidSpec {
                    shards,
                    replicas,
                    strategy,
                    brokers,
                    transport,
                    shard_max_utilization,
                    rate_points: factors
                        .into_iter()
                        .enumerate()
                        .map(|(i, f)| (format!("{prefix}-{i}"), f))
                        .collect(),
                    graph_vertices,
                    graph_edges_per_vertex,
                }
            },
        )
        .boxed()
}

fn arb_runtime() -> BoxedStrategy<RuntimeSpec> {
    prop_oneof![
        arb_sim().prop_map(RuntimeSpec::Sim),
        arb_liquid().prop_map(RuntimeSpec::Liquid),
    ]
    .boxed()
}

/// `(percentile, target_ms)` lists with distinct percentiles, at least one.
fn arb_slo_targets() -> BoxedStrategy<Vec<(f64, f64)>> {
    (
        prop::collection::vec(any::<bool>(), 4),
        prop::collection::vec(dur_ms(), 4),
    )
        .prop_map(|(selected, durs)| {
            let pcts = [50.0, 90.0, 95.0, 99.0];
            let mut targets: Vec<(f64, f64)> = pcts
                .iter()
                .zip(selected)
                .zip(durs)
                .filter(|((_, sel), _)| *sel)
                .map(|((&pct, _), ms)| (pct, ms))
                .collect();
            if targets.is_empty() {
                targets.push((50.0, 18.0));
            }
            targets
        })
        .boxed()
}

fn arb_slos() -> BoxedStrategy<Vec<SloEntrySpec>> {
    (
        any::<bool>(),
        ident(),
        prop::collection::vec(arb_slo_targets(), 0..4),
    )
        .prop_map(|(with_default, prefix, target_lists)| {
            target_lists
                .into_iter()
                .enumerate()
                .map(|(i, targets)| SloEntrySpec {
                    name: if with_default && i == 0 {
                        "default".to_string()
                    } else {
                        format!("{prefix}{i}")
                    },
                    targets,
                })
                .collect()
        })
        .boxed()
}

/// Either a single unlabeled policy, distinctly labeled policies, or none.
fn arb_policies() -> BoxedStrategy<Vec<(String, PolicySpec)>> {
    prop_oneof![
        Just(Vec::new()),
        arb_policy().prop_map(|p| vec![(String::new(), p)]),
        (ident(), prop::collection::vec(arb_policy(), 1..4)).prop_map(|(prefix, specs)| {
            specs
                .into_iter()
                .enumerate()
                .map(|(i, p)| (format!("{prefix}{i}"), p))
                .collect()
        }),
    ]
    .boxed()
}

fn arb_params() -> BoxedStrategy<Vec<(String, Vec<f64>)>> {
    (
        ident(),
        prop::collection::vec(prop::collection::vec(pos_frac(), 1..5), 0..3),
    )
        .prop_map(|(prefix, lists)| {
            lists
                .into_iter()
                .enumerate()
                .map(|(i, values)| (format!("{prefix}{i}"), values))
                .collect()
        })
        .boxed()
}

/// String sweep lists: every token gets an `x` prefix so it can never
/// parse as a number (which would reclassify it as a numeric sweep).
fn arb_sparams() -> BoxedStrategy<Vec<(String, Vec<String>)>> {
    (
        ident(),
        prop::collection::vec(prop::collection::vec(ident(), 1..5), 0..3),
    )
        .prop_map(|(prefix, lists)| {
            lists
                .into_iter()
                .enumerate()
                .map(|(i, tokens)| {
                    (
                        format!("{prefix}s{i}"),
                        tokens.into_iter().map(|t| format!("x{t}")).collect(),
                    )
                })
                .collect()
        })
        .boxed()
}

/// Controller specs with dyadic fields; `min < max` by construction.
fn arb_controller() -> BoxedStrategy<ControllerSpec> {
    (
        prop_oneof![
            Just(LawKind::Aimd),
            Just(LawKind::Budget),
            Just(LawKind::Gradient),
        ],
        1u32..=256,
        dur_ms(),
        pos_frac(),
        1u32..256,
        (1u32..128, 129u32..1024),
    )
        .prop_map(|(law, ta, interval_ms, step, backoff, (mn, mx))| ControllerSpec {
            law,
            target_attain: ta as f64 / 256.0,
            interval_ms,
            step,
            backoff: backoff as f64 / 256.0,
            min: mn as f64 / 256.0,
            max: mx as f64 / 256.0,
        })
        .boxed()
}

fn arb_scenario() -> BoxedStrategy<ScenarioSpec> {
    (
        (
            ident(),
            any::<u64>(),
            prop::option::of(1u32..20),
            prop::option::of(1u64..1_000_000),
            prop::option::of(1u64..1_000_000),
        ),
        arb_slos(),
        arb_workload(),
        (arb_runtime(), prop::option::of(arb_controller())),
        arb_policies(),
        (arb_params(), arb_sparams()),
    )
        .prop_map(
            |(
                (name, seed, runs, measured, warmup),
                slos,
                workload,
                (runtime, controller),
                policies,
                (params, sparams),
            )| {
                ScenarioSpec {
                    name,
                    seed,
                    runs,
                    measured,
                    warmup,
                    slos,
                    workload,
                    runtime,
                    controller,
                    policies,
                    params,
                    sparams,
                }
            },
        )
        .boxed()
}

proptest! {
    /// The policy one-liner grammar loses nothing: every generated spec
    /// reparses from its canonical rendering to an equal value.
    #[test]
    fn policy_specs_round_trip(spec in arb_policy()) {
        let rendered = spec.render();
        let reparsed = PolicySpec::parse(&rendered)
            .unwrap_or_else(|e| panic!("reparse of `{rendered}` failed: {e}"));
        prop_assert_eq!(&reparsed, &spec, "rendered as `{}`", rendered);
    }

    /// Workload and runtime specs round-trip through a scenario wrapper
    /// (they have no standalone text form — their lines are scenario keys).
    #[test]
    fn workload_and_runtime_round_trip(
        workload in arb_workload(),
        runtime in arb_runtime(),
    ) {
        let spec = ScenarioSpec {
            workload,
            runtime,
            ..ScenarioSpec::cli_default()
        };
        let rendered = spec.render();
        let reparsed = ScenarioSpec::parse(&rendered)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{rendered}"));
        prop_assert_eq!(&reparsed.workload, &spec.workload);
        prop_assert_eq!(&reparsed.runtime, &spec.runtime);
    }

    /// Controller one-liners lose nothing: every generated spec reparses
    /// from its canonical (default-omitting) rendering to an equal value.
    #[test]
    fn controller_specs_round_trip(spec in arb_controller()) {
        let rendered = spec.render();
        let reparsed = ControllerSpec::parse(&rendered)
            .unwrap_or_else(|e| panic!("reparse of `{rendered}` failed: {e}"));
        prop_assert_eq!(&reparsed, &spec, "rendered as `{}`", rendered);
    }

    /// Full scenarios round-trip, and the content hash is a function of the
    /// canonical form: reparsing reproduces the hash, and comments or
    /// whitespace around the same pairs never change it.
    #[test]
    fn scenario_specs_round_trip(spec in arb_scenario()) {
        let rendered = spec.render();
        let reparsed = ScenarioSpec::parse(&rendered)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{rendered}"));
        prop_assert_eq!(&reparsed, &spec, "canonical form:\n{}", rendered);
        prop_assert_eq!(reparsed.content_hash(), spec.content_hash());

        let commented = format!("# a leading comment\n\n{rendered}\n# trailing\n");
        let from_commented = ScenarioSpec::parse(&commented)
            .unwrap_or_else(|e| panic!("commented reparse failed: {e}\n{commented}"));
        prop_assert_eq!(from_commented.content_hash(), spec.content_hash());
    }
}
