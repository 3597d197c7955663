#!/usr/bin/env bash
# The full local gate: release build, all tests, clippy as errors.
#
# The build environment is fully offline (external crates are satisfied by
# the stubs under vendor/ — see vendor/README.md), so every cargo call pins
# --offline; nothing here ever touches the network.
set -euo pipefail
cd "$(dirname "$0")/.."

# Enforces the numeric targets of docs/adr/001-performance-targets.md
# against the parsed BENCH files: T1 admit cached* mean <= 20 ns, T2
# inproc/rings_allocs == 0 (exact), T3 inproc/rings mean <= inproc/
# batched mean, T4 gate_cycle/recorder mean <= 2x gate_cycle/disabled
# (the always-on flight recorder's whole budget), G1 CSR bytes/edge <=
# 0.5x the Vec-of-Vecs reference at 1M vertices (exact), G2 CSR
# generate+build no slower than the reference build, G3/G4 the adaptive
# intersect and CSR neighbors kernels no slower than their binary-search
# / Vec-of-Vecs baselines (min statistic — single-measurement means are
# too noisy on a shared host; the min is the kernel's actual cost).
# Timing targets carry a +15 % tolerance, counts none.
# Prints a one-line before/after row per target and returns non-zero on
# any FAIL. Callable standalone: scripts/check.sh perf-gate [admit.json
# datapath.json graph.json].
perf_gate() {
    local admit_json="${1:-BENCH_admit.json}"
    local datapath_json="${2:-BENCH_datapath.json}"
    local graph_json="${3:-BENCH_graph.json}"
    echo "==> perf gate: $admit_json + $datapath_json + $graph_json vs docs/adr/001-performance-targets.md"
    awk -v admit="$admit_json" -v datapath="$datapath_json" -v graph="$graph_json" '
        /"mean":/ {
            key = $1; gsub(/[":]/, "", key)
            tag = (FILENAME == admit ? "a:" : FILENAME == datapath ? "d:" : "g:")
            for (i = 1; i <= NF; i++) {
                if ($i == "\"mean\":") {
                    v = $(i + 1); sub(/,$/, "", v)
                    means[tag key] = v + 0
                    if (tag == "a:") akeys[++an] = key
                }
                # The min key opens the object, so the field is "{\"min\":".
                if ($i ~ /(^|\{)"min":$/) {
                    v = $(i + 1); sub(/,$/, "", v)
                    mins[tag key] = v + 0
                }
            }
        }
        function row(name, target, measured, pass) {
            printf "    %-52s %14.2f %14.2f  %s\n", \
                name, target, measured, (pass ? "ok" : "FAIL")
            if (!pass) failed = 1
        }
        END {
            tol = 1.15
            printf "    %-52s %14s %14s  %s\n", \
                "target", "before(target)", "after(meas.)", "verdict"
            # T1: every cached* admit variant stays a hot path.
            t1 = 0
            for (i = 1; i <= an; i++) {
                k = akeys[i]
                if (k ~ /^cached/) {
                    t1++
                    row("T1 admit " k " mean <= 20 ns", 20, means["a:" k], \
                        means["a:" k] <= 20 * tol)
                }
            }
            if (t1 == 0) row("T1 admit cached rows present", 1, 0, 0)
            # T2: the rings data path allocates nothing per query.
            if ("d:inproc/rings_allocs" in means)
                row("T2 inproc/rings_allocs == 0 (count, exact)", 0, \
                    means["d:inproc/rings_allocs"], \
                    means["d:inproc/rings_allocs"] == 0)
            else
                row("T2 inproc/rings_allocs row present", 1, 0, 0)
            # T3: rings no slower than the batched channel path.
            if ("d:inproc/rings" in means && "d:inproc/batched" in means)
                row("T3 inproc/rings mean <= 1.15x inproc/batched", \
                    means["d:inproc/batched"] * tol, means["d:inproc/rings"], \
                    means["d:inproc/rings"] <= means["d:inproc/batched"] * tol)
            else
                row("T3 rings + batched rows present", 1, 0, 0)
            # T4: the always-on flight recorder stays within its budget on
            # the full gate cycle.
            if ("a:gate_cycle/recorder" in means && "a:gate_cycle/disabled" in means)
                row("T4 gate_cycle/recorder mean <= 2x gate_cycle/disabled", \
                    means["a:gate_cycle/disabled"] * 2 * tol, \
                    means["a:gate_cycle/recorder"], \
                    means["a:gate_cycle/recorder"] <= \
                        means["a:gate_cycle/disabled"] * 2 * tol)
            else
                row("T4 gate_cycle rows present", 1, 0, 0)
            # G1: the CSR representation halves the reference footprint
            # at the million-vertex scale (count ratio, no tolerance).
            if ("g:bytes_per_edge/csr_1m" in means && "g:bytes_per_edge/vecvec_1m" in means)
                row("G1 bytes_per_edge csr_1m <= 0.5x vecvec_1m (exact)", \
                    means["g:bytes_per_edge/vecvec_1m"] * 0.5, \
                    means["g:bytes_per_edge/csr_1m"], \
                    means["g:bytes_per_edge/csr_1m"] <= \
                        means["g:bytes_per_edge/vecvec_1m"] * 0.5)
            else
                row("G1 bytes_per_edge rows present", 1, 0, 0)
            # G2: the two-pass counting CSR build costs no more than the
            # legacy Vec-of-Vecs assembly (same generator stream).
            if ("g:build/csr_1m" in means && "g:build/vecvec_1m" in means)
                row("G2 build csr_1m mean <= 1.15x vecvec_1m", \
                    means["g:build/vecvec_1m"] * tol, means["g:build/csr_1m"], \
                    means["g:build/csr_1m"] <= means["g:build/vecvec_1m"] * tol)
            else
                row("G2 build rows present", 1, 0, 0)
            # G3: the adaptive intersection kernel is no slower than the
            # legacy binary-search filter at the 1M scale.
            if ("g:intersect/adaptive_1m" in mins && "g:intersect/binary_1m" in mins)
                row("G3 intersect adaptive_1m min <= 1.15x binary_1m", \
                    mins["g:intersect/binary_1m"] * tol, \
                    mins["g:intersect/adaptive_1m"], \
                    mins["g:intersect/adaptive_1m"] <= \
                        mins["g:intersect/binary_1m"] * tol)
            else
                row("G3 intersect rows present", 1, 0, 0)
            # G4: CSR neighbor walks are no slower than the Vec-of-Vecs
            # slices they replaced.
            if ("g:neighbors/csr_1m" in mins && "g:neighbors/vecvec_1m" in mins)
                row("G4 neighbors csr_1m min <= 1.15x vecvec_1m", \
                    mins["g:neighbors/vecvec_1m"] * tol, \
                    mins["g:neighbors/csr_1m"], \
                    mins["g:neighbors/csr_1m"] <= \
                        mins["g:neighbors/vecvec_1m"] * tol)
            else
                row("G4 neighbors rows present", 1, 0, 0)
            exit failed
        }
    ' "$admit_json" "$datapath_json" "$graph_json"
}

if [ "${1:-}" = "perf-gate" ]; then
    perf_gate "${2:-BENCH_admit.json}" "${3:-BENCH_datapath.json}" "${4:-BENCH_graph.json}"
    exit 0
fi

echo "==> cargo build --release"
cargo build --release --offline --workspace

echo "==> cargo test"
cargo test -q --offline --workspace

echo "==> cargo clippy -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> scenario gate: benches/examples construct policies only via the spec layer"
# Every experiment is declared in scenarios/*.scn and constructed through
# bouncer_core::spec. A bench or example that re-declares a policy factory
# or calls a policy constructor directly bypasses the registry — the one
# construction path the scenario layer guarantees. AlwaysAccept is exempt
# (pass-through brokers in capacity probes and data-path microbenches).
# Controller::new / ControlTap::new are gated for the same reason: a
# control loop whose law/cadence/clamps aren't declared in a scenario's
# `controller =` line can't be reproduced from the spec hash.
GATE_PATTERN='type MakePolicy|Bouncer::new\(|AcceptanceAllowance::new\(|HelpingTheUnderserved::new\(|MaxQueueLength::new\(|MaxQueueWaitTime::new\(|with_per_type_limits\(|AcceptFraction::new\(|GatekeeperStyle::new\(|Controller::new\(|ControlTap::new\('
if VIOLATIONS=$(grep -rnE "$GATE_PATTERN" crates/bench/benches examples); then
    echo "policy constructed outside bouncer_core::spec:" >&2
    printf '%s\n' "$VIOLATIONS" >&2
    exit 1
fi

echo "==> graph gate: adjacency storage goes through the CSR engine"
# The Vec-of-Vecs adjacency representation survives only as the
# equivalence/bench reference inside liquid::graph::reference and the
# test suites that pin the CSR engine to it. Any other Vec<Vec<VertexId>>
# reintroduces per-vertex allocation (header + malloc chunk + growth
# slack per vertex) on a path the CSR refactor exists to keep flat.
if VIOLATIONS=$(grep -rn 'Vec<Vec<VertexId>>' crates examples \
    | grep -v 'crates/liquid/src/graph\.rs' \
    | grep -v '/tests/'); then
    echo "Vec-of-Vecs adjacency outside the graph reference impl/tests:" >&2
    printf '%s\n' "$VIOLATIONS" >&2
    exit 1
fi

echo "==> scenario gate: checked-in scenarios parse and match scenarios/MANIFEST"
# scenario-hash parses every file (a malformed scenario fails here) and
# prints its canonical content hash; the diff catches edits that forgot to
# regenerate the manifest.
cargo run -q --release --offline -p bouncer-cli -- scenario-hash scenarios/*.scn \
    | diff - scenarios/MANIFEST || {
    echo "scenarios/MANIFEST is stale — run scripts/regen-manifest.sh and commit the result" >&2
    exit 1
}

echo "==> bench smoke: admit_hot_path (cached vs reference) + gate_cycle (recorder overhead)"
# Short-budget run of the admission hot-path group; the cached column is
# the shipped admit() path, the reference column the retained
# recompute-from-scratch implementation (the "before"). The gate_cycle
# rows price the event layer on a full offer->take->complete cycle:
# disabled = NullSink gate, counting = enabled near-zero sink, recorder =
# the always-on flight recorder (T4). Results land in BENCH_admit.json
# at the repo root.
BENCH_OUT=$(CRITERION_BUDGET_MS="${CRITERION_BUDGET_MS:-50}" \
    cargo bench -q --offline -p bouncer-bench --bench overhead 2>&1 \
    | grep -E '^(admit_hot_path|gate_cycle)/') || {
    echo "admit_hot_path/gate_cycle benches produced no output" >&2
    exit 1
}
printf '%s\n' "$BENCH_OUT" | awk '
    # Lines look like:
    #   admit_hot_path/cached/64_types  time: [7.3 ns 8.0 ns 9.1 ns]  (123 iters)
    #   gate_cycle/recorder  time: [80.1 ns 81.2 ns 82.9 ns]  (456 iters)
    # Emit one JSON object with ns-normalized stats, keyed variant/scale
    # for the 3-component admit rows and group/variant for the 2-component
    # gate_cycle rows.
    function ns(v, u) {
        if (u == "ns") return v
        if (u == "µs" || u == "us") return v * 1000
        if (u == "ms") return v * 1000000
        return v
    }
    {
        gsub(/[\[\]]/, "")
        split($1, path, "/")
        lo = ns($3 + 0, $4); mean = ns($5 + 0, $6); hi = ns($7 + 0, $8)
        key = (path[1] == "gate_cycle") ? path[1] "/" path[2] : path[2] "/" path[3]
        keys[++n] = key
        means[key] = mean; los[key] = lo; his[key] = hi
    }
    END {
        printf "{\n  \"bench\": \"admit_hot_path\",\n  \"unit\": \"ns\",\n"
        printf "  \"note\": \"cached = shipped admit() fast path (after); reference = recompute-from-scratch (before); gate_cycle/* = full cycle with the event layer disabled / counting / feeding the flight recorder\",\n"
        printf "  \"results\": {\n"
        for (i = 1; i <= n; i++) {
            k = keys[i]
            printf "    \"%s\": {\"min\": %.2f, \"mean\": %.2f, \"max\": %.2f}%s\n", \
                k, los[k], means[k], his[k], (i < n ? "," : "")
        }
        printf "  }\n}\n"
    }
' > BENCH_admit.json
echo "    wrote BENCH_admit.json:"
sed 's/^/    /' BENCH_admit.json

echo "==> bench smoke: liquid_datapath (channels/tcp batched vs rings)"
# Short-budget run of the broker→shard data-path group; `batched` is the
# per-shard batch fan-out over the queue-based transports, `rings` the
# thread-per-core SPSC path. `*_allocs` rows are allocation events per
# query, not nanoseconds (the parser's ns normalization leaves raw
# counts intact).
# Results land in BENCH_datapath.json at the repo root.
DATAPATH_OUT=$(CRITERION_BUDGET_MS="${CRITERION_BUDGET_MS:-50}" \
    cargo bench -q --offline -p bouncer-bench --bench liquid_datapath 2>&1 \
    | grep '^liquid_datapath/') || {
    echo "liquid_datapath bench produced no output" >&2
    exit 1
}
printf '%s\n' "$DATAPATH_OUT" | awk '
    # Lines look like:
    #   liquid_datapath/inproc/batched  time: [22.2 µs 290.4 µs 1.153 ms]  (174 iters)
    # Emit one JSON object keyed by transport/variant with ns-normalized
    # stats (alloc rows carry counts through unchanged).
    function ns(v, u) {
        if (u == "ns") return v
        if (u == "µs" || u == "us") return v * 1000
        if (u == "ms") return v * 1000000
        return v
    }
    {
        gsub(/[\[\]]/, "")
        split($1, path, "/")
        variant = path[2]; scale = path[3]
        lo = ns($3 + 0, $4); mean = ns($5 + 0, $6); hi = ns($7 + 0, $8)
        key = variant "/" scale
        keys[++n] = key
        means[key] = mean; los[key] = lo; his[key] = hi
    }
    END {
        printf "{\n  \"bench\": \"liquid_datapath\",\n  \"unit\": \"ns\",\n"
        printf "  \"note\": \"batched = per-shard batch fan-out over channels/tcp; rings = thread-per-core SPSC path; *_allocs rows are allocation events per query, not ns\",\n"
        printf "  \"results\": {\n"
        for (i = 1; i <= n; i++) {
            k = keys[i]
            printf "    \"%s\": {\"min\": %.2f, \"mean\": %.2f, \"max\": %.2f}%s\n", \
                k, los[k], means[k], his[k], (i < n ? "," : "")
        }
        printf "  }\n}\n"
    }
' > BENCH_datapath.json
echo "    wrote BENCH_datapath.json:"
sed 's/^/    /' BENCH_datapath.json

echo "==> bench smoke: graph_scale (CSR engine vs Vec-of-Vecs reference)"
# The graph-engine scale rows behind the ADR-001 G targets: build time,
# bytes per stored adjacency entry, neighbor-walk and intersection
# kernels, CSR (after) vs the retained Vec<Vec<VertexId>> reference
# (before) at 100k and 1M vertices. Both generators replay the same RNG
# stream, so every row compares the identical graph. 4M-vertex rows ride
# behind GRAPH_SCALE_XL=1 to bound CI memory. Results land in
# BENCH_graph.json at the repo root.
GRAPH_OUT=$(CRITERION_BUDGET_MS="${CRITERION_BUDGET_MS:-50}" \
    cargo bench -q --offline -p bouncer-bench --bench graph_scale 2>&1 \
    | grep '^graph_scale/') || {
    echo "graph_scale bench produced no output" >&2
    exit 1
}
printf '%s\n' "$GRAPH_OUT" | awk '
    # Lines look like:
    #   graph_scale/bytes_per_edge/csr_1m  time: [4.50 ns 4.50 ns 4.50 ns]  (1 iters)
    # Emit one JSON object keyed metric/variant with ns-normalized stats
    # (build rows are wall time, bytes_per_edge rows are counts). A 1M
    # build can pass one second, which the row prints in "s".
    function ns(v, u) {
        if (u == "ns") return v
        if (u == "µs" || u == "us") return v * 1000
        if (u == "ms") return v * 1000000
        if (u == "s") return v * 1000000000
        return v
    }
    {
        gsub(/[\[\]]/, "")
        split($1, path, "/")
        lo = ns($3 + 0, $4); mean = ns($5 + 0, $6); hi = ns($7 + 0, $8)
        key = path[2] "/" path[3]
        keys[++n] = key
        means[key] = mean; los[key] = lo; his[key] = hi
    }
    END {
        printf "{\n  \"bench\": \"graph_scale\",\n  \"unit\": \"ns\",\n"
        printf "  \"note\": \"csr = flat offsets+targets engine (after); vecvec/binary = retained Vec-of-Vecs reference and per-element binary-search filter (before); bytes_per_edge rows are counts, not ns\",\n"
        printf "  \"results\": {\n"
        for (i = 1; i <= n; i++) {
            k = keys[i]
            printf "    \"%s\": {\"min\": %.2f, \"mean\": %.2f, \"max\": %.2f}%s\n", \
                k, los[k], means[k], his[k], (i < n ? "," : "")
        }
        printf "  }\n}\n"
    }
' > BENCH_graph.json
echo "    wrote BENCH_graph.json:"
sed 's/^/    /' BENCH_graph.json

perf_gate BENCH_admit.json BENCH_datapath.json BENCH_graph.json

echo "==> perf gate self-test: a sabotaged batched baseline must FAIL"
# Continuously proves the gate's failure path works: shrink T3's
# baseline (the batched channel mean) far below the rings mean in a
# scratch copy and require a non-zero exit. If the sed pattern ever stops
# matching, the copy equals the original, the gate passes, and this
# self-test fails — so pattern drift is caught too.
SABOTAGE=$(mktemp -t bouncer-sabotage.XXXXXX.json)
sed 's/"inproc\/batched": {"min": \([0-9.]*\), "mean": [0-9.]*/"inproc\/batched": {"min": \1, "mean": 1.00/' \
    BENCH_datapath.json > "$SABOTAGE"
if perf_gate BENCH_admit.json "$SABOTAGE" > /dev/null 2>&1; then
    echo "perf gate did not flag a sabotaged batched baseline" >&2
    rm -f "$SABOTAGE"
    exit 1
fi
rm -f "$SABOTAGE"
echo "    sabotage flagged as expected"

echo "==> perf gate self-test: a sabotaged recorder mean must FAIL"
# The same drill for T4: inflate the gate_cycle/recorder mean in a
# scratch copy of the admit file and require a non-zero exit. Pattern
# drift (the copy equaling the original) fails here too.
SABOTAGE_REC=$(mktemp -t bouncer-sabotage-rec.XXXXXX.json)
sed 's/"gate_cycle\/recorder": {"min": \([0-9.]*\), "mean": [0-9.]*/"gate_cycle\/recorder": {"min": \1, "mean": 99999999.00/' \
    BENCH_admit.json > "$SABOTAGE_REC"
if perf_gate "$SABOTAGE_REC" BENCH_datapath.json > /dev/null 2>&1; then
    echo "perf gate did not flag a sabotaged recorder mean" >&2
    rm -f "$SABOTAGE_REC"
    exit 1
fi
rm -f "$SABOTAGE_REC"
echo "    sabotage flagged as expected"

echo "==> perf gate self-test: a sabotaged CSR bytes/edge must FAIL"
# The same drill for G1: inflate the csr_1m bytes-per-edge mean in a
# scratch copy of the graph file and require a non-zero exit. Pattern
# drift (the copy equaling the original) fails here too.
SABOTAGE_G=$(mktemp -t bouncer-sabotage-graph.XXXXXX.json)
sed 's/"bytes_per_edge\/csr_1m": {"min": \([0-9.]*\), "mean": [0-9.]*/"bytes_per_edge\/csr_1m": {"min": \1, "mean": 99999999.00/' \
    BENCH_graph.json > "$SABOTAGE_G"
if perf_gate BENCH_admit.json BENCH_datapath.json "$SABOTAGE_G" > /dev/null 2>&1; then
    echo "perf gate did not flag a sabotaged CSR bytes/edge mean" >&2
    rm -f "$SABOTAGE_G"
    exit 1
fi
rm -f "$SABOTAGE_G"
echo "    sabotage flagged as expected"

echo "==> study smoke: adaptive_shift (closed-loop vs static caps)"
# The headline adaptive study (ADAPTIVE.md): the traffic mix shifts
# mid-run and the scenario's AIMD controller retunes AcceptFraction's
# max_utilization from live SLO attainment; the static_* variants run
# the same policy open-loop. The bench emits one composite score per
# variant (rejection % + 100× summed SLO overshoot, lower wins) and a
# verdict line; the gate fails unless the adaptive variant beats every
# static — i.e. lower rejection at equal-or-better attainment. Results
# land in BENCH_adaptive.json at the repo root.
ADAPTIVE_OUT=$(cargo bench -q --offline -p bouncer-bench --bench adaptive_shift 2>&1 \
    | grep '^adaptive_shift/') || {
    echo "adaptive_shift bench produced no output" >&2
    exit 1
}
printf '%s\n' "$ADAPTIVE_OUT" | awk '
    # Lines look like:
    #   adaptive_shift/static_low score=47.5806
    #   adaptive_shift/verdict adaptive=39.4045 best_static=47.5806 wins=true
    # Emit one JSON object with per-variant scores and the verdict.
    $1 == "adaptive_shift/verdict" {
        for (i = 2; i <= NF; i++) {
            split($i, kv, "=")
            verdict[kv[1]] = kv[2]
        }
        next
    }
    {
        split($1, path, "/")
        split($2, kv, "=")
        keys[++n] = path[2]
        scores[path[2]] = kv[2]
    }
    END {
        printf "{\n  \"bench\": \"adaptive_shift\",\n"
        printf "  \"unit\": \"score (rejection %% + 100 x summed SLO overshoot; lower wins)\",\n"
        printf "  \"note\": \"adaptive = closed-loop AIMD on max_utilization (after); static_* = same policy pinned open-loop (before)\",\n"
        printf "  \"results\": {\n"
        for (i = 1; i <= n; i++)
            printf "    \"%s\": %s%s\n", keys[i], scores[keys[i]], (i < n ? "," : "")
        printf "  },\n"
        printf "  \"verdict\": {\"adaptive\": %s, \"best_static\": %s, \"wins\": %s}\n}\n", \
            verdict["adaptive"], verdict["best_static"], verdict["wins"]
    }
' > BENCH_adaptive.json
echo "    wrote BENCH_adaptive.json:"
sed 's/^/    /' BENCH_adaptive.json
printf '%s\n' "$ADAPTIVE_OUT" | grep -q '^adaptive_shift/verdict .*wins=true$' || {
    echo "adaptive variant did not beat every static baseline:" >&2
    printf '%s\n' "$ADAPTIVE_OUT" >&2
    exit 1
}

echo "==> study smoke: replication_study (R=2 routing-strategy crossover)"
# The replica-group headline (DESIGN.md S38): the same cluster at R = 2
# under primary-only / load-balanced / hedged routing at a low and a high
# capacity-relative point. The bench emits per-point rejection % and
# client RT quantiles plus a verdict line; the gate fails unless the
# underload↔overload crossover reproduces — hedged p99 beats primary-only
# at low load AND primary-only sheds no more than hedged (plus a noise
# allowance) at high load. Results land in BENCH_replication.json at the
# repo root.
replication_gate() {
    grep -q '"crossover": true' "$1"
}
REPLICATION_OUT=$(cargo bench -q --offline -p bouncer-bench --bench replication_study 2>&1 \
    | grep '^replication_study/') || {
    echo "replication_study bench produced no output" >&2
    exit 1
}
printf '%s\n' "$REPLICATION_OUT" | awk '
    # Lines look like:
    #   replication_study/hedged/low rej=1.3758 p50=0.5652 p99=16.3840
    #   replication_study/verdict hedged_p99_low=16.38 ... crossover=true
    # Emit one JSON object with per-(strategy, point) stats + the verdict.
    $1 == "replication_study/verdict" {
        for (i = 2; i <= NF; i++) {
            split($i, kv, "=")
            verdict[kv[1]] = kv[2]
        }
        next
    }
    {
        split($1, path, "/")
        key = path[2] "/" path[3]
        keys[++n] = key
        for (i = 2; i <= NF; i++) {
            split($i, kv, "=")
            vals[key "/" kv[1]] = kv[2]
        }
    }
    END {
        printf "{\n  \"bench\": \"replication_study\",\n"
        printf "  \"unit\": \"rej = %%, p50/p99 = ms\",\n"
        printf "  \"note\": \"R=2 replica groups; hedged = duplicate stragglers after a learned p95 delay, losers cancelled at dequeue (after); primary-only = deterministic flat routing (before)\",\n"
        printf "  \"results\": {\n"
        for (i = 1; i <= n; i++) {
            k = keys[i]
            printf "    \"%s\": {\"rej_pct\": %s, \"p50_ms\": %s, \"p99_ms\": %s}%s\n", \
                k, vals[k "/rej"], vals[k "/p50"], vals[k "/p99"], (i < n ? "," : "")
        }
        printf "  },\n"
        printf "  \"verdict\": {\"hedged_p99_low\": %s, \"primary_p99_low\": %s, \"primary_rej_high\": %s, \"hedged_rej_high\": %s, \"crossover\": %s}\n}\n", \
            verdict["hedged_p99_low"], verdict["primary_p99_low"], \
            verdict["primary_rej_high"], verdict["hedged_rej_high"], \
            verdict["crossover"]
    }
' > BENCH_replication.json
echo "    wrote BENCH_replication.json:"
sed 's/^/    /' BENCH_replication.json
replication_gate BENCH_replication.json || {
    echo "replication crossover did not reproduce:" >&2
    printf '%s\n' "$REPLICATION_OUT" >&2
    exit 1
}

echo "==> replication gate self-test: a sabotaged crossover verdict must FAIL"
# Flip the verdict in a scratch copy and require the gate to reject it.
# If the sed pattern ever stops matching, the copy equals the original,
# the gate passes, and this self-test fails — pattern drift is caught too.
SABOTAGE_REP=$(mktemp -t bouncer-sabotage-rep.XXXXXX.json)
sed 's/"crossover": true/"crossover": false/' BENCH_replication.json > "$SABOTAGE_REP"
if replication_gate "$SABOTAGE_REP"; then
    echo "replication gate did not flag a sabotaged crossover verdict" >&2
    rm -f "$SABOTAGE_REP"
    exit 1
fi
rm -f "$SABOTAGE_REP"
echo "    sabotage flagged as expected"

echo "==> tracing smoke: traced cluster -> trace-report --strict"
# A small traced in-process cluster writes its span JSONL, and the
# trace-report subcommand re-assembles the trees; --strict makes any
# orphaned span or rootless trace a hard failure.
TRACE_SMOKE=$(mktemp -t bouncer-trace-smoke.XXXXXX.jsonl)
INCIDENT_DIR=$(mktemp -d -t bouncer-incidents.XXXXXX)
DRILL_DIR=$(mktemp -d -t bouncer-drill.XXXXXX)
trap 'rm -f "$TRACE_SMOKE"; rm -rf "$INCIDENT_DIR" "$DRILL_DIR"' EXIT
cargo run -q --release --offline --example traced_cluster -- "$TRACE_SMOKE" \
    | sed 's/^/    /'
cargo run -q --release --offline -p bouncer-cli -- \
    trace-report --traces-in "$TRACE_SMOKE" --strict \
    | sed -n '1,3p;$p' | sed 's/^/    /'

echo "==> incident smoke: chaos_lite (virtual time) -> dump -> postmortem"
# The sim-side acceptance drill: the chaos_lite surge through the CLI
# with the trigger engine armed (a forced trigger as the deterministic
# backstop — the surge itself usually fires rejection_spike and the
# AIMD backoff too). The run must leave at least one incident dump, and
# postmortem must reconstruct it.
cargo run -q --release --offline -p bouncer-cli -- \
    --scenario scenarios/chaos_lite.scn \
    --incident-dir "$INCIDENT_DIR" --trigger-force-ms 1500 \
    | sed 's/^/    /'
SIM_DUMP=$(ls "$INCIDENT_DIR"/incident-*.jsonl 2>/dev/null | head -1) || true
if [ -z "${SIM_DUMP:-}" ]; then
    echo "chaos_lite produced no incident dump" >&2
    exit 1
fi
cargo run -q --release --offline -p bouncer-cli -- \
    postmortem --dump-in "$SIM_DUMP" \
    | sed -n '1,4p;$p' | sed 's/^/    /'

echo "==> incident smoke: rings cluster (wall clock) -> dump -> postmortem"
# The cluster-side acceptance drill: examples/incident_drill.rs floods a
# rings cluster until the trigger engine dumps (rejection spike, with a
# forced wall-clock backstop), and postmortem reads the dump back.
cargo run -q --release --offline --example incident_drill -- "$DRILL_DIR" \
    | sed 's/^/    /'
DRILL_DUMP=$(ls "$DRILL_DIR"/incident-*.jsonl 2>/dev/null | head -1) || true
if [ -z "${DRILL_DUMP:-}" ]; then
    echo "incident_drill produced no incident dump" >&2
    exit 1
fi
cargo run -q --release --offline -p bouncer-cli -- \
    postmortem --dump-in "$DRILL_DUMP" \
    | sed -n '1,4p;$p' | sed 's/^/    /'

echo "==> scale smoke: liquid_mega (1M-vertex CSR graph through the rings cluster)"
# The million-vertex acceptance drill: the CSR engine must serve the
# QT1..QT11 mix end-to-end at the scale it exists for, not just
# micro-benchmark well. The example prints the graph_stats footprint
# line; the CLI's graph-stats subcommand rebuilds the same graph from
# the scenario spec and must agree on the footprint.
MEGA_OUT=$(cargo run -q --release --offline --example liquid_mega -- scenarios/liquid_mega.scn)
printf '%s\n' "$MEGA_OUT" | sed 's/^/    /'
printf '%s\n' "$MEGA_OUT" | grep -q 'graph_stats vertices=1000000 ' || {
    echo "liquid_mega did not report a 1M-vertex graph_stats line" >&2
    exit 1
}
MEGA_STATS=$(cargo run -q --release --offline -p bouncer-cli -- \
    graph-stats scenarios/liquid_mega.scn)
printf '%s\n' "$MEGA_STATS" | sed 's/^/    /'
MEGA_LINE=$(printf '%s\n' "$MEGA_OUT" | grep -o 'graph_stats .*')
case "$MEGA_STATS" in
    *"$MEGA_LINE"*) ;;
    *)
        echo "graph-stats disagrees with the cluster's graph_stats line" >&2
        exit 1
        ;;
esac

echo "==> all checks passed"
