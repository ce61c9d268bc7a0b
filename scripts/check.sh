#!/usr/bin/env bash
# Single CI entry point: configure, build, run the test suite, and run one
# fast benchmark (with its bit-identical self-check) as a smoke test of the
# exec runtime. Usage: scripts/check.sh [build-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
jobs="$(nproc 2>/dev/null || echo 2)"

echo "== configure =="
cmake -B "$build_dir" -S "$repo_root"

echo "== build =="
cmake --build "$build_dir" -j "$jobs"

echo "== test =="
ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"

echo "== service tests (guard: the glob must have picked them up) =="
# Direct invocation: fails loudly if the test glob ever stops matching
# tests/service/ (and avoids ctest flags newer than the CMake floor).
"$build_dir/service_shapley_service_test" --gtest_brief=1
"$build_dir/service_service_concurrency_test" --gtest_brief=1

echo "== approx tests (guard: cross-validation vs the exact engines) =="
"$build_dir/approx_sampling_test" --gtest_brief=1

echo "== net tests (guard: codec round-trips + e2e socket) =="
"$build_dir/net_codec_test" --gtest_brief=1
"$build_dir/net_server_test" --gtest_brief=1
"$build_dir/net_client_backoff_test" --gtest_brief=1
"$build_dir/net_http_parse_test" --gtest_brief=1

echo "== cluster tests (guard: shard map units + router e2e over real TCP) =="
# The router e2e spins a ShardRouter plus three in-process backends on
# ephemeral ports and asserts every scattered batch — including one with a
# backend killed mid-flight — is bit-identical to in-process Compute().
"$build_dir/cluster_shard_map_test" --gtest_brief=1
"$build_dir/cluster_router_test" --gtest_brief=1

echo "== obs tests (guard: registry units, /metrics scrapes, record/replay, tracing) =="
"$build_dir/obs_metrics_test" --gtest_brief=1
"$build_dir/obs_scrape_test" --gtest_brief=1
# Replay and slow-log replay compare answer bytes across servers: repeated,
# so a nondeterministic answer byte fails here instead of passing by luck.
"$build_dir/obs_reqlog_replay_test" --gtest_brief=1 --gtest_repeat=50
"$build_dir/obs_slowlog_test" --gtest_brief=1 --gtest_repeat=50
"$build_dir/obs_trace_test" --gtest_brief=1
"$build_dir/obs_cluster_trace_test" --gtest_brief=1

echo "== tsan (thread sanitizer: pool, service, event loop, completions, router) =="
# A second build dir compiled with -fsanitize=thread, tests only: these six
# cover the thread pool, the service's submit/completion paths, the event
# loop with completions writing from pool threads, and the router's
# forwarding pool. Any report fails the run (TSan exits 66 on a report).
tsan_dir="${build_dir}-tsan"
tsan_tests=(exec_thread_pool_test service_shapley_service_test
            service_service_concurrency_test net_server_test
            net_http_parse_test cluster_router_test)
cmake -B "$tsan_dir" -S "$repo_root" -DCMAKE_CXX_FLAGS=-fsanitize=thread \
    -DSHAPLEY_BUILD_BENCHES=OFF -DSHAPLEY_BUILD_EXAMPLES=OFF
cmake --build "$tsan_dir" -j "$jobs" --target "${tsan_tests[@]}"
for tsan_test in "${tsan_tests[@]}"; do
  TSAN_OPTIONS="halt_on_error=1" "$tsan_dir/$tsan_test" --gtest_brief=1
done

echo "== asan (address + undefined sanitizers: transport, obs, router, big-int fuzz) =="
# A third build dir compiled with -fsanitize=address,undefined, tests only:
# the HTTP parser and codec, the event loop and server, every always-on and
# traced obs path, the router, and the seeded big-int fuzzer. Any report
# fails the run (halt_on_error; UBSan does not recover).
asan_dir="${build_dir}-asan"
asan_tests=(net_codec_test net_http_parse_test net_server_test
            obs_flight_test obs_heavy_test obs_slowlog_test
            obs_reqlog_replay_test obs_scrape_test obs_trace_test
            obs_cluster_trace_test cluster_router_test
            arith_big_int_fuzz_test)
cmake -B "$asan_dir" -S "$repo_root" \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer -fno-sanitize-recover=undefined" \
    -DSHAPLEY_BUILD_BENCHES=OFF -DSHAPLEY_BUILD_EXAMPLES=OFF
cmake --build "$asan_dir" -j "$jobs" --target "${asan_tests[@]}"
for asan_test in "${asan_tests[@]}"; do
  ASAN_OPTIONS="halt_on_error=1" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
      "$asan_dir/$asan_test" --gtest_brief=1
done

echo "== net smoke (serve on an ephemeral port, call over a real socket) =="
# End-to-end through the CLI: start the server, send one exact and one
# approximate request through the client library, check the values are
# bit-identical to the in-process run of the same requests, then drain
# with SIGTERM and require a clean exit 0.
serve_log="$build_dir/serve_smoke.log"
"$build_dir/example_cli" serve --port 0 --threads 2 > "$serve_log" 2>/dev/null &
serve_pid=$!
# A failing assertion below must not orphan the background server.
trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
  grep -q "^listening on " "$serve_log" && break
  sleep 0.1
done
port="$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$serve_log")"
[ -n "$port" ] || { echo "serve smoke: no port line in $serve_log"; exit 1; }
smoke_q='R(x), S(x,y), T(y)'
smoke_db='R(a) R(b) S(a,c) S(b,d) T(c) | T(d)'
for extra in "" "--engine sampling --seed 3"; do
  # shellcheck disable=SC2086
  "$build_dir/example_cli" call "127.0.0.1:$port" values "$smoke_q" "$smoke_db" --json $extra 2>/dev/null \
      > "$build_dir/smoke_wire.json"
  # shellcheck disable=SC2086
  "$build_dir/example_cli" values "$smoke_q" "$smoke_db" --json $extra 2>/dev/null \
      > "$build_dir/smoke_local.json"
  python3 - "$build_dir/smoke_wire.json" "$build_dir/smoke_local.json" <<'PYEOF'
import json, sys
wire, local = (json.load(open(p)) for p in sys.argv[1:3])
assert wire["values"] == local["values"], \
    f"wire != local:\n{wire['values']}\n{local['values']}"
assert wire["status"] == 200, wire
PYEOF
done
echo "== trace smoke (same live server: one-shot traced probe, span tree) =="
# `trace` sends one traced request and renders the span tree; it exits
# non-zero on transport failure, a failed request or a missing trace, so a
# broken trace path fails here loudly. The rendered tree must show the
# backend root and the engine decomposition.
trace_out="$build_dir/trace_smoke.txt"
"$build_dir/example_cli" trace "127.0.0.1:$port" > "$trace_out"
for span in 'backend' 'engine' 'compile'; do
  grep -q "^ *$span " "$trace_out" \
      || { echo "trace smoke: missing span $span"; exit 1; }
done

echo "== metrics scrape smoke (same live server: scrape /metrics, grep series) =="
# The server above has now served real traffic (the traced probe included);
# a scrape must be parseable Prometheus text carrying the build-info,
# latency-histogram, conservation-self-check, per-phase duration and
# per-table cache series. `scrape` exits non-zero on transport failure or a
# non-200, so a wedged /metrics fails here loudly.
scrape_out="$build_dir/scrape_smoke.txt"
"$build_dir/example_cli" scrape "127.0.0.1:$port" > "$scrape_out"
for series in \
    'shapley_build_info{version=' \
    'shapley_request_latency_ms_bucket{engine=' \
    'shapley_service_requests_submitted_total' \
    'shapley_service_stats_conservation_error 0' \
    'shapley_server_requests_served_total{role="backend"}' \
    'shapley_phase_duration_ms_bucket{phase="engine"' \
    'shapley_server_eventloop_wakeups_total{role="backend"}' \
    'shapley_server_eventloop_dispatches_total{role="backend"}' \
    'shapley_cache_hits_total{table="counts"}' \
    'shapley_flight_recorded_total{role="backend"}' \
    'shapley_heavy_recorded_total{role="backend",sketch="shard_key"}' \
    'shapley_heavy_recorded_total{role="backend",sketch="query_class"}' \
    'shapley_slowlog_captured_total{role="backend"}'; do
  grep -qF "$series" "$scrape_out" \
      || { echo "metrics smoke: missing series $series"; exit 1; }
done
"$build_dir/example_cli" stats "127.0.0.1:$port" > /dev/null

echo "== debug-endpoint smoke (same live server: flight / hot / slow decks) =="
# The always-on deck must have observed the traffic above with no opt-in:
# the flight ring holds digests for every request served, the hot tables
# counted every shard key and query class, and the slow-log answers (empty
# — nothing above the default threshold). `top` renders the same decks
# through the client library and exits non-zero on any transport failure.
python3 - "$port" <<'PYEOF'
import json, sys, urllib.request
port = int(sys.argv[1])
def fetch(path):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}",
                                timeout=10) as r:
        assert r.status == 200, f"{path}: status {r.status}"
        return json.load(r)
flight = fetch("/v1/debug/flight")
assert flight["recorded"] > 0 and flight["entries"], flight
assert all(e["target"] for e in flight["entries"])
hot = fetch("/v1/debug/hot")
for sketch in ("shard_key", "query_class"):
    assert hot["sketches"][sketch]["total"] > 0, hot
    assert hot["sketches"][sketch]["hitters"], hot
slow = fetch("/v1/debug/slow")
assert slow["captured"] == 0 and slow["entries"] == [], slow
print("debug smoke: %d digests recorded, %d hot keys, slow-log empty" % (
    flight["recorded"], len(hot["sketches"]["shard_key"]["hitters"])))
PYEOF
"$build_dir/example_cli" top "127.0.0.1:$port" > "$build_dir/top_smoke.txt"
grep -q "^shapley top — " "$build_dir/top_smoke.txt" \
    || { echo "top smoke: missing header"; exit 1; }

echo "== high-concurrency smoke (512 simultaneous keep-alive connections) =="
# One single-threaded client holds 512 keep-alive connections open AT ONCE
# against the same live serve process (event loop: one fd each, not one OS
# thread each) and runs two request rounds over every one of them — round
# two proves the connections were reused, not re-accepted.
python3 - "$port" <<'PYEOF'
import socket, sys
port = int(sys.argv[1])
N = 512
probe = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
conns = [socket.create_connection(("127.0.0.1", port), timeout=10)
         for _ in range(N)]
def read_response(s):
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = s.recv(4096)
        assert chunk, "connection closed mid-head"
        data += chunk
    head, rest = data.split(b"\r\n\r\n", 1)
    lines = head.split(b"\r\n")
    status = int(lines[0].split()[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    while len(rest) < length:
        chunk = s.recv(4096)
        assert chunk, "connection closed mid-body"
        rest += chunk
    assert len(rest) == length, "unexpected trailing bytes"
    return status
for rnd in range(2):
    for s in conns:
        s.sendall(probe)
    for i, s in enumerate(conns):
        st = read_response(s)
        assert st == 200, f"conn {i} round {rnd}: status {st}"
for s in conns:
    s.close()
print(f"high-concurrency smoke: {N} keep-alive connections x 2 rounds, all 200")
PYEOF

kill -TERM "$serve_pid"
wait "$serve_pid" || { echo "serve smoke: server did not drain cleanly"; exit 1; }
trap - EXIT
echo "serve/call smoke: values bit-identical over the socket, metrics scraped, clean drain"

echo "== bench (net throughput, appending to BENCH_net.json) =="
# Multi-connection load generator with its own bit-identical self-check
# (the bench exits 1 on any mismatch, drop or transport error).
"$build_dir/bench_net_throughput" --connections 4 --requests 64 \
    --json "$build_dir/bench_net_throughput.json"
python3 -c 'import json,sys; print(json.dumps(json.load(open(sys.argv[1]))))' \
    "$build_dir/bench_net_throughput.json" \
    >> "$repo_root/BENCH_net.json"

echo "== bench (cluster scatter/gather, appending to BENCH_net.json) =="
# Same mixed batch through a ShardRouter fronting 1 backend vs 3 backends,
# all on ephemeral ports; the bench exits 1 unless every routed response is
# bit-identical to in-process Compute(), no id is dropped, and every
# backend of the fleet served at least one request.
"$build_dir/bench_cluster_scatter" --backends 3 --requests 24 --rounds 2 \
    --json "$build_dir/bench_cluster_scatter.json"
python3 -c 'import json,sys; print(json.dumps(json.load(open(sys.argv[1]))))' \
    "$build_dir/bench_cluster_scatter.json" \
    >> "$repo_root/BENCH_net.json"

echo "== bench (record/replay, appending to BENCH_obs.json) =="
# Captures a 3-strategy mixed run (exact, hoeffding/bernstein/stratified
# sampling, a batch, a malformed body) and replays it twice against fresh
# servers; the bench exits 1 unless every replayed response is
# bit-identical in canonical form with zero transport errors.
"$build_dir/bench_replay" --requests 28 \
    --json "$build_dir/bench_replay.json"
python3 -c 'import json,sys; print(json.dumps(json.load(open(sys.argv[1]))))' \
    "$build_dir/bench_replay.json" \
    >> "$repo_root/BENCH_obs.json"
# The replay now runs against the event-loop server, so its bit-identical
# zero-drop verdict doubles as a network-front regression line: mirror it
# into BENCH_net.json alongside the throughput bench.
python3 -c 'import json,sys; print(json.dumps(json.load(open(sys.argv[1]))))' \
    "$build_dir/bench_replay.json" \
    >> "$repo_root/BENCH_net.json"

echo "== bench (observability overhead guard, appending to BENCH_obs.json) =="
# Bare requests interleaved with requests that also pay the always-on
# recording (shard key + the deck call) on a service that serves traced
# blocks too: the bench exits 1 when the bootstrap 5th percentile of the
# median recorded/bare ratio exceeds 1.05, when a traced tree is malformed
# or a traced value differs from the untraced one, when the deck breaks
# conservation, or when a fast request lands in the slow-log.
"$build_dir/bench_obs_overhead" --json "$build_dir/bench_obs_overhead.json"
python3 -c 'import json,sys; print(json.dumps(json.load(open(sys.argv[1]))))' \
    "$build_dir/bench_obs_overhead.json" \
    >> "$repo_root/BENCH_obs.json"

echo "== bench (fast: small instances, JSON to $build_dir/bench_parallel_scaling.json) =="
"$build_dir/bench_parallel_scaling" --facts-k 20 --brute-k 5 \
    --json "$build_dir/bench_parallel_scaling.json"

echo "== bench (service throughput, appending to BENCH_service.json) =="
"$build_dir/bench_service_throughput" --requests 64 --facts 7 \
    --json "$build_dir/bench_service_throughput.json"
# Append this run as ONE compact line (JSONL) so the accumulated perf
# trajectory stays machine-readable: one json.loads() per line.
python3 -c 'import json,sys; print(json.dumps(json.load(open(sys.argv[1]))))' \
    "$build_dir/bench_service_throughput.json" \
    >> "$repo_root/BENCH_service.json"

echo "== bench (approx convergence, appending to BENCH_approx.json) =="
# Error-vs-samples curve beyond the brute-force guard; the bench itself
# fails if any point's empirical error escapes its certified half-width.
"$build_dir/bench_approx_convergence" --samples-max 4096 \
    --json "$build_dir/bench_approx_convergence.json"
python3 -c 'import json,sys; print(json.dumps(json.load(open(sys.argv[1]))))' \
    "$build_dir/bench_approx_convergence.json" \
    >> "$repo_root/BENCH_approx.json"

echo "== bench (adaptive stopping, appending to BENCH_approx.json) =="
# Sample-count reduction of the sequential stopping strategies vs the
# fixed Hoeffding count. The bench itself fails unless (1) bernstein draws
# >= 5x fewer samples on the zero-variance instance, (2) every estimate at
# every curve point stays within its certified per-fact half-width, and
# (3) serial and 4-thread runs are bit-identical.
"$build_dir/bench_adaptive_stopping" --facts 48 --threads 4 \
    --json "$build_dir/bench_adaptive_stopping.json"
python3 -c 'import json,sys; print(json.dumps(json.load(open(sys.argv[1]))))' \
    "$build_dir/bench_adaptive_stopping.json" \
    >> "$repo_root/BENCH_approx.json"

echo "== check.sh: all green =="
