#!/usr/bin/env bash
# CI entry point: configure (the top-level CMakeLists enforces
# -Wall -Wextra), build everything, and run the test suite — the repo's
# tier-1 verify. Usage: tools/ci.sh [build-dir]
#
# SANITIZE=1 tools/ci.sh [build-dir] instead builds with ASan+UBSan
# (-DULDP_SANITIZE=ON) and runs the fast unit-test subset sanitized —
# the substrate suites where boundary off-by-ones live (BigInt,
# Montgomery and ChaCha kernels, fixed-base, fixed point, CSV, masks,
# Paillier, DH/OT) — plus the trainers' and the wire's golden digests,
# which must hold in the sanitized RelWithDebInfo build too.
set -euo pipefail
cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 2)"

if [ "${SANITIZE:-0}" = "1" ]; then
  # Separate default build dir: writing ULDP_SANITIZE=ON into the plain
  # build/ cache would leave later non-sanitized runs silently sanitized.
  BUILD_DIR="${1:-build-asan}"
  FAST_TESTS='^(bigint_test|montgomery_primes_test|mont_kernel_test|chacha_kernel_test|fixed_base_test|fixed_point_test|csv_loader_test|mask_tags_test|secure_agg_test|sha_chacha_test|common_test|parallel_test|paillier_test|paillier_ctx_test|dh_test|oblivious_transfer_test|net_wire_test|net_transport_test|parse_test|async_rounds_test|multi_exp_test|packed_codec_test|net_stream_test|shard_round_test|session_test|membership_test|obs_test|mux_test|transcript_test|fl_common_test|trainer_golden_test|wire_golden_test)$'
  cmake -B "$BUILD_DIR" -S . -DULDP_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$BUILD_DIR" -j"$JOBS"
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
    ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$JOBS" -R "$FAST_TESTS"
  exit 0
fi

BUILD_DIR="${1:-build}"
cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j"$JOBS"
# Tier-1 twice: the global pool sized by the runner's native thread count,
# then an explicit 4-thread global pool, so a cross-caller scheduling hang
# shows up whatever the runner's core count. Every test carries a ctest
# TIMEOUT, so a hang fails here instead of stalling the job.
env -u ULDP_THREADS ctest --test-dir "$BUILD_DIR" --output-on-failure \
    -j"$JOBS"
ULDP_THREADS=4 ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$JOBS"

# The Protocol 1 walk-through: a server and three silo threads over
# in-process channels, printing what each party receives. It exits
# non-zero when the decoded aggregate misses the plaintext reference by
# 1e-8.
"$BUILD_DIR/example_private_aggregation_demo"

# Crypto fast-path micro bench in smoke mode: produces
# BENCH_micro_crypto.json in the build dir (uploaded by CI alongside the
# fig11 artifact) and fails the run if the cached-context operations, the
# fixed-base tables, multi-exp, either silo fold path or packed rounds ever
# disagree bitwise with their reference computations.
if [ -x "$BUILD_DIR/bench_micro_crypto" ]; then
  (cd "$BUILD_DIR" && ULDP_BENCH_SMOKE=1 ./bench_micro_crypto)
fi

# Transport-subsystem bench in smoke mode: produces
# BENCH_net_protocol.json (per-transport round latency + bytes on the wire
# per phase) and fails if any transport's aggregates diverge bitwise from
# the in-process protocol.
if [ -x "$BUILD_DIR/bench_net_protocol" ]; then
  (cd "$BUILD_DIR" && ULDP_BENCH_SMOKE=1 ./bench_net_protocol)
fi

# Async-rounds bench in smoke mode: produces BENCH_async_rounds.json
# (sync vs staleness-bounded async step latency under an injected 2x
# straggler, plus transport-backed async runs) and fails on bitwise
# divergence from the synchronous engine or an async speedup below 1.5x.
if [ -x "$BUILD_DIR/bench_async_rounds" ]; then
  (cd "$BUILD_DIR" && ULDP_BENCH_SMOKE=1 ./bench_async_rounds)
fi

# Streaming-round bench in smoke mode: produces BENCH_stream_scaling.json
# (peak RSS and largest round-phase frame, materializing vs streaming, at
# two user counts) and fails on bitwise divergence; check_bench then gates
# the streamed frame ceiling and the RSS growth ratio.
if [ -x "$BUILD_DIR/bench_stream_scaling" ]; then
  (cd "$BUILD_DIR" && ULDP_BENCH_SMOKE=1 ./bench_stream_scaling)
fi

# Membership-churn bench in smoke mode: produces
# BENCH_membership_churn.json (static vs churn step throughput, eviction
# and admission counts, checkpoint/resume identity) and fails if the
# churn run diverges from its active-set schedule reference or a resumed
# run diverges from the uninterrupted one.
if [ -x "$BUILD_DIR/bench_membership_churn" ]; then
  (cd "$BUILD_DIR" && ULDP_BENCH_SMOKE=1 ./bench_membership_churn)
fi

# Telemetry-overhead bench in smoke mode: produces BENCH_obs_overhead.json
# (traced vs untraced round latency as the median of 51 order-alternating
# pair ratios, NullSpan vs bare loop) and fails on bitwise divergence;
# check_bench then gates the <=2% traced-round ceiling and the zero-cost
# compiled-out span shape.
if [ -x "$BUILD_DIR/bench_obs_overhead" ]; then
  (cd "$BUILD_DIR" && ULDP_BENCH_SMOKE=1 ./bench_obs_overhead)
fi

# Docs-vs-code lint: every MessageType/StreamKind enumerator must appear
# in docs/wire.md and every relative markdown link must resolve, so the
# wire documentation cannot silently drift from src/net/messages.h.
python3 tools/check_docs.py

# Bench-regression gate: every committed baseline in bench/baselines/ is
# compared against the BENCH_*.json the smoke benches just wrote; a >25%
# latency regression, a lost speedup floor, or any bitwise-divergence flag
# fails the run (see tools/check_bench.py for the update procedure).
python3 tools/check_bench.py --bench-dir "$BUILD_DIR" \
    --baselines bench/baselines

# Ledger smokes: every ledger workload for a few rounds, from the ledger's
# own Release build in .bench_build. run.py exits nonzero when the decoded
# Protocol 1 aggregates differ from an in-process reference computed at
# run time, and the traced run also replays each round through the public
# party API, which must match the real run bitwise.
python3 bench/ledger/run.py --smoke
python3 bench/ledger/run.py --smoke --trace 1

# Loopback-TCP smoke round: a real uldp_fl_cli protocol server on an
# ephemeral port plus two silo client processes, with --verify asserting
# the distributed aggregates bitwise-match the in-process run.
if [ -x "$BUILD_DIR/uldp_fl_cli" ]; then
  # Waits up to 10 s for a line matching $2 in log $1.
  await_log() {  # $1=log $2=grep pattern
    for _ in $(seq 1 100); do
      grep -q "$2" "$1" 2>/dev/null && return 0
      sleep 0.1
    done
    return 1
  }
  # Starts a uldp_fl_cli server with the remaining arguments, its output
  # in $2, and waits for the port it reports: sets SERVER_PID and PORT.
  start_server() {  # $1=label $2=log, then the server's arguments
    local label="$1" log="$2"
    shift 2
    rm -f "$log"
    "$BUILD_DIR/uldp_fl_cli" "$@" > "$log" 2>&1 &
    SERVER_PID=$!
    if ! await_log "$log" "listening on port"; then
      echo "$label smoke: server never reported its port" >&2
      cat "$log" >&2 || true
      kill "$SERVER_PID" 2>/dev/null || true
      return 1
    fi
    PORT="$(sed -n 's/.*listening on port \([0-9]*\).*/\1/p' "$log" |
            head -n1)"
  }

  # One Protocol 1 loopback run: a --rounds=2 --verify server and two silo
  # clients, every party given $3, the server also $4 and silo 0 also $5.
  # The server's output goes to $2 and is printed.
  run_protocol_smoke() {  # $1=label $2=log $3=args $4=server $5=silo 0
    local label="$1" log="$2" c0 c1 fail=0
    # shellcheck disable=SC2086
    start_server "$label" "$log" --serve=0 --rounds=2 --verify $3 $4 ||
        return 1
    # shellcheck disable=SC2086
    "$BUILD_DIR/uldp_fl_cli" --connect=127.0.0.1:"$PORT" --silo-id=0 $3 $5 &
    c0=$!
    # shellcheck disable=SC2086
    "$BUILD_DIR/uldp_fl_cli" --connect=127.0.0.1:"$PORT" --silo-id=1 $3 &
    c1=$!
    wait "$SERVER_PID" || fail=1
    wait "$c0" || fail=1
    wait "$c1" || fail=1
    cat "$log"
    if [ "$fail" != "0" ]; then
      echo "$label smoke: loopback-TCP protocol round FAILED" >&2
      return 1
    fi
    echo "$label smoke: loopback-TCP protocol round OK (port $PORT)"
  }
  # --net-timeout: every TCP recv (handshake included) gets a deadline, so
  # a hung or never-connecting client fails this step in ~2 minutes
  # instead of hanging the workflow until the job timeout.
  SMOKE_ARGS="--silos=2 --users=6 --dim=8 --paillier-bits=512 --seed=11 \
--net-timeout=120"
  run_protocol_smoke net "$BUILD_DIR/net_smoke_server.log" "$SMOKE_ARGS" \
      "" "" || exit 1

  # OT sub-sampling smoke: at --user-sample-rate=0.5 half of each user's
  # OT slots carry Enc(0), so the silos fetch a private sample, and
  # --verify requires the in-process protocol's aggregates at that rate.
  run_protocol_smoke ot-rate "$BUILD_DIR/ot_rate_smoke_server.log" \
      "$SMOKE_ARGS --ot-slots=4 --user-sample-rate=0.5" "" "" || exit 1

  # A drill every party must fail: a --rounds=1 server and three silo
  # clients, all given $3. The server and all three silos must exit
  # non-zero and the server log $2 (silo logs beside it) must match $4.
  run_refusal_drill() {  # $1=label $2=server log $3=args $4=log pattern
    local label="$1" log="$2" pids="" exited_ok="" s pid
    # shellcheck disable=SC2086
    start_server "$label" "$log" --serve=0 --rounds=1 $3 || return 1
    for s in 0 1 2; do
      # shellcheck disable=SC2086
      "$BUILD_DIR/uldp_fl_cli" --connect=127.0.0.1:"$PORT" --silo-id=$s \
          $3 > "${log%_server.log}_silo$s.log" 2>&1 &
      pids="$pids $!"
    done
    wait "$SERVER_PID" && exited_ok="$exited_ok server"
    s=0
    for pid in $pids; do
      wait "$pid" && exited_ok="$exited_ok silo$s"
      s=$((s + 1))
    done
    cat "$log"
    if [ -n "$exited_ok" ] || ! grep -q "$4" "$log"; then
      echo "$label drill: expected every party to fail naming '$4'" \
          "(exited 0:${exited_ok:- none})" >&2
      return 1
    fi
    echo "$label drill: the server and every silo failed (port $PORT)"
  }
  # N_max drill: at --n-max=2 the demo histograms give some silo more
  # than N_max records of one user. That silo refuses at setup, so the
  # server and all three silos must exit non-zero, the server naming the
  # refusal, instead of decoding a garbage aggregate with exit 0.
  run_refusal_drill n-max "$BUILD_DIR/nmax_drill_server.log" \
      "--silos=3 --users=6 --dim=4 --seed=11 --paillier-bits=512 \
--n-max=2 --net-timeout=120" "more than N_max records" || exit 1
  # Decode-bound drill: at --n-max=8 every silo holds at most 4 records
  # of a user, so no silo refuses, but one user's total is 9, where
  # C_LCM / N_u = 840 / 9 is not integral. The round's aggregate then lies
  # beyond what an honest round can reach, and the server must refuse to
  # decode it instead of printing a 1e140 aggregate with every party
  # exiting 0.
  run_refusal_drill decode-bound "$BUILD_DIR/decode_bound_drill_server.log" \
      "--silos=3 --users=6 --dim=4 --seed=11 --paillier-bits=512 \
--ot-slots=4 --stream-chunk-users=2 --stream-chunk-coords=3 --n-max=8 \
--net-timeout=120" "beyond what an honest round can reach" || exit 1

  # Enc-weight stream smoke: streaming without OT, so the server streams
  # the encrypted weights (3 chunks of 2 users a round) and the silos
  # stream their ciphers back. Only the shared chunk-stream sender emits
  # the per-chunk telemetry check_metrics.py requires of the server.
  # Every user is in every round (sample rate 1, no OT), so the session
  # re-sends each user's weight ciphertext unchanged and silo 0 derives
  # its session powers once, in round 0: one per active user, SESSION_POWERS
  # of them, however many rounds run; a silo that re-derived them every
  # round would read twice that. The server folds nothing.
  EW_OUT="$BUILD_DIR/enc_weights_smoke_server"
  EW_SILO="$BUILD_DIR/enc_weights_smoke_silo0"
  SESSION_POWERS=5
  rm -f "${EW_OUT}_metrics.json" "${EW_OUT}_trace.json" \
      "${EW_SILO}_metrics.json"
  run_protocol_smoke enc-weights "$EW_OUT.log" \
      "$SMOKE_ARGS --stream-chunk-users=2" \
      "--metrics-out=${EW_OUT}_metrics.json --trace-out=${EW_OUT}_trace.json" \
      "--metrics-out=${EW_SILO}_metrics.json" || exit 1
  python3 tools/check_metrics.py \
      --metrics "${EW_OUT}_metrics.json" --trace "${EW_OUT}_trace.json" \
      --require-metric net.stream.enc-weights.chunks_sent:6 \
      --require-hist net.stream.enc-weights.ack_wait_ns \
      --require-span stream.chunk.enc_weights:6 \
      --forbid-metric core.session_powers
  python3 tools/check_metrics.py --metrics "${EW_SILO}_metrics.json" \
      --require-metric core.session_powers=$SESSION_POWERS

  # Async-rounds loopback smokes: the staleness-bounded FL server plus two
  # silo clients over real TCP, --verify asserting bitwise identity to the
  # synchronous engine at max_staleness=0 — once with plaintext RoundAck
  # uploads, once with pairwise-masked uploads (--masked), which --verify
  # replays through the secure fixed-point reduce.
  run_async_smoke() {  # $1=label $2=log $3=args for every party $4=server
    local label="$1" log="$2" args c0 c1 fail=0
    args="--async --silos=2 --dim=8 --seed=11 --net-timeout=120 $3"
    # shellcheck disable=SC2086
    start_server "$label" "$log" --serve=0 --rounds=3 --verify $args \
        ${4:-} || return 1
    # shellcheck disable=SC2086
    "$BUILD_DIR/uldp_fl_cli" --connect=127.0.0.1:"$PORT" --silo-id=0 \
        $args &
    c0=$!
    # shellcheck disable=SC2086
    "$BUILD_DIR/uldp_fl_cli" --connect=127.0.0.1:"$PORT" --silo-id=1 \
        $args &
    c1=$!
    wait "$SERVER_PID" || fail=1
    wait "$c0" || fail=1
    wait "$c1" || fail=1
    cat "$log"
    if [ "$fail" != "0" ]; then
      echo "$label smoke: loopback-TCP rounds FAILED" >&2
      return 1
    fi
    echo "$label smoke: loopback-TCP rounds OK (port $PORT)"
  }
  async_counts() {  # $1=metrics file: "steps applied"
    python3 -c 'import json, sys
c = json.load(open(sys.argv[1]))["counters"]
print(c.get("fl.async.steps"), c.get("fl.async.applied"))' "$1"
  }
  # Each server writes --metrics-out. A masked step books its 2 unmasked
  # vectors and the step in the fl.async counters, as a plaintext step
  # does, so both files read 3 steps and 6 applied updates.
  ASYNC_METRICS="$BUILD_DIR/net_async_smoke_server_metrics.json"
  MASKED_METRICS="$BUILD_DIR/net_masked_smoke_server_metrics.json"
  rm -f "$ASYNC_METRICS" "$MASKED_METRICS"
  run_async_smoke async "$BUILD_DIR/net_async_smoke_server.log" "" \
      "--metrics-out=$ASYNC_METRICS" || exit 1
  run_async_smoke masked "$BUILD_DIR/net_masked_smoke_server.log" \
      --masked "--metrics-out=$MASKED_METRICS" || exit 1
  python3 tools/check_metrics.py --metrics "$MASKED_METRICS" \
      --require-metric fl.async.steps:3 \
      --require-metric fl.async.applied:6
  PLAIN_ASYNC="$(async_counts "$ASYNC_METRICS")"
  MASKED_ASYNC="$(async_counts "$MASKED_METRICS")"
  if [ "$PLAIN_ASYNC" != "$MASKED_ASYNC" ]; then
    echo "masked smoke: fl.async steps/applied differ from the plaintext" \
        "run (plaintext='$PLAIN_ASYNC' masked='$MASKED_ASYNC')" >&2
    exit 1
  fi

  # Elastic-churn loopback smoke: three silos over real TCP with dynamic
  # membership — silo 0 crashes once released with version >= 2 (evicted,
  # its buffered update dropped), silo 2 joins mid-run at version >= 3
  # (admitted at the next flush). The crashing client exits 0 ("crashed
  # as scheduled"); the server must still finish all rounds. Silo 2 starts
  # first, and silos 0 and 1 only once the server has parked its join
  # request ("silo connected (0/2)"), so the request cannot arrive after
  # the 6 steps have run.
  CHURN_LOG="$BUILD_DIR/net_churn_smoke_server.log"
  CHURN_ARGS="--async --elastic --min-silos=1 --silos=3 --dim=8 --seed=11 \
--net-timeout=120 --fail-silo=0:2 --join-silo=2:3"
  # shellcheck disable=SC2086
  start_server churn "$CHURN_LOG" --serve=0 --rounds=6 $CHURN_ARGS || exit 1
  # shellcheck disable=SC2086
  "$BUILD_DIR/uldp_fl_cli" --connect=127.0.0.1:"$PORT" --silo-id=2 \
      $CHURN_ARGS &
  C2=$!
  if ! await_log "$CHURN_LOG" "silo connected (0/2)"; then
    echo "churn smoke: the server never parked silo 2's join request" >&2
    cat "$CHURN_LOG" >&2 || true
    kill "$SERVER_PID" "$C2" 2>/dev/null || true
    exit 1
  fi
  # shellcheck disable=SC2086
  "$BUILD_DIR/uldp_fl_cli" --connect=127.0.0.1:"$PORT" --silo-id=0 \
      $CHURN_ARGS &
  C0=$!
  # shellcheck disable=SC2086
  "$BUILD_DIR/uldp_fl_cli" --connect=127.0.0.1:"$PORT" --silo-id=1 \
      $CHURN_ARGS &
  C1=$!
  FAIL=0
  wait "$SERVER_PID" || FAIL=1
  wait "$C0" || FAIL=1
  wait "$C1" || FAIL=1
  wait "$C2" || FAIL=1
  cat "$CHURN_LOG"
  if [ "$FAIL" != "0" ]; then
    echo "churn smoke: elastic evict + late-join run FAILED" >&2
    exit 1
  fi
  if ! grep -q "evictions 1" "$CHURN_LOG" || \
     ! grep -q "admissions 1" "$CHURN_LOG"; then
    echo "churn smoke: expected exactly one eviction and one admission" >&2
    exit 1
  fi
  echo "churn smoke: elastic evict + late-join run OK (port $PORT)"

  # Kill-and-resume loopback smoke: a checkpointing async server is
  # SIGKILLed mid-run (clients slowed with --straggler so the kill lands
  # between rounds), then a fresh server --resumes from the surviving
  # session.ckpt with new clients; its final params digest must match an
  # uninterrupted run's bit for bit.
  RESUME_ARGS="--async --silos=2 --dim=8 --seed=11 --net-timeout=120"
  CKPT_DIR="$BUILD_DIR/resume_smoke_ckpt"
  rm -rf "$CKPT_DIR" && mkdir -p "$CKPT_DIR"
  run_async_pair() {  # $1=log $2=extra server args $3=extra client args
    local log="$1" server_args="$2" client_args="$3" c0 c1
    # shellcheck disable=SC2086
    start_server resume "$log" --serve=0 --rounds=6 $RESUME_ARGS \
        $server_args || return 1
    # shellcheck disable=SC2086
    "$BUILD_DIR/uldp_fl_cli" --connect=127.0.0.1:"$PORT" --silo-id=0 \
        $RESUME_ARGS $client_args > /dev/null 2>&1 &
    c0=$!
    # shellcheck disable=SC2086
    "$BUILD_DIR/uldp_fl_cli" --connect=127.0.0.1:"$PORT" --silo-id=1 \
        $RESUME_ARGS $client_args > /dev/null 2>&1 &
    c1=$!
    SMOKE_SERVER_PID=$SERVER_PID
    SMOKE_CLIENT_PIDS="$c0 $c1"
    return 0
  }
  # Reference: uninterrupted 6-round run.
  run_async_pair "$BUILD_DIR/resume_smoke_ref.log" "" "" || exit 1
  FAIL=0
  wait "$SMOKE_SERVER_PID" || FAIL=1
  for pid in $SMOKE_CLIENT_PIDS; do wait "$pid" || FAIL=1; done
  if [ "$FAIL" != "0" ]; then
    echo "resume smoke: reference run FAILED" >&2
    cat "$BUILD_DIR/resume_smoke_ref.log" >&2
    exit 1
  fi
  REF_DIGEST="$(sed -n 's/.*final params digest \([0-9a-f]*\).*/\1/p' \
      "$BUILD_DIR/resume_smoke_ref.log" | head -n1)"
  # Interrupted run: checkpoint every round, kill -9 the server once the
  # first checkpoint lands (~0.3 s/round via --straggler, so the run is
  # nowhere near done). The orphaned clients then fail; ignore them.
  run_async_pair "$BUILD_DIR/resume_smoke_cut.log" \
      "--checkpoint-dir=$CKPT_DIR --checkpoint-every=1" \
      "--straggler=0.3" || exit 1
  for _ in $(seq 1 200); do
    [ -f "$CKPT_DIR/session.ckpt" ] && break
    sleep 0.1
  done
  if [ ! -f "$CKPT_DIR/session.ckpt" ]; then
    echo "resume smoke: no checkpoint appeared before the kill" >&2
    kill "$SMOKE_SERVER_PID" 2>/dev/null || true
    exit 1
  fi
  if ! kill -9 "$SMOKE_SERVER_PID" 2>/dev/null; then
    echo "resume smoke: server finished before the kill; raise --straggler" \
        >&2
    exit 1
  fi
  wait "$SMOKE_SERVER_PID" 2>/dev/null || true
  for pid in $SMOKE_CLIENT_PIDS; do wait "$pid" 2>/dev/null || true; done
  # Resume: fresh server + clients continue from the surviving checkpoint.
  run_async_pair "$BUILD_DIR/resume_smoke_res.log" \
      "--checkpoint-dir=$CKPT_DIR --resume" "" || exit 1
  FAIL=0
  wait "$SMOKE_SERVER_PID" || FAIL=1
  for pid in $SMOKE_CLIENT_PIDS; do wait "$pid" || FAIL=1; done
  cat "$BUILD_DIR/resume_smoke_res.log"
  if [ "$FAIL" != "0" ]; then
    echo "resume smoke: resumed run FAILED" >&2
    exit 1
  fi
  RES_DIGEST="$(sed -n 's/.*final params digest \([0-9a-f]*\).*/\1/p' \
      "$BUILD_DIR/resume_smoke_res.log" | head -n1)"
  if [ -z "$REF_DIGEST" ] || [ "$REF_DIGEST" != "$RES_DIGEST" ]; then
    echo "resume smoke: digest mismatch (ref=$REF_DIGEST res=$RES_DIGEST)" >&2
    exit 1
  fi
  echo "resume smoke: kill-and-resume run bitwise-identical" \
      "(digest $REF_DIGEST)"

  # Local async resume smoke: an in-process --async experiment cut at
  # round 4 with a checkpoint, then resumed in a fresh process, must print
  # the uninterrupted run's round-6 trace row (loss, utility, epsilon) and
  # report its fl.async.steps / fl.async.applied totals in --metrics-out.
  LOCAL_ARGS="--dataset=heart --method=uldp-avg --async --eval-every=2"
  LOCAL_CKPT="$BUILD_DIR/local_resume_ckpt"
  rm -rf "$LOCAL_CKPT" && mkdir -p "$LOCAL_CKPT"
  # shellcheck disable=SC2086
  if ! "$BUILD_DIR/uldp_fl_cli" $LOCAL_ARGS --rounds=6 \
          --metrics-out="$BUILD_DIR/local_resume_ref_metrics.json" \
          > "$BUILD_DIR/local_resume_ref.log" ||
     ! "$BUILD_DIR/uldp_fl_cli" $LOCAL_ARGS --rounds=4 \
          --checkpoint-dir="$LOCAL_CKPT" --checkpoint-every=2 > /dev/null ||
     ! "$BUILD_DIR/uldp_fl_cli" $LOCAL_ARGS --rounds=6 --resume \
          --checkpoint-dir="$LOCAL_CKPT" --checkpoint-every=2 \
          --metrics-out="$BUILD_DIR/local_resume_res_metrics.json" \
          > "$BUILD_DIR/local_resume_res.log"; then
    echo "local resume smoke: an --async experiment run FAILED" >&2
    exit 1
  fi
  REF_ROW="$(grep -E '^ULDP-AVG +6 ' "$BUILD_DIR/local_resume_ref.log" || true)"
  RES_ROW="$(grep -E '^ULDP-AVG +6 ' "$BUILD_DIR/local_resume_res.log" || true)"
  if [ -z "$REF_ROW" ] || [ "$REF_ROW" != "$RES_ROW" ]; then
    echo "local resume smoke: round-6 rows differ (ref='$REF_ROW'" \
        "res='$RES_ROW')" >&2
    exit 1
  fi
  REF_ASYNC="$(async_counts "$BUILD_DIR/local_resume_ref_metrics.json")"
  RES_ASYNC="$(async_counts "$BUILD_DIR/local_resume_res_metrics.json")"
  if [ "$REF_ASYNC" = "None None" ] || [ "$REF_ASYNC" != "$RES_ASYNC" ]; then
    echo "local resume smoke: fl.async steps/applied differ" \
        "(ref='$REF_ASYNC' res='$RES_ASYNC')" >&2
    exit 1
  fi
  echo "local resume smoke: resumed --async experiment matches ($REF_ROW;" \
      "fl.async steps/applied $RES_ASYNC)"

  # Telemetry loopback smoke: a fully instrumented distributed round with
  # OT weight distribution, ciphertext packing, and chunked streaming all
  # on (--verify asserts the instrumented run still bitwise-matches the
  # in-process protocol). The server and silo 0 each write
  # --metrics-out/--trace-out; tools/check_metrics.py then validates both
  # snapshots structurally and requires the migrated counters, the
  # epoll-mux histograms, per-chunk stream telemetry on the sender side,
  # and a trace covering every Protocol 1 phase plus the OT round, the
  # streamed cipher folds, and mux dispatch.
  OBS_ARGS="$SMOKE_ARGS --ot-slots=4 --pack-slots=2 --stream-chunk-users=4"
  rm -f "$BUILD_DIR"/obs_smoke_server_metrics.json \
      "$BUILD_DIR"/obs_smoke_server_trace.json \
      "$BUILD_DIR"/obs_smoke_silo0_metrics.json \
      "$BUILD_DIR"/obs_smoke_silo0_trace.json
  run_protocol_smoke obs "$BUILD_DIR/obs_smoke_server.log" "$OBS_ARGS" \
      "--metrics-out=$BUILD_DIR/obs_smoke_server_metrics.json \
--trace-out=$BUILD_DIR/obs_smoke_server_trace.json" \
      "--metrics-out=$BUILD_DIR/obs_smoke_silo0_metrics.json \
--trace-out=$BUILD_DIR/obs_smoke_silo0_trace.json" || exit 1
  # Server side: migrated transport/core counters, mux
  # histograms, and one complete span per protocol phase per round. Both
  # sides also name the Montgomery kernels their contexts ran on; the
  # runner's CPU decides which counts are nonzero, so each floor is 0.
  # A server derives no blind and folds nothing, and its snapshot and
  # trace describe the distributed run only, not the --verify reference
  # it runs afterwards, so every silo work count must be absent or 0.
  python3 tools/check_metrics.py \
      --metrics "$BUILD_DIR/obs_smoke_server_metrics.json" \
      --trace "$BUILD_DIR/obs_smoke_server_trace.json" \
      --require-metric net.transport.bytes_sent \
      --require-metric net.transport.bytes_received \
      --require-metric net.mux.frames \
      --require-metric net.mux.epoll_wakeups \
      --forbid-metric core.blind_derivations \
      --forbid-metric core.fold.straus_batches \
      --forbid-metric core.fold.table_batches \
      --forbid-metric core.weight_table_cache_hits \
      --require-metric math.mont.portable_contexts:0 \
      --require-metric math.mont.adx_contexts:0 \
      --require-metric math.mont.ifma_contexts:0 \
      --require-hist net.mux.dispatch_ns \
      --require-hist net.mux.epoll_wait_ns \
      --require-hist net.transport.frame_bytes \
      --require-hist net.server.phase_ns.aggregate \
      --require-span proto.round:2 \
      --require-span proto.phase.setup \
      --require-span proto.phase.enc_weights:2 \
      --require-span proto.phase.silo_ciphers:2 \
      --require-span proto.phase.aggregate:2 \
      --require-span proto.ot_round:2 \
      --require-span stream.fold.silo_cipher \
      --require-span mux.drain \
      --require-span core.blind_histogram=0 \
      --require-span core.accumulate_users=0
  # Silo side: per-chunk stream telemetry lives in the sender process, and
  # the fold's cost model sends silo 0's batch (5 active users x 4 packed
  # coordinates per round) down the Straus path. The silo draws ChaCha20
  # keystream (masks, blinds, OT slot choice), so it also names the
  # keystream kernel; the runner's CPU decides which count is nonzero. The
  # server may draw none, so only the silo is required to have them. The
  # silo derives each of its 6 users' blinds once, in setup, and its 2
  # rounds fold with the cached scalars, so the count is exactly 6; a fold
  # that re-derived blinds would add its active users every round.
  python3 tools/check_metrics.py \
      --metrics "$BUILD_DIR/obs_smoke_silo0_metrics.json" \
      --trace "$BUILD_DIR/obs_smoke_silo0_trace.json" \
      --require-metric net.stream.silo-cipher.chunks_sent:2 \
      --require-metric core.fold.straus_batches \
      --require-metric core.blind_derivations=6 \
      --require-metric net.stream.silo-cipher.chunk_bytes \
      --require-metric math.mont.portable_contexts:0 \
      --require-metric math.mont.adx_contexts:0 \
      --require-metric math.mont.ifma_contexts:0 \
      --require-metric crypto.chacha.scalar_blocks:0 \
      --require-metric crypto.chacha.avx2_blocks:0 \
      --require-metric crypto.chacha.avx512_blocks:0 \
      --require-hist net.stream.silo-cipher.ack_wait_ns \
      --require-span silo.setup \
      --require-span silo.round:2 \
      --require-span silo.ot_round:2 \
      --require-span silo.upload_cipher:2 \
      --require-span core.accumulate_users \
      --require-span stream.chunk.silo_cipher:2

  # Transcript smoke: record a 2-silo loopback run with OT weight
  # distribution, ciphertext packing, and chunked streaming all on, then
  # --verify-transcript all three transcripts (hash chain + keyed HMAC +
  # byte-exact deterministic replay through the real party drivers), and
  # finally corrupt one byte of the server transcript and assert the
  # verifier rejects it with a nonzero exit.
  TR_DIR="$BUILD_DIR/transcript_smoke"
  TR_KEY="00112233aabbcc"
  TR_ARGS="$SMOKE_ARGS --n-max=8 --ot-slots=4 --pack-slots=2 \
--stream-chunk-users=4 --record-transcript=$TR_DIR --hmac-key=$TR_KEY"
  rm -rf "$TR_DIR" && mkdir -p "$TR_DIR"
  run_protocol_smoke transcript "$BUILD_DIR/transcript_smoke_server.log" \
      "$TR_ARGS" "" "" || exit 1
  for t in server silo0 silo1; do
    if [ ! -f "$TR_DIR/$t.ult" ]; then
      echo "transcript smoke: $TR_DIR/$t.ult was not written" >&2
      exit 1
    fi
    if ! "$BUILD_DIR/uldp_fl_cli" \
        --verify-transcript="$TR_DIR/$t.ult" --hmac-key="$TR_KEY"; then
      echo "transcript smoke: $t.ult failed verification" >&2
      exit 1
    fi
  done
  # One flipped byte (mid-file, past the header) must be detected.
  cp "$TR_DIR/server.ult" "$TR_DIR/server_corrupt.ult"
  printf '\377' | dd of="$TR_DIR/server_corrupt.ult" bs=1 seek=2000 \
      conv=notrunc status=none
  if "$BUILD_DIR/uldp_fl_cli" \
      --verify-transcript="$TR_DIR/server_corrupt.ult" \
      --hmac-key="$TR_KEY" 2>/dev/null; then
    echo "transcript smoke: corrupted transcript was ACCEPTED" >&2
    exit 1
  fi
  echo "transcript smoke: record + verify + corruption-reject OK"
fi
