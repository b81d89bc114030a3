#!/usr/bin/env bash
# Build and test the analysis gauntlet configurations:
#
#   plain     default build; also runs the rtlint determinism linter over
#             the source tree (the binary is built as part of the tree)
#   sanitize  ASan+UBSan (-DRTP_SANITIZE=address): lifetime bugs on the
#             fault paths (job resubmission, node-map mutation) that a
#             plain build can silently survive
#   tsan      ThreadSanitizer (-DRTP_SANITIZE=thread): data races in
#             ThreadPool, ServiceServer, ExperimentRunner and the GA memo,
#             driven hard by the contention stress tests.  Zero reports,
#             no suppression file.
#
# Usage: scripts/check.sh [--plain-only|--sanitize-only|--tsan|--all-sans]
#   (default runs plain + sanitize; --all-sans adds the tsan pass)
# Extra configure flags (e.g. RTP_CMAKE_ARGS=-DRTP_WERROR=ON, as CI does)
# are appended to every cmake invocation.
set -euo pipefail

cd "$(dirname "$0")/.."
jobs=$(nproc 2>/dev/null || echo 4)

run_config() {
  local dir=$1
  shift
  echo "=== configure $dir ($* ${RTP_CMAKE_ARGS:-}) ==="
  # shellcheck disable=SC2086
  cmake -B "$dir" -S . "$@" ${RTP_CMAKE_ARGS:-} >/dev/null
  echo "=== build $dir ==="
  cmake --build "$dir" -j "$jobs"
  echo "=== ctest $dir ==="
  ctest --test-dir "$dir" --output-on-failure -j "$jobs"
  # The parallel-runner determinism tests are the contract behind every
  # bench's --threads flag; run them explicitly (and under the sanitizers,
  # where thread bugs actually surface) with a hard timeout so a deadlocked
  # pool fails fast instead of hanging the gauntlet.  The Stress suite
  # carries its own ctest TIMEOUT property on top.
  echo "=== ctest $dir (runner determinism + contention stress) ==="
  ctest --test-dir "$dir" -R 'ExperimentRunner|ThreadPool|Stress|GaMemo' \
    --timeout 300 --output-on-failure -j "$jobs"
  # The shadow fuzz is the bit-identity contract between the shadow
  # schedule and the recompute oracle; run it explicitly in every
  # configuration (the sanitizers see the repair/release arithmetic under
  # full churn).
  echo "=== ctest $dir (shadow fuzz) ==="
  ctest --test-dir "$dir" -R 'ShadowFuzz' \
    --timeout 300 --output-on-failure -j "$jobs"
  # End-to-end smoke of the online wait-time daemon: record a small ANL
  # session as an RTP/1 event log, then drive rtpd in stdin mode with the
  # log plus a STATE/STATS/QUIT epilogue.  Catches protocol or session
  # regressions that unit tests on the pieces might miss.
  echo "=== rtpd stdin smoke ($dir) ==="
  local tmp
  tmp=$(mktemp -d)
  "$dir/examples/tracegen" --out-dir "$tmp" --scale 0.01 >/dev/null
  "$dir/tools/rtpd" --trace "$tmp/anl.trace" --dump-log > "$tmp/anl.events"
  { cat "$tmp/anl.events"; printf 'STATE\nSTATS\nQUIT\n'; } |
    "$dir/tools/rtpd" --trace "$tmp/anl.trace" --mode stdin > "$tmp/anl.replies"
  if grep -q '^ERR' "$tmp/anl.replies"; then
    echo "rtpd smoke: unexpected ERR response" >&2
    grep '^ERR' "$tmp/anl.replies" >&2
    exit 1
  fi
  grep -q '^OK bye$' "$tmp/anl.replies" || { echo "rtpd smoke: no OK bye" >&2; exit 1; }
  grep -q 'hit_rate=' "$tmp/anl.replies" || { echo "rtpd smoke: no STATS line" >&2; exit 1; }

  # Crash-recovery smoke: run the same stream with an ESTIMATE after every
  # SUBMIT, kill -9 the journaling server mid-stream, restart with --recover
  # and feed the rest.  The recovered run's replies (every event ack, every
  # estimate, the STATE line) and the deterministic STATS keys must be
  # identical to an uncrashed reference run.
  echo "=== rtpd crash-recovery smoke ($dir) ==="
  awk 'NF && $1 !~ /^#/ { print; if ($1 == "SUBMIT") print "ESTIMATE", $3 }' \
    "$tmp/anl.events" > "$tmp/flow"
  local total cut
  total=$(wc -l < "$tmp/flow")
  cut=$((total / 2))
  { cat "$tmp/flow"; printf 'STATE\nSTATS\nQUIT\n'; } |
    "$dir/tools/rtpd" --trace "$tmp/anl.trace" --mode stdin > "$tmp/ref.replies"

  mkfifo "$tmp/feed"
  "$dir/tools/rtpd" --trace "$tmp/anl.trace" --mode stdin \
    --journal "$tmp/wal.rtpj" --fsync always --snapshot-every 40 \
    < "$tmp/feed" > "$tmp/crash.replies" &
  local victim=$!
  exec 9> "$tmp/feed"
  head -n "$cut" "$tmp/flow" >&9
  # Every fed line is answered (and journaled) before the kill: wait for the
  # greeting plus one reply per line, then murder the server mid-session.
  for _ in $(seq 1 300); do
    [ "$(wc -l < "$tmp/crash.replies")" -ge $((cut + 1)) ] && break
    sleep 0.1
  done
  kill -9 "$victim" 2>/dev/null || true
  wait "$victim" 2>/dev/null || true
  exec 9>&-
  [ "$(wc -l < "$tmp/crash.replies")" -eq $((cut + 1)) ] ||
    { echo "rtpd crash smoke: expected $((cut + 1)) pre-crash replies" >&2; exit 1; }

  { tail -n +$((cut + 1)) "$tmp/flow"; printf 'STATE\nSTATS\nQUIT\n'; } |
    "$dir/tools/rtpd" --trace "$tmp/anl.trace" --mode stdin \
      --recover "$tmp/wal.rtpj" --fsync always --snapshot-every 40 \
      > "$tmp/rec.replies" 2> "$tmp/rec.log"
  grep -q '^rtpd recovered ' "$tmp/rec.log" ||
    { echo "rtpd crash smoke: no recovery banner" >&2; cat "$tmp/rec.log" >&2; exit 1; }
  if grep -q '^ERR' "$tmp/crash.replies" "$tmp/rec.replies"; then
    echo "rtpd crash smoke: unexpected ERR response" >&2
    grep '^ERR' "$tmp/crash.replies" "$tmp/rec.replies" >&2
    exit 1
  fi
  # Post-crash replies (tail events, estimates, STATE) must match the
  # uncrashed run byte for byte; STATS is compared on its deterministic keys
  # (requests/qps/journal counters legitimately differ across the restart).
  tail -n +$((cut + 2)) "$tmp/ref.replies" | head -n $((total - cut + 1)) > "$tmp/ref.tail"
  tail -n +2 "$tmp/rec.replies" | head -n $((total - cut + 1)) > "$tmp/rec.tail"
  diff "$tmp/ref.tail" "$tmp/rec.tail" ||
    { echo "rtpd crash smoke: recovered replies diverge" >&2; exit 1; }
  local key ref_val rec_val
  for key in ' events=' ' completed=' ' mean_wait_s=' ' mean_abs_err_s='; do
    ref_val=$(grep '^OK requests=' "$tmp/ref.replies" | grep -o "$key[^ ]*")
    rec_val=$(grep '^OK requests=' "$tmp/rec.replies" | grep -o "$key[^ ]*")
    [ -n "$ref_val" ] && [ "$ref_val" = "$rec_val" ] ||
      { echo "rtpd crash smoke: STATS mismatch:$ref_val vs$rec_val" >&2; exit 1; }
  done

  # Replication failover smoke: a primary streams its journal to a warm
  # standby THROUGH the rtpfault chaos proxy (with a scripted torn frame, so
  # the resync path runs), the primary is killed with -9, the follower is
  # promoted over the wire with rtpctl, and the promoted follower must
  # answer the rest of the stream byte-for-byte like the uncrashed
  # reference run.  Finishes with a SIGPIPE regression: a hard-closed link
  # through rtpfault must not kill the server.
  echo "=== rtpd replication failover smoke ($dir) ==="
  local fol_port repl_port proxy_port last_seq fol_pid proxy_pid
  # Fail without orphans: the smoke's daemons inherit our stdout/stderr, so
  # leaving one behind would hold any pipe this script writes into open.
  repl_fail() {
    echo "repl smoke: $*" >&2
    local p
    for p in "${victim:-}" "${fol_pid:-}" "${proxy_pid:-}"; do
      [ -n "$p" ] && kill -9 "$p" 2>/dev/null || true
    done
    exit 1
  }
  "$dir/tools/rtpd" --trace "$tmp/anl.trace" --mode tcp --port 0 \
    --journal "$tmp/fol.rtpj" --follow 0 2> "$tmp/fol.log" &
  fol_pid=$!
  for _ in $(seq 1 300); do
    grep -q '^rtpd listening on ' "$tmp/fol.log" &&
      grep -q '^rtpd following on ' "$tmp/fol.log" && break
    sleep 0.1
  done
  repl_port=$(sed -n 's/^rtpd following on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$tmp/fol.log")
  fol_port=$(sed -n 's/^rtpd listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$tmp/fol.log")
  [ -n "$repl_port" ] && [ -n "$fol_port" ] ||
    { cat "$tmp/fol.log" >&2; repl_fail "follower did not come up"; }

  "$dir/tools/rtpfault" --listen 0 --target "127.0.0.1:$repl_port" \
    --script 'up:torn@2=9,jitter=1' --seed 7 2> "$tmp/fault.log" &
  proxy_pid=$!
  for _ in $(seq 1 300); do
    grep -q '^rtpfault listening on ' "$tmp/fault.log" && break
    sleep 0.1
  done
  proxy_port=$(sed -n 's/^rtpfault listening on 127\.0\.0\.1:\([0-9]*\) .*$/\1/p' "$tmp/fault.log")
  [ -n "$proxy_port" ] ||
    { cat "$tmp/fault.log" >&2; repl_fail "rtpfault did not come up"; }

  mkfifo "$tmp/feed2"
  "$dir/tools/rtpd" --trace "$tmp/anl.trace" --mode stdin \
    --journal "$tmp/pri.rtpj" --fsync always --heartbeat-ms 50 \
    --replicate-to "127.0.0.1:$proxy_port" \
    < "$tmp/feed2" > "$tmp/pri.replies" &
  victim=$!
  exec 8> "$tmp/feed2"
  { head -n "$cut" "$tmp/flow"; printf 'STATS\n'; } >&8
  for _ in $(seq 1 300); do
    [ "$(wc -l < "$tmp/pri.replies")" -ge $((cut + 2)) ] && break
    sleep 0.1
  done
  last_seq=$(grep -o ' repl_last_seq=[0-9]*' "$tmp/pri.replies" | grep -o '[0-9]*$')
  [ -n "$last_seq" ] || repl_fail "primary STATS has no repl_last_seq"
  # Wait until the follower has applied every record the primary committed,
  # then murder the primary mid-session.
  for _ in $(seq 1 300); do
    "$dir/tools/rtpctl" --servers "127.0.0.1:$fol_port" STATS 2>/dev/null |
      grep -q " repl_applied_seq=$last_seq " && break
    sleep 0.1
  done
  "$dir/tools/rtpctl" --servers "127.0.0.1:$fol_port" STATS |
    grep -q " repl_applied_seq=$last_seq " ||
    repl_fail "follower never caught up to seq $last_seq"
  kill -9 "$victim" 2>/dev/null || true
  wait "$victim" 2>/dev/null || true
  exec 8>&-

  "$dir/tools/rtpctl" --servers "127.0.0.1:$fol_port" PROMOTE > "$tmp/promote.reply"
  grep -q '^OK role=primary' "$tmp/promote.reply" ||
    { cat "$tmp/promote.reply" >&2; repl_fail "PROMOTE failed"; }

  # The promoted follower finishes the stream; its replies (tail events,
  # estimates, STATE) must equal the uncrashed reference byte for byte.
  { tail -n +$((cut + 1)) "$tmp/flow"; printf 'STATE\n'; } |
    "$dir/tools/rtpctl" --servers "127.0.0.1:$fol_port" --stdin > "$tmp/fol.tail"
  diff "$tmp/ref.tail" "$tmp/fol.tail" ||
    repl_fail "promoted follower replies diverge"
  for key in ' events=' ' completed=' ' mean_wait_s='; do
    ref_val=$(grep '^OK requests=' "$tmp/ref.replies" | grep -o "$key[^ ]*")
    rec_val=$("$dir/tools/rtpctl" --servers "127.0.0.1:$fol_port" STATS |
      grep -o "$key[^ ]*")
    [ -n "$ref_val" ] && [ "$ref_val" = "$rec_val" ] ||
      repl_fail "STATS mismatch:$ref_val vs$rec_val"
  done
  kill "$proxy_pid" 2>/dev/null || true  # the proxy outlives its links
  wait "$proxy_pid" 2>/dev/null || true

  # SIGPIPE regression: hard-close the first proxied link mid-greeting; the
  # server must shrug (EPIPE through rtp::io, SIGPIPE ignored) and keep
  # serving, and the client must retry onto a fresh link and succeed.
  "$dir/tools/rtpfault" --listen 0 --target "127.0.0.1:$fol_port" \
    --script 'down:close@1' --seed 7 2> "$tmp/fault2.log" &
  proxy_pid=$!
  for _ in $(seq 1 300); do
    grep -q '^rtpfault listening on ' "$tmp/fault2.log" && break
    sleep 0.1
  done
  proxy_port=$(sed -n 's/^rtpfault listening on 127\.0\.0\.1:\([0-9]*\) .*$/\1/p' "$tmp/fault2.log")
  "$dir/tools/rtpctl" --servers "127.0.0.1:$proxy_port" STATS > /dev/null ||
    repl_fail "STATS through hard-closing proxy failed"
  "$dir/tools/rtpctl" --servers "127.0.0.1:$fol_port" STATS > /dev/null ||
    repl_fail "server died after hard-closed link"
  kill "$proxy_pid" 2>/dev/null || true
  wait "$proxy_pid" 2>/dev/null || true
  kill "$fol_pid" 2>/dev/null || true
  wait "$fol_pid" 2>/dev/null || true

  # Cluster routing smoke: two keyed partitions behind an rtprouter — the
  # anl partition a replicated pair (primary reached through an rtpfault
  # jitter proxy, warm standby as the second replica), the ctc partition a
  # plain worker.  The two keyed flows are interleaved line-by-line through
  # the router, the anl primary is killed with -9 mid-stream, the standby
  # is promoted with rtpctl *through the router*, and the streams finish:
  # each site's de-interleaved replies must match its own monolithic
  # reference byte for byte, and a keyless STATS must merge the workers'
  # counters exactly (each fan-out probe self-counts one request per
  # worker, hence the +2).
  echo "=== rtprouter cluster smoke ($dir) ==="
  local n cut2 wB_pid folA_pid priA_pid router_pid router_port
  local wB_port folA_port folA_repl priA_port proxyA_port a_req b_req merged_req rc
  cluster_fail() {
    echo "cluster smoke: $*" >&2
    local p
    for p in "${router_pid:-}" "${priA_pid:-}" "${folA_pid:-}" "${wB_pid:-}" "${proxy_pid:-}"; do
      [ -n "$p" ] && kill -9 "$p" 2>/dev/null || true
    done
    exit 1
  }
  "$dir/tools/rtpd" --trace "$tmp/ctc.trace" --dump-log > "$tmp/ctc.events"
  awk 'NF && $1 !~ /^#/ { print; if ($1 == "SUBMIT") print "ESTIMATE", $3 }' \
    "$tmp/ctc.events" > "$tmp/flowB.raw"
  # Truncate both flows to a common length so the interleave alternates
  # strictly (reply N%2 de-interleaves back to its site).
  n=$(wc -l < "$tmp/flowB.raw")
  [ "$total" -lt "$n" ] && n=$total
  cut2=$((n / 2))
  head -n "$n" "$tmp/flow" | sed 's/$/ key=anl/' > "$tmp/flowA"
  head -n "$n" "$tmp/flowB.raw" | sed 's/$/ key=ctc/' > "$tmp/flowB"
  # tail -n +2 drops the stdin-mode greeting line; rtpctl prints replies only.
  { cat "$tmp/flowA"; printf 'STATE key=anl\n'; } |
    "$dir/tools/rtpd" --trace "$tmp/anl.trace" --mode stdin |
    tail -n +2 > "$tmp/refA.replies"
  { cat "$tmp/flowB"; printf 'STATE key=ctc\n'; } |
    "$dir/tools/rtpd" --trace "$tmp/ctc.trace" --mode stdin |
    tail -n +2 > "$tmp/refB.replies"

  "$dir/tools/rtpd" --trace "$tmp/ctc.trace" --mode tcp --port 0 2> "$tmp/wB.log" &
  wB_pid=$!
  "$dir/tools/rtpd" --trace "$tmp/anl.trace" --mode tcp --port 0 \
    --journal "$tmp/folA.rtpj" --follow 0 2> "$tmp/folA.log" &
  folA_pid=$!
  for _ in $(seq 1 300); do
    grep -q '^rtpd listening on ' "$tmp/wB.log" &&
      grep -q '^rtpd listening on ' "$tmp/folA.log" &&
      grep -q '^rtpd following on ' "$tmp/folA.log" && break
    sleep 0.1
  done
  wB_port=$(sed -n 's/^rtpd listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$tmp/wB.log")
  folA_port=$(sed -n 's/^rtpd listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$tmp/folA.log")
  folA_repl=$(sed -n 's/^rtpd following on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$tmp/folA.log")
  [ -n "$wB_port" ] && [ -n "$folA_port" ] && [ -n "$folA_repl" ] ||
    cluster_fail "workers did not come up"

  "$dir/tools/rtpd" --trace "$tmp/anl.trace" --mode tcp --port 0 \
    --journal "$tmp/priA.rtpj" --fsync always --heartbeat-ms 50 \
    --replicate-to "127.0.0.1:$folA_repl" 2> "$tmp/priA.log" &
  priA_pid=$!
  for _ in $(seq 1 300); do
    grep -q '^rtpd listening on ' "$tmp/priA.log" && break
    sleep 0.1
  done
  priA_port=$(sed -n 's/^rtpd listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$tmp/priA.log")
  [ -n "$priA_port" ] || cluster_fail "anl primary did not come up"
  "$dir/tools/rtpfault" --listen 0 --target "127.0.0.1:$priA_port" \
    --script 'up:jitter=1' --seed 11 2> "$tmp/faultA.log" &
  proxy_pid=$!
  for _ in $(seq 1 300); do
    grep -q '^rtpfault listening on ' "$tmp/faultA.log" && break
    sleep 0.1
  done
  proxyA_port=$(sed -n 's/^rtpfault listening on 127\.0\.0\.1:\([0-9]*\) .*$/\1/p' "$tmp/faultA.log")
  [ -n "$proxyA_port" ] || cluster_fail "rtpfault did not come up"

  cat > "$tmp/cluster.map" <<EOF
RTPMAP1 version=1 partitions=2 default=0
partition 0 127.0.0.1:$proxyA_port 127.0.0.1:$folA_port
partition 1 127.0.0.1:$wB_port
assign anl 0
assign ctc 1
EOF
  "$dir/tools/rtprouter" --map "$tmp/cluster.map" --mode tcp --port 0 \
    --backoff-min-ms 1 --backoff-max-ms 50 2> "$tmp/router.log" &
  router_pid=$!
  for _ in $(seq 1 300); do
    grep -q '^rtprouter listening on ' "$tmp/router.log" && break
    sleep 0.1
  done
  router_port=$(sed -n 's/^rtprouter listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$tmp/router.log")
  [ -n "$router_port" ] || cluster_fail "rtprouter did not come up"

  paste -d'\n' <(head -n "$cut2" "$tmp/flowA") <(head -n "$cut2" "$tmp/flowB") \
    > "$tmp/half1"
  "$dir/tools/rtpctl" --servers "127.0.0.1:$router_port" --stdin \
    < "$tmp/half1" > "$tmp/half1.replies" || cluster_fail "first half via router failed"
  [ "$(wc -l < "$tmp/half1.replies")" -eq $((cut2 * 2)) ] ||
    cluster_fail "expected $((cut2 * 2)) first-half replies"

  # Wait for the standby to apply everything the primary committed, then
  # murder the primary and promote the standby through the router.
  last_seq=$("$dir/tools/rtpctl" --servers "127.0.0.1:$router_port" STATS key=anl |
    grep -o ' repl_last_seq=[0-9]*' | grep -o '[0-9]*$')
  [ -n "$last_seq" ] || cluster_fail "primary STATS via router has no repl_last_seq"
  for _ in $(seq 1 300); do
    "$dir/tools/rtpctl" --servers "127.0.0.1:$folA_port" STATS 2>/dev/null |
      grep -q " repl_applied_seq=$last_seq " && break
    sleep 0.1
  done
  "$dir/tools/rtpctl" --servers "127.0.0.1:$folA_port" STATS |
    grep -q " repl_applied_seq=$last_seq " ||
    cluster_fail "standby never caught up to seq $last_seq"
  kill -9 "$priA_pid" 2>/dev/null || true
  wait "$priA_pid" 2>/dev/null || true
  "$dir/tools/rtpctl" --servers "127.0.0.1:$router_port" PROMOTE key=anl \
    > "$tmp/cluster.promote" || cluster_fail "PROMOTE via router failed"
  grep -q '^OK role=primary' "$tmp/cluster.promote" ||
    { cat "$tmp/cluster.promote" >&2; cluster_fail "PROMOTE did not promote"; }

  paste -d'\n' <({ tail -n +$((cut2 + 1)) "$tmp/flowA"; printf 'STATE key=anl\n'; }) \
               <({ tail -n +$((cut2 + 1)) "$tmp/flowB"; printf 'STATE key=ctc\n'; }) \
    > "$tmp/half2"
  "$dir/tools/rtpctl" --servers "127.0.0.1:$router_port" --stdin \
    < "$tmp/half2" > "$tmp/half2.replies" || cluster_fail "second half via router failed"
  cat "$tmp/half1.replies" "$tmp/half2.replies" > "$tmp/cluster.replies"
  awk 'NR % 2 == 1' "$tmp/cluster.replies" > "$tmp/clusterA.replies"
  awk 'NR % 2 == 0' "$tmp/cluster.replies" > "$tmp/clusterB.replies"
  diff "$tmp/refA.replies" "$tmp/clusterA.replies" ||
    cluster_fail "anl replies diverge from the monolithic reference across failover"
  diff "$tmp/refB.replies" "$tmp/clusterB.replies" ||
    cluster_fail "ctc replies diverge from the monolithic reference"

  # Exact STATS merge: keyed snapshots, then the keyless fan-out (which
  # sends each worker one more STATS probe before rendering).
  a_req=$("$dir/tools/rtpctl" --servers "127.0.0.1:$router_port" STATS key=anl |
    grep -o ' requests=[0-9]*' | grep -o '[0-9]*$')
  b_req=$("$dir/tools/rtpctl" --servers "127.0.0.1:$router_port" STATS key=ctc |
    grep -o ' requests=[0-9]*' | grep -o '[0-9]*$')
  merged_req=$("$dir/tools/rtpctl" --servers "127.0.0.1:$router_port" STATS |
    grep -o ' requests=[0-9]*' | grep -o '[0-9]*$')
  [ -n "$a_req" ] && [ -n "$b_req" ] && [ -n "$merged_req" ] ||
    cluster_fail "missing requests= in STATS"
  [ "$merged_req" -eq $((a_req + b_req + 2)) ] ||
    cluster_fail "merged STATS requests=$merged_req != $a_req + $b_req + 2"

  # rtpctl --json and the exit-code contract, driven through the router:
  # 0 with machine-readable fields on OK, 2 on a protocol-level ERR.
  "$dir/tools/rtpctl" --json --servers "127.0.0.1:$router_port" STATS \
    > "$tmp/stats.json" || cluster_fail "--json STATS via router failed"
  grep -q '"partitions":2' "$tmp/stats.json" ||
    { cat "$tmp/stats.json" >&2; cluster_fail "no partitions field in JSON STATS"; }
  set +e
  "$dir/tools/rtpctl" --servers "127.0.0.1:$router_port" ESTIMATE 424242 key=anl \
    > /dev/null 2>&1
  rc=$?
  set -e
  [ "$rc" -eq 2 ] || cluster_fail "expected rtpctl exit 2 on protocol ERR, got $rc"
  set +e
  "$dir/tools/rtpctl" --servers 127.0.0.1:1 --attempts 1 --connect-timeout-ms 200 \
    STATS > /dev/null 2>&1
  rc=$?
  set -e
  [ "$rc" -eq 3 ] || cluster_fail "expected rtpctl exit 3 on transport exhaustion, got $rc"

  kill "$router_pid" "$folA_pid" "$wB_pid" 2>/dev/null || true
  wait "$router_pid" "$folA_pid" "$wB_pid" 2>/dev/null || true
  kill "$proxy_pid" 2>/dev/null || true
  wait "$proxy_pid" 2>/dev/null || true

  # Live-migration chaos smoke: a journaled primary (reached through an
  # rtpfault jitter proxy, so the keyed stream AND the cutover control
  # traffic cross a lossy link) hands the anl session to a fresh standby
  # via the router's MIGRATE verb between the two halves of the stream.
  # The full keyed stream must match the monolithic reference byte for
  # byte across the cutover, the retired source must refuse with
  # code=moved and leave its crash-durable sidecar on disk, and MAPGET
  # through the router must show the bumped map.
  echo "=== rtprouter live-migration smoke ($dir) ==="
  local msrc_pid mdst_pid mrouter_pid msrc_port mdst_port mproxy_port mrouter_port
  migrate_fail() {
    echo "migration smoke: $*" >&2
    local p
    for p in "${mrouter_pid:-}" "${msrc_pid:-}" "${mdst_pid:-}" "${proxy_pid:-}"; do
      [ -n "$p" ] && kill -9 "$p" 2>/dev/null || true
    done
    exit 1
  }
  "$dir/tools/rtpd" --trace "$tmp/anl.trace" --mode tcp --port 0 \
    --journal "$tmp/msrc.rtpj" --fsync always --heartbeat-ms 50 2> "$tmp/msrc.log" &
  msrc_pid=$!
  "$dir/tools/rtpd" --trace "$tmp/anl.trace" --mode tcp --port 0 \
    --journal "$tmp/mdst.rtpj" --follow 0 2> "$tmp/mdst.log" &
  mdst_pid=$!
  for _ in $(seq 1 300); do
    grep -q '^rtpd listening on ' "$tmp/msrc.log" &&
      grep -q '^rtpd listening on ' "$tmp/mdst.log" &&
      grep -q '^rtpd following on ' "$tmp/mdst.log" && break
    sleep 0.1
  done
  msrc_port=$(sed -n 's/^rtpd listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$tmp/msrc.log")
  mdst_port=$(sed -n 's/^rtpd listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$tmp/mdst.log")
  [ -n "$msrc_port" ] && [ -n "$mdst_port" ] ||
    migrate_fail "migration workers did not come up"
  "$dir/tools/rtpfault" --listen 0 --target "127.0.0.1:$msrc_port" \
    --script 'up:jitter=1' --seed 13 2> "$tmp/mfault.log" &
  proxy_pid=$!
  for _ in $(seq 1 300); do
    grep -q '^rtpfault listening on ' "$tmp/mfault.log" && break
    sleep 0.1
  done
  mproxy_port=$(sed -n 's/^rtpfault listening on 127\.0\.0\.1:\([0-9]*\) .*$/\1/p' "$tmp/mfault.log")
  [ -n "$mproxy_port" ] || migrate_fail "rtpfault did not come up"
  cat > "$tmp/migrate.map" <<EOF
RTPMAP1 version=1 partitions=1 default=0
partition 0 127.0.0.1:$mproxy_port
assign anl 0
EOF
  "$dir/tools/rtprouter" --map "$tmp/migrate.map" --mode tcp --port 0 \
    --backoff-min-ms 1 --backoff-max-ms 50 2> "$tmp/mrouter.log" &
  mrouter_pid=$!
  for _ in $(seq 1 300); do
    grep -q '^rtprouter listening on ' "$tmp/mrouter.log" && break
    sleep 0.1
  done
  mrouter_port=$(sed -n 's/^rtprouter listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$tmp/mrouter.log")
  [ -n "$mrouter_port" ] || migrate_fail "rtprouter did not come up"

  head -n "$cut2" "$tmp/flowA" |
    "$dir/tools/rtpctl" --servers "127.0.0.1:$mrouter_port" --stdin \
    > "$tmp/mig1.replies" || migrate_fail "first half via router failed"
  [ "$(wc -l < "$tmp/mig1.replies")" -eq "$cut2" ] ||
    migrate_fail "expected $cut2 first-half replies"

  "$dir/tools/rtpctl" --servers "127.0.0.1:$mrouter_port" --read-timeout-ms 30000 \
    MIGRATE key=anl "to=127.0.0.1:$mdst_port" > "$tmp/migrate.reply" ||
    migrate_fail "MIGRATE via router failed: $(cat "$tmp/migrate.reply")"
  grep -q '^OK migrated=1 ' "$tmp/migrate.reply" ||
    { cat "$tmp/migrate.reply" >&2; migrate_fail "MIGRATE did not migrate"; }

  { tail -n +$((cut2 + 1)) "$tmp/flowA"; printf 'STATE key=anl\n'; } |
    "$dir/tools/rtpctl" --servers "127.0.0.1:$mrouter_port" --stdin \
    > "$tmp/mig2.replies" || migrate_fail "second half via router failed"
  cat "$tmp/mig1.replies" "$tmp/mig2.replies" > "$tmp/mig.replies"
  diff "$tmp/refA.replies" "$tmp/mig.replies" ||
    migrate_fail "replies diverge across the live migration"

  [ -f "$tmp/msrc.rtpj.retired" ] || migrate_fail "no retire sidecar on the source"
  set +e
  "$dir/tools/rtpctl" --servers "127.0.0.1:$msrc_port" ESTIMATE 1 key=anl \
    > "$tmp/moved.reply" 2>&1
  rc=$?
  set -e
  [ "$rc" -eq 2 ] || migrate_fail "expected rtpctl exit 2 from retired source, got $rc"
  grep -q 'code=moved' "$tmp/moved.reply" ||
    { cat "$tmp/moved.reply" >&2; migrate_fail "retired source did not answer code=moved"; }
  "$dir/tools/rtpctl" --json --servers "127.0.0.1:$mrouter_port" MAPGET \
    > "$tmp/mapget.json" || migrate_fail "MAPGET via router failed"
  grep -q '"map_version":2' "$tmp/mapget.json" ||
    { cat "$tmp/mapget.json" >&2; migrate_fail "router map did not advance to version 2"; }

  kill "$mrouter_pid" "$msrc_pid" "$mdst_pid" 2>/dev/null || true
  wait "$mrouter_pid" "$msrc_pid" "$mdst_pid" 2>/dev/null || true
  kill "$proxy_pid" 2>/dev/null || true
  wait "$proxy_pid" 2>/dev/null || true
  rm -rf "$tmp"
}

run_rtlint() {
  local dir=$1
  echo "=== rtlint ($dir) ==="
  "$dir/tools/rtlint" --allowlist tools/rtlint.allow src tools/rtlint \
    tools/rtpd.cpp tools/rtpctl.cpp tools/rtprouter.cpp tools/rtpfault
}

run_service_bench() {
  # Smoke both throughput benches.  Their JSON goes into the build
  # directory, not over the tracked BENCH_service.json / BENCH_cluster.json
  # snapshots: one run on a shared host records noise, not the code.
  # bench_cluster_throughput doubles as an equivalence check: it exits
  # non-zero if the router's answers ever diverge from the per-site
  # baseline.  (The service bench's answer check is a ctest,
  # SessionReplayAnswers.)
  local dir=$1
  echo "=== bench_service_throughput ($dir) ==="
  "$dir/bench/bench_service_throughput" --json "$dir/BENCH_service.json"
  echo "=== bench_cluster_throughput ($dir) ==="
  "$dir/bench/bench_cluster_throughput" --json "$dir/BENCH_cluster.json"
}

run_tsan() {
  # TSAN_OPTIONS makes any report fatal (exit code), catches races on exit
  # paths too, and keeps history large enough for the stress tests' deep
  # happens-before chains.
  TSAN_OPTIONS="halt_on_error=1 exitcode=66 history_size=7" \
    run_config build-tsan -DRTP_SANITIZE=thread
}

mode=${1:-all}
case "$mode" in
  --plain-only|plain)
    run_config build
    run_rtlint build
    run_service_bench build
    ;;
  --sanitize-only|sanitize)
    run_config build-asan -DRTP_SANITIZE=address
    ;;
  --tsan|tsan)
    run_tsan
    ;;
  --all-sans)
    run_config build
    run_rtlint build
    run_service_bench build
    run_config build-asan -DRTP_SANITIZE=address
    run_tsan
    ;;
  all|*)
    run_config build
    run_rtlint build
    run_service_bench build
    run_config build-asan -DRTP_SANITIZE=address
    ;;
esac

echo "All checks passed."
