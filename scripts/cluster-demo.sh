#!/usr/bin/env bash
# cluster-demo boots a 3-node RUBiS cache cluster on localhost, drives it
# with the multi-target load generator, then asserts the cluster tier's
# core guarantees from the outside — exit code 0 means they held, so CI can
# run the demo headlessly as an end-to-end smoke test:
#
#   1. the cluster served traffic with a non-zero cache hit rate, and every
#      node serves a non-empty /metrics (per-handler counters with real
#      counts, latency histograms, per-peer health) on its admin port;
#   1c. an open-loop run (fixed arrival schedule, latency measured from the
#      intended send time — free of coordinated omission) reports a p99;
#   2. a page cached on node A is HIT on re-request (local caching works);
#   2b. the serve path works end to end: a gzip-negotiated response carries
#      Content-Encoding: gzip + Vary, the page has a strong ETag, and an
#      If-None-Match revalidation answers 304 with a zero-byte body;
#   3. a write on node B removes that page from node A before the write's
#      response returns (strong cluster-wide invalidation, §3.2);
#   4. the regenerated page is visible from node C as a hit or remote-hit
#      (ownership fetch / replica offer works).
#
#   5. (SHARED_DB only) node 1's regenerated page shows the bid written on
#      node 2 — read-your-write through the one shared database, the §3.2
#      deployment the paper assumes.
#
#   6. (KILL_RESTART only) node 2 is SIGKILLed: the survivors keep serving
#      reads AND writes (the peer breaker fails fast instead of stalling),
#      the load generator degrades — per-target errors, zero for the live
#      nodes — rather than erroring out, and a restarted node 2 rejoins the
#      warm path: its cache fills again and a write on node 1 still
#      invalidates it cluster-wide.
#
#   7. (KILL_RESTART only, nodes run with a disk cache tier) node 3 is
#      SIGTERMed — the graceful path that spills the memory tier and closes
#      the journal — and restarted:
#   7a. nothing was written while it was down, so its first request for a
#      page cached before the stop is a warm HIT served from the disk tier
#      without executing the handler (zero database queries), and its
#      metrics show disk-tier promotions and restored entries;
#   7b. it is stopped again, a write on node 1 invalidates that page while
#      node 3 is down, and after the restart the rejoin gap detection must
#      quarantine-flush the warm tier (gap_flushes >= 1) so the pre-write
#      page is regenerated, never served stale from disk.
#
# Knobs: CLUSTER_DURATION (default 5s), CLUSTER_CLIENTS (default 30),
# OPENLOOP_RATE (default 200 req/s for the open-loop phase),
# MAX_BYTES (optional page-cache budget + admission filter for every node),
# SHARED_DB (path to a sqlite database file all three nodes share; empty =
# per-process in-memory databases, which exercises only the cache tier),
# KILL_RESTART (non-empty = run the kill/restart failure-domain phase).
#
# When setting MAX_BYTES, size it above the demo's working set (tens of
# MiB): assertions 2-4 require inserts and replica offers to be accepted,
# and a node at a saturated budget legitimately refuses both (admission
# duels, rejected offers) — that regime is exercised by the unit and -race
# stress tests, not by this smoke script.
set -u

DURATION="${CLUSTER_DURATION:-5s}"
CLIENTS="${CLUSTER_CLIENTS:-30}"
MAX_BYTES="${MAX_BYTES:-}"
SHARED_DB="${SHARED_DB:-}"

HTTP_PORTS=(8091 8092 8093)
PEER_PORTS=(9091 9092 9093)
METRICS_PORTS=(9191 9192 9193)

fail() { echo "cluster-demo: FAIL: $*" >&2; exit 1; }

mkdir -p bin
go build -o bin/rubis-server ./cmd/rubis-server || fail "build rubis-server"
go build -o bin/loadgen ./cmd/loadgen || fail "build loadgen"

GOVERN_FLAGS=()
if [ -n "$MAX_BYTES" ]; then
  GOVERN_FLAGS=(-max-bytes "$MAX_BYTES" -admission)
fi

DB_FLAGS=()
if [ -n "$SHARED_DB" ]; then
  rm -f "$SHARED_DB" "$SHARED_DB.lock"
  DB_FLAGS=(-db "sqlite:$SHARED_DB")
  echo "nodes share one database: $SHARED_DB"
fi

# The kill/restart phase runs every node with a disk cache tier so phase 7
# can assert warm restarts; the base phases stay memory-only.
L2_BASE=""
if [ -n "${KILL_RESTART:-}" ]; then
  L2_BASE=$(mktemp -d)
  echo "disk cache tier enabled under $L2_BASE"
fi

PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null; done
  wait 2>/dev/null
  [ -n "$L2_BASE" ] && rm -rf "$L2_BASE"
}
trap cleanup EXIT

# start_node <i> boots node i in the background and records its pid in
# PIDS[i] — the kill/restart phase reuses it to bring a dead node back.
start_node() {
  local i="$1" j peers=()
  for j in 0 1 2; do
    [ "$j" != "$i" ] && peers+=("127.0.0.1:${PEER_PORTS[$j]}")
  done
  local l2flags=()
  [ -n "$L2_BASE" ] && l2flags=(-l2 "$L2_BASE/node$i")
  bin/rubis-server -addr ":${HTTP_PORTS[$i]}" \
    -listen-peer "127.0.0.1:${PEER_PORTS[$i]}" \
    -peers "$(IFS=,; echo "${peers[*]}")" \
    -metrics-listen "127.0.0.1:${METRICS_PORTS[$i]}" \
    -encodings gzip -etag \
    "${GOVERN_FLAGS[@]}" "${DB_FLAGS[@]}" "${l2flags[@]}" &
  PIDS[$i]=$!
}

# metric <admin-port> <series> prints one label-less series' value (empty if
# the series is absent).
metric() {
  curl -sf "http://127.0.0.1:$1/metrics" | awk -v m="$2" '$1==m{print $2; exit}'
}

# wait_http <port> blocks until the node on <port> answers (or fails).
wait_http() {
  local port="$1" _
  for _ in $(seq 1 150); do
    if curl -sf -o /dev/null "http://localhost:$port/"; then return 0; fi
    sleep 0.2
  done
  fail "node on :$port never became healthy"
}

for i in 0 1 2; do
  start_node "$i"
done

# Wait for all three nodes to serve.
for port in "${HTTP_PORTS[@]}"; do
  wait_http "$port"
done

echo "three nodes up; driving $CLIENTS clients for $DURATION"
LOAD_OUT=$(bin/loadgen \
  -targets "http://localhost:${HTTP_PORTS[0]},http://localhost:${HTTP_PORTS[1]},http://localhost:${HTTP_PORTS[2]}" \
  -app rubis -clients "$CLIENTS" -duration "$DURATION") || fail "loadgen exited non-zero"
echo "$LOAD_OUT"

# Assertion 1: the cluster actually cached something under load.
HIT_RATE=$(echo "$LOAD_OUT" | sed -n 's/.*hit rate \([0-9.]*\)%.*/\1/p')
[ -n "$HIT_RATE" ] || fail "could not parse hit rate from loadgen output"
case "$HIT_RATE" in
  0|0.0) fail "cluster served zero cache hits (hit rate $HIT_RATE%)" ;;
esac
echo "cluster-demo: hit rate $HIT_RATE% OK"

# Assertion 1b: every node serves a non-empty /metrics in Prometheus text
# format on its admin port — per-handler request counters with real counts
# (the load generator just hit every node) and per-peer health series.
for i in 0 1 2; do
  MURL="http://127.0.0.1:${METRICS_PORTS[$i]}/metrics"
  METRICS=$(curl -sf "$MURL") || fail "node $((i+1)) /metrics unreachable at $MURL"
  echo "$METRICS" | grep -q '^# TYPE awc_requests_total counter' \
    || fail "node $((i+1)) /metrics is missing awc_requests_total"
  echo "$METRICS" | grep '^awc_requests_total{' | grep -qv ' 0$' \
    || fail "node $((i+1)) /metrics shows zero requests after the load run"
  echo "$METRICS" | grep -q '^awc_cluster_peer_state{' \
    || fail "node $((i+1)) /metrics is missing per-peer health series"
  echo "$METRICS" | grep -q '^awc_request_duration_seconds_bucket{' \
    || fail "node $((i+1)) /metrics is missing latency histograms"
done
echo "cluster-demo: /metrics non-empty on all nodes OK"

# Assertion 1c: the open-loop mode — requests depart on a fixed arrival
# schedule and latency is measured from each request's intended send time,
# so a slow response cannot suppress the arrivals behind it (coordinated
# omission). The caches are warm from the closed-loop run; the phase must
# report its schedule and a p99 from the intended-send clock.
OL_RATE="${OPENLOOP_RATE:-200}"
echo "open-loop phase: $OL_RATE req/s fixed schedule for 2s"
OL_OUT=$(bin/loadgen \
  -targets "http://localhost:${HTTP_PORTS[0]},http://localhost:${HTTP_PORTS[1]},http://localhost:${HTTP_PORTS[2]}" \
  -app rubis -clients "$CLIENTS" -openloop -rate "$OL_RATE" -duration 2s) \
  || fail "open-loop loadgen exited non-zero"
echo "$OL_OUT"
echo "$OL_OUT" | grep -q '^open-loop: offered' \
  || fail "open-loop run did not report its arrival schedule"
OL_P99=$(echo "$OL_OUT" | sed -n 's/.*p99 \([^ ]*\).*/\1/p')
[ -n "$OL_P99" ] || fail "open-loop run did not report a p99 latency"
echo "cluster-demo: open-loop p99 $OL_P99 OK"

# outcome <url> prints the X-Autowebcache header of one request.
outcome() {
  curl -si "$1" | tr -d '\r' | awk -F': ' 'tolower($1)=="x-autowebcache"{print $2}'
}

N1="http://localhost:${HTTP_PORTS[0]}"
N2="http://localhost:${HTTP_PORTS[1]}"
N3="http://localhost:${HTTP_PORTS[2]}"
PAGE="/viewItem?itemId=7"

# Assertion 2: prime node 1, then re-request — must be a local hit. (The
# load generator has finished; nothing else touches the cluster now.)
outcome "$N1$PAGE" >/dev/null
WARM=$(outcome "$N1$PAGE")
[ "$WARM" = "hit" ] || fail "expected warm hit on node1, got '$WARM'"

# Assertion 2b: the serve path end to end, from the outside. The nodes run
# with -encodings gzip -etag, and /browseCategories (20 categories of
# repetitive HTML) is comfortably compressible, so a client that accepts
# gzip must get the once-compressed variant with the Vary marker; every
# cached page carries a strong ETag; and revalidating with that ETag must
# answer 304 with a zero-byte body.
BROWSE="/browseCategories"
curl -s -o /dev/null "$N1$BROWSE" # prime
GZ_HDRS=$(curl -s -D - -o /dev/null -H 'Accept-Encoding: gzip' "$N1$BROWSE" | tr -d '\r')
echo "$GZ_HDRS" | grep -qi '^content-encoding: gzip$' \
  || fail "gzip-accepting client was not served the gzip variant of $BROWSE"
echo "$GZ_HDRS" | grep -qi '^vary: accept-encoding$' \
  || fail "gzip response is missing Vary: Accept-Encoding"
ETAG=$(echo "$GZ_HDRS" | awk -F': ' 'tolower($1)=="etag"{print $2}')
[ -n "$ETAG" ] || fail "cached page $BROWSE carries no ETag"
COND=$(curl -s -o /dev/null -w '%{http_code} %{size_download}' \
  -H "If-None-Match: $ETAG" "$N1$BROWSE")
[ "$COND" = "304 0" ] \
  || fail "If-None-Match revalidation returned '$COND', want '304 0' (zero-byte 304)"
echo "cluster-demo: serve path OK (gzip negotiated, ETag $ETAG revalidated as zero-byte 304)"

# Assertion 3: a write on node 2 must invalidate node 1's cached page
# before the write's response returns — the next read on node 1 has to
# regenerate, not serve the pre-write page.
WRITE=$(outcome "$N2/storeBid?userId=1&itemId=7&bid=999&qty=1")
[ "$WRITE" = "write" ] || fail "expected write outcome on node2, got '$WRITE'"
AFTER=$(outcome "$N1$PAGE")
if [ "$AFTER" = "hit" ] || [ "$AFTER" = "semantic-hit" ]; then
  fail "cross-node invalidation did NOT happen: node1 served '$AFTER' after node2's write"
fi
echo "cluster-demo: cross-node invalidation OK (node1 outcome after write: $AFTER)"

# Assertion 4: node 1's regeneration re-populated the cluster (local insert
# plus replica offer to the key's owner); node 3 must see it without
# executing the handler — a local hit (node 3 owns it) or a remote hit.
VIA3=$(outcome "$N3$PAGE")
case "$VIA3" in
  hit|remote-hit) echo "cluster-demo: cross-node page visibility OK ($VIA3 on node3)" ;;
  *) fail "expected hit/remote-hit on node3, got '$VIA3'" ;;
esac

# Assertion 5: with one shared database, node 1's regenerated page must show
# node 2's bid — read-your-write through the database, across processes.
if [ -n "$SHARED_DB" ]; then
  BODY=$(curl -s "$N1$PAGE")
  echo "$BODY" | grep -q "999" \
    || fail "shared-db read-your-write failed: node1's regenerated page is missing node2's bid of 999"
  echo "cluster-demo: shared-database read-your-write OK"
fi

# Assertion 6 (KILL_RESTART): the failure-domain phase — SIGKILL node 2,
# prove the survivors degrade instead of stalling, then restart it and
# prove it rejoins the warm path.
if [ -n "${KILL_RESTART:-}" ]; then
  echo "cluster-demo: kill/restart phase: SIGKILL node2 (pid ${PIDS[1]})"
  kill -9 "${PIDS[1]}" 2>/dev/null
  wait "${PIDS[1]}" 2>/dev/null

  # 6a: with node 2 dead, the survivors keep serving reads AND writes —
  # the peer breaker turns the dead node into fast failures, not stalls.
  W=$(outcome "$N1/storeBid?userId=2&itemId=7&bid=1001&qty=1")
  [ "$W" = "write" ] || fail "write on node1 with node2 dead returned '$W'"
  R=$(outcome "$N3$PAGE")
  [ -n "$R" ] || fail "read on node3 with node2 dead returned no outcome"
  echo "cluster-demo: survivors serve with node2 dead OK (write='$W', read='$R')"

  # 6b: the load generator pointed at all three (one dead) degrades: exit
  # 0, live targets error-free, the dead target all errors.
  DEAD_OUT=$(bin/loadgen \
    -targets "http://localhost:${HTTP_PORTS[0]},http://localhost:${HTTP_PORTS[1]},http://localhost:${HTTP_PORTS[2]}" \
    -app rubis -clients "$CLIENTS" -duration 3s) \
    || fail "loadgen must degrade, not fail, with a dead target"
  echo "$DEAD_OUT"
  DEAD_LINE=$(echo "$DEAD_OUT" | grep "target http://localhost:${HTTP_PORTS[1]}")
  [ -n "$DEAD_LINE" ] || fail "no per-target line for the dead node"
  DEAD_REQS=$(echo "$DEAD_LINE" | awk '{print $3}')
  DEAD_ERRS=$(echo "$DEAD_LINE" | awk '{print $5}')
  [ "$DEAD_REQS" -gt 0 ] || fail "dead target shown idle: $DEAD_LINE"
  [ "$DEAD_ERRS" = "$DEAD_REQS" ] || fail "dead target served requests?! $DEAD_LINE"
  LIVE_ERRS=$(echo "$DEAD_OUT" | grep "target http://localhost:${HTTP_PORTS[0]}" | awk '{print $5}')
  [ "$LIVE_ERRS" = "0" ] || fail "live node reported errors under degraded load: $LIVE_ERRS"
  echo "cluster-demo: degraded loadgen OK ($DEAD_ERRS/$DEAD_REQS dead-target errors, live nodes clean)"

  # 6c: restart node 2 and wait for it to rejoin the warm path: a page
  # cached on it is a hit, and a write on node 1 still invalidates it —
  # the survivors' probes must first revive the breaker-down peer, so
  # poll until the full warm/invalidate cycle holds.
  start_node 1
  wait_http "${HTTP_PORTS[1]}"
  REJOINED=""
  for _ in $(seq 1 40); do
    outcome "$N2$PAGE" >/dev/null
    WARM2=$(outcome "$N2$PAGE")
    W2=$(outcome "$N1/storeBid?userId=1&itemId=7&bid=1002&qty=1")
    AFTER2=$(outcome "$N2$PAGE")
    if [ "$WARM2" = "hit" ] && [ "$W2" = "write" ] \
       && [ "$AFTER2" != "hit" ] && [ "$AFTER2" != "semantic-hit" ]; then
      REJOINED=1
      break
    fi
    sleep 0.5
  done
  [ -n "$REJOINED" ] || fail "restarted node2 never rejoined the warm path (warm='$WARM2' write='$W2' after='$AFTER2')"
  echo "cluster-demo: kill/restart rejoin OK (node2 warm hit invalidated by node1's write)"

  # 7a: warm restart off the disk tier. Prime a fresh page on node 3, stop
  # it gracefully (SIGTERM spills the memory tier and closes the journal),
  # restart, and the FIRST request must be a warm hit: the page promotes
  # from disk, the handler never runs — zero database queries — and the
  # node's metrics show the promotion and the restored index.
  PAGE3="/viewItem?itemId=11"
  outcome "$N3$PAGE3" >/dev/null
  PRIMED_BODY=$(curl -s "$N3$PAGE3")
  echo "cluster-demo: warm-restart phase: SIGTERM node3 (pid ${PIDS[2]})"
  kill -TERM "${PIDS[2]}" 2>/dev/null
  wait "${PIDS[2]}" 2>/dev/null
  start_node 2
  wait_http "${HTTP_PORTS[2]}"
  WARM3=$(outcome "$N3$PAGE3")
  [ "$WARM3" = "hit" ] \
    || fail "first request after warm restart was '$WARM3', want 'hit' served from the disk tier"
  WARM_BODY=$(curl -s "$N3$PAGE3")
  [ "$WARM_BODY" = "$PRIMED_BODY" ] || fail "warm-restart body differs from the primed page"
  PROMOTED=$(metric "${METRICS_PORTS[2]}" awc_cache_l2_promotions_total)
  RESTORED=$(metric "${METRICS_PORTS[2]}" awc_cache_l2_restored_entries_total)
  [ -n "$PROMOTED" ] && [ "${PROMOTED%.*}" -gt 0 ] \
    || fail "restarted node3 reports no disk-tier promotions (got '$PROMOTED')"
  [ -n "$RESTORED" ] && [ "${RESTORED%.*}" -gt 0 ] \
    || fail "restarted node3 reports no restored disk-tier entries (got '$RESTORED')"
  echo "cluster-demo: warm restart OK (first request hit from disk, $RESTORED entries restored, zero DB queries)"

  # 7b: no stale serves after a missed write. Stop node 3 again, invalidate
  # its warm page from node 1 while it is down, restart it: the rejoin gap
  # detection must quarantine-flush the warm tier, so the pre-write page
  # can never be served stale from disk.
  echo "cluster-demo: missed-write phase: SIGTERM node3 again"
  kill -TERM "${PIDS[2]}" 2>/dev/null
  wait "${PIDS[2]}" 2>/dev/null
  W3=$(outcome "$N1/storeBid?userId=3&itemId=11&bid=2002&qty=1")
  [ "$W3" = "write" ] || fail "write on node1 with node3 down returned '$W3'"
  start_node 2
  wait_http "${HTTP_PORTS[2]}"
  GAPPED=""
  for _ in $(seq 1 40); do
    GF=$(metric "${METRICS_PORTS[2]}" awc_cluster_gap_flushes_total)
    if [ -n "$GF" ] && [ "${GF%.*}" -ge 1 ]; then GAPPED=1; break; fi
    sleep 0.5
  done
  [ -n "$GAPPED" ] || fail "restarted node3 never quarantine-flushed after the missed write"
  STALE=$(outcome "$N3$PAGE3")
  if [ "$STALE" = "hit" ] || [ "$STALE" = "semantic-hit" ]; then
    fail "node3 served the invalidated page warm from disk after rejoin ('$STALE')"
  fi
  echo "cluster-demo: rejoin quarantine OK (gap flush $GF, post-rejoin outcome '$STALE')"
fi

echo "cluster-demo: PASS"
