#!/usr/bin/env bash
# Smoke test for the maxisd serving layer, run by CI and `make smoke`:
# build every cmd binary, boot the daemon on an ephemeral port with a
# journal, probe the health and metrics endpoints, push a short closed-loop
# loadgen burst (zero failed requests allowed), PUT and PATCH a graph, and
# require a clean SIGTERM drain. A second daemon then boots on the same
# journal and must serve the patched graph, and graphgen's output must be
# accepted by PUT /v1/graph and as an inline solve with the hash a gen
# solve of the same spec reports.
set -euo pipefail

cd "$(dirname "$0")/.."
BIN="$(mktemp -d)"
LOG="$BIN/maxisd.log"
JOURNAL="$BIN/maxisd.wal"
PID=""
cleanup() {
	[ -n "$PID" ] && kill "$PID" 2>/dev/null || true
	rm -rf "$BIN"
}
trap cleanup EXIT

echo "smoke: building cmd binaries"
go build -o "$BIN" ./cmd/...

# boot starts a daemon on the journal and sets PID and BASE.
boot() {
	: >"$LOG"
	"$BIN/maxisd" -addr 127.0.0.1:0 -workers 4 -journal "$JOURNAL" >"$LOG" 2>&1 &
	PID=$!
	local addr=""
	for _ in $(seq 1 50); do
		addr=$(sed -n 's/^maxisd: serving on \([^ ]*\).*/\1/p' "$LOG")
		[ -n "$addr" ] && break
		sleep 0.1
	done
	if [ -z "$addr" ]; then
		echo "smoke: daemon never announced its address" >&2
		cat "$LOG" >&2
		exit 1
	fi
	BASE="http://$addr"
	echo "smoke: daemon up at $BASE"
}

# stop sends SIGTERM and requires a clean drain.
stop() {
	kill -TERM "$PID"
	for _ in $(seq 1 100); do
		kill -0 "$PID" 2>/dev/null || break
		sleep 0.1
	done
	if kill -0 "$PID" 2>/dev/null; then
		echo "smoke: daemon did not exit after SIGTERM" >&2
		cat "$LOG" >&2
		exit 1
	fi
	if ! wait "$PID"; then
		echo "smoke: daemon exited non-zero" >&2
		cat "$LOG" >&2
		exit 1
	fi
	PID=""
	if ! grep -q 'drained, exiting' "$LOG"; then
		echo "smoke: missing drain message" >&2
		cat "$LOG" >&2
		exit 1
	fi
}

boot
curl -fsS "$BASE/healthz" >/dev/null
curl -fsS "$BASE/readyz" >/dev/null
curl -fsS "$BASE/metrics" | grep -q '^maxisd_requests_total '

echo "smoke: 5s loadgen burst"
"$BIN/loadgen" -addr "$BASE" -duration "${SMOKE_DURATION:-5s}" -rps 1000 \
	-concurrency 16 -repeat 0.9 -graphs gnp,cycle,tree -n 120 -alg goodnodes

# The repeated-seed mix must have produced real cache traffic.
HITS=$(curl -fsS "$BASE/metrics" | sed -n 's/^maxisd_cache_hits_total //p')
if [ -z "$HITS" ] || [ "$HITS" -eq 0 ]; then
	echo "smoke: expected cache hits, got '${HITS:-none}'" >&2
	exit 1
fi

echo "smoke: journaled PUT and PATCH"
PUT=$(curl -fsS -X PUT "$BASE/v1/graph" \
	-d '{"n":4,"ids":[1,2,3,4],"weights":[5,6,7,8],"edges":[[0,1],[2,3]]}')
HASH=$(printf '%s' "$PUT" | sed -n 's/.*"hash":"\([0-9a-f]*\)".*/\1/p')
PATCHED=$(curl -fsS -X PATCH "$BASE/v1/graph/$HASH" -d '{"add_edges":[[1,2]]}' |
	sed -n 's/.*"hash":"\([0-9a-f]*\)".*/\1/p')
if [ -z "$HASH" ] || [ -z "$PATCHED" ] || [ "$HASH" = "$PATCHED" ]; then
	echo "smoke: PUT/PATCH returned no new hash (put '$HASH', patched '$PATCHED')" >&2
	exit 1
fi
stop

echo "smoke: rebooting on the journal"
boot
GOT=$(curl -fsS "$BASE/v1/graph/$PATCHED")
if ! printf '%s' "$GOT" | grep -q '"version":1'; then
	echo "smoke: patched graph not replayed: $GOT" >&2
	cat "$LOG" >&2
	exit 1
fi
grep -q 'replayed 2 mutations' "$LOG" || {
	echo "smoke: second boot did not replay the journal" >&2
	cat "$LOG" >&2
	exit 1
}

# post METHOD PATH BODY_FILE prints the response body and requires 200.
post() {
	local code
	code=$(curl -sS -o "$BIN/resp.json" -w '%{http_code}' -X "$1" "$BASE$2" --data-binary @"$3")
	if [ "$code" != 200 ]; then
		echo "smoke: $1 $2 returned $code: $(cat "$BIN/resp.json")" >&2
		exit 1
	fi
	cat "$BIN/resp.json"
}
hash_of() { sed -n "s/.*\"$1\":\"\([0-9a-f]*\)\".*/\1/p"; }

echo "smoke: graphgen output as PUT and inline graphs"
printf '{"gen":{"kind":"apollonian","n":40,"weights":"poly3","seed":5},"alg":"goodnodes"}' >"$BIN/gen.json"
"$BIN/graphgen" -graph apollonian -n 40 -weights poly3 -seed 5 >"$BIN/graph.json"
{ printf '{"alg":"goodnodes","graph":'; cat "$BIN/graph.json"; printf '}'; } >"$BIN/inline.json"
GEN_HASH=$(post POST /v1/solve "$BIN/gen.json" | hash_of graph_hash)
PUT_HASH=$(post PUT /v1/graph "$BIN/graph.json" | hash_of hash)
INLINE_HASH=$(post POST /v1/solve "$BIN/inline.json" | hash_of graph_hash)
if [ -z "$GEN_HASH" ] || [ "$PUT_HASH" != "$GEN_HASH" ] || [ "$INLINE_HASH" != "$GEN_HASH" ]; then
	echo "smoke: graphgen hashes differ (gen '$GEN_HASH', put '$PUT_HASH', inline '$INLINE_HASH')" >&2
	exit 1
fi
stop
echo "smoke: OK (cache hits: $HITS, replayed graph $PATCHED, graphgen graph $GEN_HASH)"
