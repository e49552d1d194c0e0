#!/usr/bin/env bash
# End-to-end smoke test of the networked mode: one tracker plus three
# `dagfl peer` processes on 127.0.0.1 — the third joining late so it
# has to catch up through the snapshot protocol — must all exit with
# the same tangle digest (same transaction set on every replica).
#
# With CHAOS=1 the session is run under churn instead: peer 2 is
# SIGKILLed mid-session and restarted with the same client id, the
# survivors run with --reconnect, and the restarted process must
# recover the history it missed through the snapshot/delta protocol —
# the final three digests still have to agree.
#
# Usage: [CHAOS=1] scripts/network_smoke.sh [path-to-dagfl-binary]
set -euo pipefail

DAGFL="${1:-./target/release/dagfl}"
CHAOS="${CHAOS:-0}"
PORT="${NETWORK_SMOKE_PORT:-7979}"
TRACKER="127.0.0.1:${PORT}"
OUT="$(mktemp -d)"
PIDS=()

cleanup() {
    local pid
    for pid in "${PIDS[@]:-}"; do
        kill "$pid" 2>/dev/null || true
    done
    rm -rf "$OUT"
}
trap cleanup EXIT

peer_flags=(
    --preset smoke
    --peers 3 --tracker "$TRACKER"
)
if [ "$CHAOS" = "1" ]; then
    # A longer session (so there is a mid-session to crash into) and
    # reconnect-with-backoff on every peer.
    peer_flags+=(--activations 6 --interarrival-ms 150 --settle-ms 700 --timeout 60 --reconnect)
else
    peer_flags+=(--activations 4 --interarrival-ms 40 --settle-ms 500 --timeout 60)
fi

"$DAGFL" tracker --listen "$TRACKER" --expect 3 >"$OUT/tracker.log" 2>&1 &
PIDS+=($!)
sleep 0.3

"$DAGFL" peer --client 0 "${peer_flags[@]}" >"$OUT/peer0.log" 2>&1 &
PIDS+=($!)
"$DAGFL" peer --client 1 "${peer_flags[@]}" >"$OUT/peer1.log" 2>&1 &
PIDS+=($!)

# The late joiner: by now peers 0 and 1 have been gossiping for a
# while, so client 2 must sync their history via a snapshot.
sleep 1
"$DAGFL" peer --client 2 "${peer_flags[@]}" >"$OUT/peer2.log" 2>&1 &
PEER2_PID=$!

if [ "$CHAOS" = "1" ]; then
    # Let client 2 join, gossip and publish for a while, then crash it
    # hard (no Leave, no TCP goodbye) and bring it back under the same
    # client id. The survivors see the connection die and retry with
    # backoff; the restarted process recovers its own pre-crash
    # publications plus everything it missed via the snapshot request,
    # and resumes its transaction numbering after the recovered ones.
    sleep 0.8
    kill -9 "$PEER2_PID" 2>/dev/null || true
    wait "$PEER2_PID" 2>/dev/null || true
    echo "chaos: killed peer 2 mid-session, restarting it" >"$OUT/churn.log"
    sleep 0.5
    "$DAGFL" peer --client 2 "${peer_flags[@]}" >"$OUT/peer2b.log" 2>&1 &
    PIDS+=($!)
    FINAL_LOGS=("$OUT/peer0.log" "$OUT/peer1.log" "$OUT/peer2b.log")
else
    PIDS+=("$PEER2_PID")
    FINAL_LOGS=("$OUT/peer0.log" "$OUT/peer1.log" "$OUT/peer2.log")
fi

status=0
for pid in "${PIDS[@]}"; do
    wait "$pid" || status=$?
done
PIDS=()

echo "--- tracker ---"
cat "$OUT/tracker.log"
for log in "$OUT"/peer*.log; do
    echo "--- $(basename "$log") ---"
    cat "$log"
done

if [ "$status" -ne 0 ]; then
    echo "FAIL: a process exited with status $status" >&2
    exit "$status"
fi

digests="$(grep -h -o 'digest=[0-9a-f]*' "${FINAL_LOGS[@]}" | sort)"
count="$(echo "$digests" | wc -l)"
unique="$(echo "$digests" | sort -u | wc -l)"

if [ "$count" -ne 3 ]; then
    echo "FAIL: expected 3 digest lines, got $count" >&2
    exit 1
fi
if [ "$unique" -ne 1 ]; then
    echo "FAIL: peers disagree on the tangle digest:" >&2
    echo "$digests" >&2
    exit 1
fi

if [ "$CHAOS" = "1" ]; then
    # The restarted peer cannot have seen the full session live: a
    # matching digest proves it caught up through snapshot sync.
    received="$(grep -h -o 'received=[0-9]*' "$OUT/peer2b.log" | head -n1 | cut -d= -f2)"
    if [ -z "$received" ] || [ "$received" -eq 0 ]; then
        echo "FAIL: restarted peer 2 reports no received transactions" >&2
        exit 1
    fi
    echo "OK (chaos): peer 2 survived a kill -9, rejoined and all 3 digests agree"
else
    echo "OK: all 3 peers converged on $(echo "$digests" | head -n1)"
fi
