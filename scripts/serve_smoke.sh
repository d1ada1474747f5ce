#!/bin/sh
# serve_smoke.sh — smoke-test the live observability endpoint: start a
# short campaign with -serve, scrape /metrics and /statusz while the
# campaign executes, and fail on any non-200 response, an empty
# exposition, a completed run's series that never reach /metrics, campaign
# ledger totals (runs completed, heap growth of the finished campaigns) that
# never leave zero, or a runs-done count that never leaves zero. Used by
# `make serve-smoke` and the CI serve-smoke job.
set -eu

log=$(mktemp)
trap 'kill "$pid" 2>/dev/null || true; rm -f "$log"' EXIT

# The quick suite on one worker (about 10 s; fig6 alone ends in about 1 s,
# too soon for the polls below) gives the server time to answer in.
go run ./cmd/experiments -quick -j 1 -serve 127.0.0.1:0 \
    >/dev/null 2>"$log" &
pid=$!

# The binary prints "serving ... on http://ADDR" to stderr once the
# listener is bound (before the first campaign starts).
addr=""
for _ in $(seq 1 150); do
    addr=$(sed -n 's|^serving .* on http://||p' "$log" | head -n 1)
    [ -n "$addr" ] && break
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "serve-smoke: campaign exited before binding" >&2
        cat "$log" >&2
        exit 1
    fi
    sleep 0.2
done
if [ -z "$addr" ]; then
    echo "serve-smoke: no listen address announced" >&2
    cat "$log" >&2
    exit 1
fi

# curl -f fails on any non-2xx status.
metrics=$(curl -fsS "http://$addr/metrics") || {
    echo "serve-smoke: GET /metrics failed" >&2; exit 1; }
if [ -z "$metrics" ]; then
    echo "serve-smoke: /metrics exposition is empty" >&2
    exit 1
fi
printf '%s\n' "$metrics" | grep -q '^host_campaign_runs_total' || {
    echo "serve-smoke: /metrics missing host_campaign_runs_total:" >&2
    printf '%s\n' "$metrics" | head -n 20 >&2
    exit 1
}
statusz=$(curl -fsS "http://$addr/statusz") || {
    echo "serve-smoke: GET /statusz failed" >&2; exit 1; }
printf '%s\n' "$statusz" | grep -q 'campaign progress' || {
    echo "serve-smoke: /statusz is not the progress page" >&2
    exit 1
}

# poll PATH DESC REGEX...: GET PATH every 0.2 s, for at most 60 s, until
# the body matches every extended REGEX; fail if the campaign exits or the
# time runs out first.
poll() {
    path=$1 desc=$2
    shift 2
    for _ in $(seq 1 300); do
        body=$(curl -fsS "http://$addr$path" 2>/dev/null) || body=""
        ok=1
        for re in "$@"; do
            printf '%s\n' "$body" | grep -qE -- "$re" || { ok=0; break; }
        done
        [ "$ok" = 1 ] && return 0
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "serve-smoke: campaign exited before $path showed $desc" >&2
            exit 1
        fi
        sleep 0.2
    done
    echo "serve-smoke: $path never showed $desc within 60 s:" >&2
    printf '%s\n' "$body" | head -n 40 >&2
    exit 1
}

# A completed run's registry reaches the campaign aggregate, both planes.
poll /metrics "a completed run's host and sim series" \
    '^host_sched_lane_events_total\{plane="host"\} [0-9]' \
    '^sim_mpi_p2p_msgs_total\{plane="sim"\} [0-9]'
# The ledger's totals reach /metrics: runs as they complete, heap growth
# when a campaign ends.
poll /metrics "non-zero campaign ledger totals" \
    '^host_campaign_runs_completed_total\{plane="host"\} [1-9]' \
    '^host_campaign_alloc_bytes_total\{plane="host"\} [1-9]'
# The harness counts each run in as it completes, while the campaign runs.
poll /statusz "a non-zero runs-done count" 'runs done/total</b></td><td>[1-9][0-9]*/'

wait "$pid" || { echo "serve-smoke: campaign failed" >&2; cat "$log" >&2; exit 1; }
echo "serve-smoke: OK — http://$addr served /metrics and /statusz during the campaign"
