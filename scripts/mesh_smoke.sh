#!/usr/bin/env bash
# mesh_smoke.sh — boot TWO cmd/serve replicas with different RAM budgets
# plus the cmd/router front door, and prove the fleet tier end to end:
# merged /v2 views (models, repository index with per-replica budget
# summaries), budget-aware placement (a load neither replica can fit is
# a fleet-wide structured 409; after freeing budget on replica B the
# same load spills onto B), failover (killing replica A mid-flight
# leaves the shared model serving through per-request retry and the
# health loop marks A down), and the micronets_mesh_* metric family.
# Finishes with a concurrent infer burst THROUGH the router that must
# answer every request 200 within 2 s. Used by `make mesh-smoke` and the
# CI mesh-smoke job (keep the two in sync by editing only this file).
set -euo pipefail
cd "$(dirname "$0")/.."

PORT_A="${MESH_SMOKE_PORT_A:-8161}"
PORT_B="${MESH_SMOKE_PORT_B:-8162}"
PORT_R="${MESH_SMOKE_PORT_R:-8160}"
ADDR_A="127.0.0.1:$PORT_A"
ADDR_B="127.0.0.1:$PORT_B"
ADDR_R="127.0.0.1:$PORT_R"
URL_A="http://$ADDR_A"
URL_B="http://$ADDR_B"
WORK="$(mktemp -d)"

go build -o "$WORK/serve" ./cmd/serve
go build -o "$WORK/router" ./cmd/router

# Budgets are sized from the planned reservations at -pool 1 (shared
# weights + one tflm.PlanMemory arena): MicroNet-KWS-S 126880, DSCNN-S
# 43328, and MicroNet-AD-L 752828 — its minimal plan, one replica:
#   A: 448KB  — holds KWS-S, free 331872: AD-L can never fit here.
#   B: 900000 — holds KWS-S + DSCNN-S, free 729792: AD-L does NOT fit
#      until DSCNN-S is unloaded (free then 773120), then it does. Any B
#      in [879708, 923036) keeps both halves true.
AD_L_NEEDED=752828
"$WORK/serve" -addr "$ADDR_A" -models MicroNet-KWS-S -ram-budget 448KB \
    -pool 1 -log json >"$WORK/a.log" 2>&1 &
PID_A=$!
"$WORK/serve" -addr "$ADDR_B" -models MicroNet-KWS-S,DSCNN-S -ram-budget 900000 \
    -pool 1 -log json >"$WORK/b.log" 2>&1 &
PID_B=$!
cleanup() {
    kill "$PID_A" "$PID_B" "${PID_R:-}" 2>/dev/null || true
    wait 2>/dev/null || true
}
trap cleanup EXIT

for _ in $(seq 1 100); do
    if curl -fsS "$URL_A/v2/health/ready" >/dev/null 2>&1 \
        && curl -fsS "$URL_B/v2/health/ready" >/dev/null 2>&1; then
        break
    fi
    sleep 0.1
done
curl -fsS "$URL_A/v2/health/ready" | jq -e '.ready == true and .models_ready == 1' >/dev/null
curl -fsS "$URL_B/v2/health/ready" | jq -e '.ready == true and .models_ready == 2' >/dev/null
echo "replicas OK: A($ADDR_A, 448KB) B($ADDR_B, 900000B)"

# Fast health cadence so the failover assertion below doesn't stall the
# script: mark-down lands within ~2 polls of the kill.
"$WORK/router" -addr "$ADDR_R" -replicas "$URL_A,$URL_B" \
    -health-interval 200ms -down-after 2 -up-after 1 -log json >"$WORK/r.log" 2>&1 &
PID_R=$!
for _ in $(seq 1 100); do
    if curl -fsS "http://$ADDR_R/v2/health/ready" >/dev/null 2>&1; then
        break
    fi
    sleep 0.1
done
READY=$(curl -fsS "http://$ADDR_R/v2/health/ready")
echo "$READY" | jq -e '.ready == true and .replicas == 2 and .replicas_up == 2' >/dev/null
echo "$READY" | jq -e '.models_ready == 2' >/dev/null # KWS-S + DSCNN-S, deduplicated
echo "router ready OK: $(echo "$READY" | jq -c .)"

# --- Merged fleet views: /v2/models is the union; the repository index
# carries every row annotated with its replica plus per-replica budget
# summaries and summed fleet totals.
curl -fsS "http://$ADDR_R/v2/models" | jq -e '[.models[].name] == ["DSCNN-S","MicroNet-KWS-S"]' >/dev/null
INDEX=$(curl -fsS "http://$ADDR_R/v2/repository/index")
echo "$INDEX" | jq -e '.models | length == 3' >/dev/null # KWS on both + DSCNN on B
echo "$INDEX" | jq -e --arg a "$URL_A" --arg b "$URL_B" \
    '([.models[] | select(.name == "MicroNet-KWS-S") | .replica] | sort) == ([$a, $b] | sort)' >/dev/null
echo "$INDEX" | jq -e --arg b "$URL_B" \
    '.models[] | select(.name == "DSCNN-S") | .replica == $b' >/dev/null
echo "$INDEX" | jq -e '.replicas | length == 2 and all(.[]; .up == true and .free_bytes > 0)' >/dev/null
echo "$INDEX" | jq -e '.ram_budget_bytes == 1358752' >/dev/null # 448KB + 900000
echo "$INDEX" | jq -e '.free_bytes == .ram_budget_bytes - .ram_planned_bytes' >/dev/null
echo "merged index OK: $(echo "$INDEX" | jq -c '{budget: .ram_budget_bytes, planned: .ram_planned_bytes, free: .free_bytes}')"

# --- Data plane through the front door: a real infer, answered by a
# replica the router names in X-Micronets-Replica, trace id passed through.
PAYLOAD=$(jq -n '{inputs:[{name:"input",shape:[49,10,1],datatype:"FP32",data:[range(490)|0.25]}]}')
HDRS=$(curl -fsS -D - -o "$WORK/infer.json" -X POST -H 'Content-Type: application/json' \
    -H 'X-Micronets-Trace-Id: mesh-smoke-trace' \
    -d "$PAYLOAD" "http://$ADDR_R/v2/models/MicroNet-KWS-S/infer")
echo "$HDRS" | grep -qi '^x-micronets-replica: http://127.0.0.1'
echo "$HDRS" | grep -qi '^x-micronets-trace-id: mesh-smoke-trace'
jq -e '.outputs[] | select(.name=="class") | .data | length == 1' "$WORK/infer.json" >/dev/null
echo "infer via router OK ($(echo "$HDRS" | grep -i '^x-micronets-replica' | tr -d '\r'))"

# --- Placement, act 1: AD-L fits NOWHERE (A free 331872, B free 729792,
# AD-L needs 752828 even at its minimal plan) — the router must answer
# its own fleet-wide 409 after spilling off every candidate. First check
# the premise, so a budget gone stale under a planner change fails here
# by name instead of as a bare exit status below.
B_FREE=$(curl -fsS "$URL_B/v2/repository/index" | jq -r '.free_bytes')
if [ "$B_FREE" -ge "$AD_L_NEEDED" ]; then
    echo "stale budget: replica B has $B_FREE free bytes but MicroNet-AD-L needs $AD_L_NEEDED," \
        "so act 1's fleet-wide 409 cannot happen; re-size B's -ram-budget" >&2
    exit 1
fi
CODE=$(curl -s -o "$WORK/fleet409.json" -w '%{http_code}' -X POST \
    "http://$ADDR_R/v2/repository/models/MicroNet-AD-L/load")
if [ "$CODE" != "409" ] || ! jq -e --argjson n "$AD_L_NEEDED" \
    '.code == "ram_budget_exceeded" and .needed_bytes == $n' "$WORK/fleet409.json" >/dev/null; then
    echo "stale budget: the MicroNet-AD-L load answered $CODE $(jq -c '{code, needed_bytes}' "$WORK/fleet409.json")," \
        "but the budgets above are sized for a fleet 409 with needed_bytes $AD_L_NEEDED" >&2
    exit 1
fi
echo "fleet 409 OK: $(jq -c '{code, needed_bytes, free_bytes}' "$WORK/fleet409.json")"

# --- Placement, act 2: free B's budget (unload DSCNN-S through the
# router; it fans out to the holder), wait for the drain, reload — the
# placement must spill off A and land on B.
curl -fsS -X POST "http://$ADDR_R/v2/repository/models/DSCNN-S/unload" \
    | jq -e --arg b "$URL_B" '.unloaded_from == [$b]' >/dev/null
for _ in $(seq 1 100); do
    if curl -fsS "$URL_B/v2/repository/index" | jq -e --argjson n "$AD_L_NEEDED" '.free_bytes >= $n' >/dev/null 2>&1; then
        break
    fi
    sleep 0.1
done
LOAD_HDRS=$(curl -fsS -D - -o "$WORK/load.json" -X POST \
    "http://$ADDR_R/v2/repository/models/MicroNet-AD-L/load")
echo "$LOAD_HDRS" | grep -qi "^x-micronets-replica: $URL_B"
jq -e '.state == "READY"' "$WORK/load.json" >/dev/null
curl -fsS "http://$ADDR_R/v2/repository/index" | jq -e --arg b "$URL_B" \
    '.models[] | select(.name == "MicroNet-AD-L") | .replica == $b and .state == "READY"' >/dev/null
curl -fsS "$URL_A/v2/repository/index" | jq -e '[.models[] | select(.name == "MicroNet-AD-L")] | length == 0' >/dev/null
echo "spill placement OK: MicroNet-AD-L landed on B after freeing its budget"

# --- Mesh metrics: the placement story must be visible in the
# micronets_mesh_* family (spills where AD-L bounced, a placement on B,
# one fleet-wide placement failure from act 1).
METRICS=$(curl -fsS "http://$ADDR_R/metrics")
echo "$METRICS" | grep -q 'micronets_mesh_replicas 2'
echo "$METRICS" | grep -q 'micronets_mesh_replicas_up 2'
echo "$METRICS" | grep -q 'micronets_mesh_placement_failures_total 1'
echo "$METRICS" | grep -Eq 'micronets_mesh_spills_total\{replica="[^"]+"\} [1-9]'
echo "$METRICS" | grep -Eq "micronets_mesh_placements_total\{replica=\"$URL_B\"\} [1-9]"
echo "$METRICS" | grep -Eq 'micronets_mesh_replica_requests_total\{replica="[^"]+"\} [1-9]'
echo "$METRICS" | grep -q 'micronets_mesh_request_latency_seconds_bucket'
echo "mesh metrics OK"

# --- Failover: kill A outright. The immediate next infer must still
# succeed (per-request retry onto B), and the health loop must mark A
# down within a few polls.
kill -9 "$PID_A" 2>/dev/null || true
for i in $(seq 1 5); do
    curl -fsS -X POST -H 'Content-Type: application/json' \
        -d "$PAYLOAD" "http://$ADDR_R/v2/models/MicroNet-KWS-S/infer" \
        | jq -e '.model_name == "MicroNet-KWS-S"' >/dev/null
done
for _ in $(seq 1 50); do
    if curl -fsS "http://$ADDR_R/v2/health/ready" | jq -e '.replicas_up == 1' >/dev/null 2>&1; then
        break
    fi
    sleep 0.1
done
curl -fsS "http://$ADDR_R/v2/health/ready" | jq -e '.ready == true and .replicas_up == 1' >/dev/null
# Capture /metrics before grepping: grep -q exits at the first match and
# would close the pipe mid-body, flaking curl with exit 23.
METRICS=$(curl -fsS "http://$ADDR_R/metrics")
echo "$METRICS" | grep -Eq "micronets_mesh_replica_up\{replica=\"$URL_A\"\} 0"
echo "$METRICS" | grep -Eq "micronets_mesh_health_transitions_total\{replica=\"$URL_A\"\} [1-9]"
# The merged surfaces shrink to the survivor without serving stale rows.
curl -fsS "http://$ADDR_R/v2/repository/index" | jq -e --arg b "$URL_B" \
    '[.models[].replica] | unique == [$b]' >/dev/null
echo "failover OK: A killed, infers kept serving, A marked down"

# --- Concurrent burst THROUGH the router onto the surviving replica: 50
# infers, 8 in flight, each capped at 2 s. A non-200 or a timeout fails
# curl, so xargs exits 123 and set -e stops the script. Latency is
# measured by bench/, not gated here.
printf '%s' "$PAYLOAD" >"$WORK/payload.json"
seq 50 | xargs -P 8 -I{} curl -fsS --max-time 2 -o /dev/null --data @"$WORK/payload.json" \
    "http://$ADDR_R/v2/models/MicroNet-KWS-S/infer"
echo "burst via router OK: 50 concurrent infers on MicroNet-KWS-S"

echo "mesh smoke: all checks passed"
