#!/usr/bin/env bash
# serve_smoke.sh — build cmd/serve, boot it in the background under a
# device-class RAM budget, and prove the full serving story end to end:
# readiness, model metadata, a real infer POST, and the model-repository
# control plane — a frontier spec exported by the NAS search (run first
# via search_smoke.sh) is hot-loaded inline through POST
# /v2/repository/.../load and served WITHOUT any restart, an over-budget load is rejected with a
# structured 409, and an unload drains the model back out of the index.
# Then the inference-graph router: the cascade cmd/search exported is
# registered and served, deterministic cascades prove gate-hit and
# escalation paths (with /metrics counters to match), a dangling model
# ref is a structured 4xx, and unloading a graph-referenced model 409s.
# Used by `make serve-smoke` and the CI serve-smoke job (keep the two in
# sync by editing only this file).
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="127.0.0.1:${SERVE_SMOKE_PORT:-8151}"
WORK="$(mktemp -d)"
BIN="$WORK/micronets-serve"
MODEL="MicroNet-KWS-S"

# --- Two-stage NAS search (64 proxy trials + trained finalist re-rank)
# and its trial-log assertions live in search_smoke.sh so `make
# search-smoke` and this script can't drift.
./scripts/search_smoke.sh "$WORK"
NAS_MODEL=$(jq -r '.specs[0].Name' "$WORK/frontier.json")
echo "search OK: exported frontier model $NAS_MODEL"

go build -o "$BIN" ./cmd/serve

# Boot WITHOUT the searched model: it arrives later through the admin
# API. Pool sizes are planned per model; a version's reservation is its
# shared prepared weights plus pool × its tflm.PlanMemory arena (at -pool
# 1: MicroNet-KWS-S 126880, DSCNN-S 43328), so the budget is sized to hold
# the boot pair, the NAS model, and the frontier fan-out below — but NOT
# MicroNet-AD-L (752828 bytes of weights plus one arena, asserted as a
# 409).
"$BIN" -addr "$ADDR" -models "$MODEL,DSCNN-S" -ram-budget 768KB -pool 1 -log json &
PID=$!
cleanup() { kill "$PID" 2>/dev/null || true; wait "$PID" 2>/dev/null || true; }
trap cleanup EXIT

for _ in $(seq 1 100); do
    if curl -fsS "http://$ADDR/v2/health/ready" >/dev/null 2>&1; then
        break
    fi
    sleep 0.1
done
curl -fsS "http://$ADDR/v2/health/ready" | jq -e '.ready == true' >/dev/null
echo "ready OK"

curl -fsS "http://$ADDR/v2/models" | jq -e '.models | length == 2' >/dev/null
curl -fsS "http://$ADDR/v2/models/$MODEL" | jq -e '.inputs[0].shape == [49,10,1]' >/dev/null
echo "metadata OK"

# The repository index carries per-version state plus the budget-planned
# RAM/flash columns.
INDEX=$(curl -fsS "http://$ADDR/v2/repository/index")
echo "$INDEX" | jq -e '.models | length == 2' >/dev/null
echo "$INDEX" | jq -e --arg m "$MODEL" \
    '.models[] | select(.name == $m) | .state == "READY" and .planned_ram_bytes > 0 and .flash_bytes > 0 and .pool_size >= 1' >/dev/null
echo "$INDEX" | jq -e '.ram_budget_bytes == 786432 and .ram_planned_bytes > 0 and .ram_planned_bytes <= .ram_budget_bytes' >/dev/null
# Every row's reservation must equal shared weights + pool x arena.
echo "$INDEX" | jq -e '[.models[] | .planned_ram_bytes == .shared_weight_bytes + .pool_size * .arena_bytes_per_replica] | all' >/dev/null
echo "repository index OK: $(echo "$INDEX" | jq -c '[.models[] | {name, state, pool_size, planned_ram_bytes}]')"

PAYLOAD=$(jq -n '{inputs:[{name:"input",shape:[49,10,1],datatype:"FP32",data:[range(490)|0.25]}]}')
RESP=$(curl -fsS -X POST -H 'Content-Type: application/json' \
    -d "$PAYLOAD" "http://$ADDR/v2/models/$MODEL/infer")
echo "$RESP" | jq -e '.outputs[] | select(.name=="class") | .data | length == 1' >/dev/null
echo "$RESP" | jq -e '.outputs[] | select(.name=="scores") | .data | length == 12' >/dev/null
echo "infer OK: class $(echo "$RESP" | jq -c '[.outputs[] | select(.name=="class") | .data[0]]') score $(echo "$RESP" | jq -c '[.outputs[] | select(.name=="score") | .data[0]]')"

# --- Per-op profile: measured wall time joined against the mcu cost
# model. The shares must be a distribution and the linear fit must be
# reported — the live check of the paper's §3 linearity claim.
PROFILE=$(curl -fsS "http://$ADDR/v2/models/$MODEL/profile?runs=3")
echo "$PROFILE" | jq -e '.version == 1 and (.ops | length > 4)' >/dev/null
echo "$PROFILE" | jq -e '[.ops[].measured_share] | add | . > 0.99 and . < 1.01' >/dev/null
echo "$PROFILE" | jq -e '.r2 > 0 and .ns_per_cycle > 0' >/dev/null
echo "profile OK: r2=$(echo "$PROFILE" | jq -r '.r2') ns/cycle=$(echo "$PROFILE" | jq -r '.ns_per_cycle') over $(echo "$PROFILE" | jq -r '.ops | length') ops"

# --- Request tracing: every response carries a trace id; opting in with
# X-Micronets-Trace returns the span tree (request -> queue/invoke).
HDRS=$(curl -fsS -D - -o /dev/null -X POST -H 'Content-Type: application/json' \
    -H 'X-Micronets-Trace: 1' -d "$PAYLOAD" "http://$ADDR/v2/models/$MODEL/infer")
echo "$HDRS" | grep -qi '^x-micronets-trace-id: [0-9a-f]\{16\}'
echo "$HDRS" | grep -i '^x-micronets-trace:' | grep -q '"name":"invoke"'
echo "trace OK: span tree returned on opt-in"

# --- Hot-load the searched model through the control plane: the running
# server takes its spec inline (built from the exported frontier), plans
# it against the budget, and serves it — the acceptance criterion's "no
# restart" path. A load body that names a server-side spec_file is
# refused with 400: the server reads no file a caller names.
curl -fsS "http://$ADDR/v2/models/$NAS_MODEL" -o /dev/null -w '' 2>/dev/null \
    && { echo "NAS model served before load?"; exit 1; } || true
inline_spec() { jq -c --arg m "$1" '{spec: (.specs[] | select(.Name == $m))}' "$WORK/frontier.json"; }
SPECFILE_CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
    -d "{\"spec_file\": \"$WORK/frontier.json\"}" \
    "http://$ADDR/v2/repository/models/$NAS_MODEL/load")
test "$SPECFILE_CODE" = "400"
LOAD=$(curl -fsS -X POST -H 'Content-Type: application/json' \
    -d "$(inline_spec "$NAS_MODEL")" \
    "http://$ADDR/v2/repository/models/$NAS_MODEL/load")
echo "$LOAD" | jq -e '.state == "READY" and .version == 1 and .planned_ram_bytes > 0' >/dev/null
curl -fsS "http://$ADDR/v2/repository/index" | jq -e --arg m "$NAS_MODEL" \
    '.models[] | select(.name == $m) | .state == "READY"' >/dev/null
NAS_RESP=$(curl -fsS -X POST -H 'Content-Type: application/json' \
    -d "$PAYLOAD" "http://$ADDR/v2/models/$NAS_MODEL/infer")
echo "$NAS_RESP" | jq -e '.outputs[] | select(.name=="class") | .data | length == 1' >/dev/null
echo "$NAS_RESP" | jq -e --arg m "$NAS_MODEL" '.model_name == $m' >/dev/null
echo "hot-load OK: spec_file refused with 400; $NAS_MODEL served with zero restarts (class $(echo "$NAS_RESP" | jq -c '[.outputs[] | select(.name=="class") | .data[0]]'))"

# --- An over-budget load must be a structured 409, not an OOM: the AD-L
# weights + one arena (752828 bytes) exceed whatever the budget has left.
CONFLICT_CODE=$(curl -s -o "$WORK/conflict.json" -w '%{http_code}' -X POST \
    "http://$ADDR/v2/repository/models/MicroNet-AD-L/load")
test "$CONFLICT_CODE" = "409"
jq -e '.code == "ram_budget_exceeded" and .needed_bytes > 0 and .budget_bytes == 786432' "$WORK/conflict.json" >/dev/null
echo "budget rejection OK: $(jq -c '{code, needed_bytes, budget_bytes, planned_bytes}' "$WORK/conflict.json")"

# --- Unload drains DSCNN-S out of the index and the data path.
curl -fsS -X POST "http://$ADDR/v2/repository/models/DSCNN-S/unload" | jq -e '.state == "DRAINING"' >/dev/null
for _ in $(seq 1 100); do
    if ! curl -fsS "http://$ADDR/v2/repository/index" | jq -e '.models[] | select(.name == "DSCNN-S")' >/dev/null 2>&1; then
        break
    fi
    sleep 0.1
done
curl -fsS "http://$ADDR/v2/repository/index" | jq -e '[.models[] | select(.name == "DSCNN-S")] | length == 0' >/dev/null
UNLOADED_CODE=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/v2/models/DSCNN-S")
test "$UNLOADED_CODE" = "404"
echo "unload OK: DSCNN-S drained out of the index"

# --- Inference graphs: register the cascade cmd/search exported, plus
# two hand-made cascades whose thresholds force both outcomes, and prove
# the router end to end — infer, counters, validation 4xx, unload guard.

# The exported cascade's stages are frontier models; load every exported
# spec inline so the graph validates (loads are idempotent).
for m in $(jq -r '.specs[].Name' "$WORK/frontier.json"); do
    curl -fsS -X POST -H 'Content-Type: application/json' \
        -d "$(inline_spec "$m")" \
        "http://$ADDR/v2/repository/models/$m/load" >/dev/null
done
CASCADE_NAME=$(jq -r '.name' "$WORK/cascade.json")
curl -fsS -X PUT -H 'Content-Type: application/json' \
    -d @"$WORK/cascade.json" "http://$ADDR/v2/graphs/$CASCADE_NAME" \
    | jq -e '.revision == 1 and (.models | length == 2)' >/dev/null
GRESP=$(curl -fsS -X POST -H 'Content-Type: application/json' \
    -d "$PAYLOAD" "http://$ADDR/v2/graphs/$CASCADE_NAME/infer")
echo "$GRESP" | jq -e '.outputs[] | select(.name=="class") | .data | length == 1' >/dev/null
echo "$GRESP" | jq -e '.served_by | length == 1' >/dev/null
echo "graph OK: searched cascade $CASCADE_NAME served by $(echo "$GRESP" | jq -c '.served_by[0]') (escalations $(echo "$GRESP" | jq -c '.escalations[0]'))"

# cas-lo (threshold 0) must always answer at the gate; cas-hi
# (threshold 1.0) can never clear a quantized softmax (max 255/256), so
# it must always escalate — deterministic counters for /metrics below.
jq -n --arg gate "$NAS_MODEL" --arg big "$MODEL" \
    '{root: {kind: "cascade", threshold: 0, children: [
        {kind: "model", model: $gate}, {kind: "model", model: $big}]}}' |
    curl -fsS -X PUT -d @- "http://$ADDR/v2/graphs/cas-lo" | jq -e '.revision == 1' >/dev/null
jq -n --arg gate "$NAS_MODEL" --arg big "$MODEL" \
    '{root: {kind: "cascade", threshold: 1.0, children: [
        {kind: "model", model: $gate}, {kind: "model", model: $big}]}}' |
    curl -fsS -X PUT -d @- "http://$ADDR/v2/graphs/cas-hi" | jq -e '.revision == 1' >/dev/null
curl -fsS -X POST -d "$PAYLOAD" "http://$ADDR/v2/graphs/cas-lo/infer" \
    | jq -e --arg m "$NAS_MODEL" '.served_by[0] == $m and .escalations[0] == 0' >/dev/null
curl -fsS -X POST -d "$PAYLOAD" "http://$ADDR/v2/graphs/cas-hi/infer" \
    | jq -e --arg m "$MODEL" '.served_by[0] == $m and .escalations[0] == 1' >/dev/null
curl -fsS "http://$ADDR/v2/graphs/cas-lo" \
    | jq -e '.stats.nodes[] | select(.kind=="cascade") | .gate_hits == 1 and (.escalations // 0) == 0' >/dev/null
echo "cascade routing OK: cas-lo gates, cas-hi escalates to $MODEL"

# A spec naming an unloaded model is a structured 404 at registration,
# not a 5xx at infer time.
BADGRAPH_CODE=$(jq -n '{root: {kind: "model", model: "no-such-model"}}' |
    curl -s -o "$WORK/badgraph.json" -w '%{http_code}' -X PUT -d @- "http://$ADDR/v2/graphs/bad")
test "$BADGRAPH_CODE" = "404"
jq -e '.code == "unknown_model" and .model == "no-such-model"' "$WORK/badgraph.json" >/dev/null
echo "graph validation OK: dangling model ref rejected with unknown_model"

# Unloading a model a graph references must 409 with the holders listed.
GUARD_CODE=$(curl -s -o "$WORK/guard.json" -w '%{http_code}' -X POST \
    "http://$ADDR/v2/repository/models/$MODEL/unload")
test "$GUARD_CODE" = "409"
jq -e '.code == "model_referenced" and (.graphs | index("cas-lo") != null)' "$WORK/guard.json" >/dev/null
curl -fsS -X POST -d "$PAYLOAD" "http://$ADDR/v2/models/$MODEL/infer" >/dev/null
echo "unload guard OK: $MODEL kept serving behind $(jq -c '.graphs' "$WORK/guard.json")"

# --- Metrics expose the repository state: per-model version/pool/arena
# gauges plus the budget pair, and the graph router's counter families
# (the deterministic cascades above guarantee non-zero gate-hit and
# escalation counts).
METRICS=$(curl -fsS "http://$ADDR/metrics")
echo "$METRICS" | grep -q 'micronets_serve_requests_total{model="MicroNet-KWS-S"} [1-9]'
echo "$METRICS" | grep -q "micronets_serve_model_versions{model=\"$NAS_MODEL\"} 1"
echo "$METRICS" | grep -q "micronets_serve_pool_size{model=\"$NAS_MODEL\"} "
echo "$METRICS" | grep -q "micronets_serve_planned_arena_bytes{model=\"$NAS_MODEL\"} "
echo "$METRICS" | grep -q 'micronets_serve_ram_budget_bytes 786432'
echo "$METRICS" | grep -q 'micronets_serve_shared_weight_bytes{model="'"$MODEL"'"}'
echo "$METRICS" | grep -q 'micronets_serve_ram_planned_bytes '
echo "$METRICS" | grep -q 'micronets_graphs_registered 3'
echo "$METRICS" | grep -q 'micronets_graph_requests_total{graph="cas-lo"} 1'
echo "$METRICS" | grep -q "micronets_graph_requests_total{graph=\"$CASCADE_NAME\"} 1"
echo "$METRICS" | grep -q 'micronets_graph_gate_hits_total{graph="cas-lo",node="root"} 1'
echo "$METRICS" | grep -q 'micronets_graph_escalations_total{graph="cas-hi",node="root"} 1'
# Latency histograms: cumulative buckets ending in le="+Inf", for the
# per-model serve families (end-to-end, queue wait, invoke) and the
# per-graph family — populated by the infers above.
echo "$METRICS" | grep -q "micronets_serve_request_latency_seconds_bucket{model=\"$MODEL\",le=\"+Inf\"} "
echo "$METRICS" | grep -q "micronets_serve_queue_wait_seconds_bucket{model=\"$MODEL\",le=\"+Inf\"} "
echo "$METRICS" | grep -q "micronets_serve_invoke_seconds_bucket{model=\"$MODEL\",le=\"+Inf\"} "
echo "$METRICS" | grep -q 'micronets_graph_request_latency_seconds_bucket{graph="cas-lo",le="+Inf"} '
echo "$METRICS" | grep -q "micronets_serve_request_latency_seconds_count{model=\"$MODEL\"} "
echo "metrics OK (incl. graph gate-hit/escalation counters and latency histograms)"

# --- Concurrent burst: 50 infers per target (one model, one graph), 8
# in flight, each capped at 2 s. A non-200 or a timeout fails curl, so
# xargs exits 123 and set -e stops the script. Latency is measured by
# bench/, not gated here. Runs after the exact-count /metrics assertions
# above, which its traffic would perturb.
printf '%s' "$PAYLOAD" >"$WORK/payload.json"
for url in "http://$ADDR/v2/models/$MODEL/infer" "http://$ADDR/v2/graphs/cas-lo/infer"; do
    seq 50 | xargs -P 8 -I{} curl -fsS --max-time 2 -o /dev/null --data @"$WORK/payload.json" "$url"
done
echo "burst OK: 50 concurrent infers each on model:$MODEL and graph:cas-lo"

# Graceful drain: SIGTERM must flip readiness and exit zero.
kill -TERM "$PID"
wait "$PID"
echo "drain OK"
trap - EXIT
echo "serve smoke: all checks passed"
