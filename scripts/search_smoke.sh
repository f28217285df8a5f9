#!/usr/bin/env bash
# search_smoke.sh — run the two-stage NAS search end to end (64 proxy
# trials, then 2 frontier finalists re-ranked by 30-step real training
# runs) and prove the trained re-rank landed: the JSONL trial log must
# carry finalist records whose trained accuracy is non-zero and distinct
# from the capacity proxy, and the frontier export must hold at least one
# spec. Then a -workers 1 and a -workers 4 run must write the same trial
# log, for the KWS space and for the AD space, whose DNAS warm start must
# end in the space's average pool; every record must carry its space's
# digest, and the AD log must resume in full. Last, cmd/train (a one-candidate run
# of the same trainer) must train, export and score each task in float
# and in int8. Used by `make search-smoke` and by
# serve_smoke.sh (so the CI serve-smoke job exercises the same path on
# every push — keep the flags here in sync with nothing else).
#
# Usage: search_smoke.sh [workdir]  (defaults to a fresh mktemp dir)
set -euo pipefail
cd "$(dirname "$0")/.."

WORK="${1:-$(mktemp -d)}"
mkdir -p "$WORK"

# --- NAS search: 64 hardware-in-the-loop trials, then the accuracy-in-
# the-loop finalist stage; JSONL log + exported frontier + a cascade
# graph spec built from the exported points (fast gate → accurate final).
go run ./cmd/search -trials 64 -seed 42 -finalists 2 -train-steps 30 \
    -log "$WORK/search_trials.jsonl" -export "$WORK/frontier.json" -export-top 3 \
    -export-cascade "$WORK/cascade.json" -cascade-stages 2 -cascade-threshold 0.7
test -s "$WORK/search_trials.jsonl"
head -1 "$WORK/search_trials.jsonl" | jq -e 'has("trial") and has("metrics")' >/dev/null
jq -e '.specs | length >= 1' "$WORK/frontier.json" >/dev/null

# The cascade spec must be a ready-to-PUT graph whose stages all name
# models present in the frontier export (serve_smoke.sh registers it
# against a live server).
jq -e '.root.kind == "cascade" and (.root.children | length == 2)
    and ([.root.children[].kind] | all(. == "model"))
    and .root.threshold == 0.7' "$WORK/cascade.json" >/dev/null
jq -e --slurpfile f "$WORK/frontier.json" \
    '[.root.children[].model] - [$f[0].specs[].Name] == []' "$WORK/cascade.json" >/dev/null
echo "cascade export OK: $(jq -c '{name, stages: [.root.children[].model]}' "$WORK/cascade.json")"

# The trained re-rank must be durable and honest: finalist records carry a
# non-zero trained accuracy distinct from the proxy (a trial whose
# training failed carries err instead, and never a trained score).
FINALISTS=$(jq -s '[.[] | select(.stage == "finalist" and .err == null)] | length' "$WORK/search_trials.jsonl")
test "$FINALISTS" -ge 1
jq -s -e '[.[] | select(.stage == "finalist" and .err == null)]
    | all(.metrics.trained_accuracy > 0 and .metrics.trained_accuracy != .metrics.accuracy_proxy)' \
    "$WORK/search_trials.jsonl" >/dev/null
echo "search OK: $FINALISTS finalists trained (log $WORK/search_trials.jsonl)"

# Search results are a pure function of (seed, trials): a serial and a
# 4-worker run must log identical trial records, mutated candidates and
# trained finalists included (only the line order may differ).
for w in 1 4; do
    go run ./cmd/search -trials 32 -seed 7 -workers "$w" -dnas-steps 10 -finalists 2 -train-steps 5 \
        -log "$WORK/det_w$w.jsonl" -export "" >/dev/null 2>&1
    jq -c -s 'sort_by(.trial, .stage)[]' "$WORK/det_w$w.jsonl" >"$WORK/det_w$w.sorted"
done
cmp "$WORK/det_w1.sorted" "$WORK/det_w4.sorted"
jq -s -e '[.[] | select(.source == "mutate")] | length >= 1' "$WORK/det_w1.jsonl" >/dev/null
echo "determinism OK: -workers 1 and -workers 4 wrote identical trial logs ($(wc -l <"$WORK/det_w1.sorted") records)"

# The AD space: the same determinism, and the DNAS warm start (trial 0)
# lands inside the space, ending in its fixed average pool + classifier.
for w in 1 4; do
    go run ./cmd/search -task ad -trials 16 -seed 7 -workers "$w" -dnas-steps 5 -finalists 0 \
        -log "$WORK/ad_w$w.jsonl" -export "" >/dev/null 2>&1
    jq -c -s 'sort_by(.trial, .stage)[]' "$WORK/ad_w$w.jsonl" >"$WORK/ad_w$w.sorted"
done
cmp "$WORK/ad_w1.sorted" "$WORK/ad_w4.sorted"
jq -s -e '[.[] | select(.source == "dnas")] | length == 1
    and (.[0].spec.Blocks[-2:] | map(.Kind) == ["AvgPool", "Dense"])' "$WORK/ad_w1.jsonl" >/dev/null
echo "ad determinism OK: -workers 1 and -workers 4 wrote identical trial logs, dnas warm start ends in AvgPool-Dense"

# Every record names the search space it was drawn from: one non-empty
# digest per log. Re-running the serial AD search against its own log
# must resume every trial and append no proxy line.
for f in det_w1 det_w4 ad_w1 ad_w4; do
    jq -s -e 'map(.space) | unique | length == 1 and (.[0] | type == "string" and length > 0)' \
        "$WORK/$f.jsonl" >/dev/null
done
go run ./cmd/search -task ad -trials 16 -seed 7 -workers 1 -dnas-steps 5 -finalists 0 \
    -log "$WORK/ad_w1.jsonl" -export "" >"$WORK/ad_resume.out" 2>&1
grep -q 'resumed 16/16 trials' "$WORK/ad_resume.out"
test "$(jq -s '[.[] | select(.stage == null)] | length' "$WORK/ad_w1.jsonl")" -eq 16
echo "space digest OK: one space per log, the AD log resumes 16/16 with no new proxy line"

# cmd/train, the one training front end: a one-candidate run of the
# finalist trainer per task must exit 0 and print both its float and its
# int8 score.
for t in kws vww ad; do
    go run ./cmd/train -task "$t" -steps 5 >"$WORK/train_$t.log"
    grep -q '^float ' "$WORK/train_$t.log"
    grep -q '^int8 ' "$WORK/train_$t.log"
done
echo "train OK: kws, vww and ad trained, exported and scored in float and int8"
