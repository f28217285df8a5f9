#!/usr/bin/env bash
# kernels_table.sh — the per-op-kind kernel table of the Default engine:
# BenchmarkInvokeOpKinds (bench_test.go) on MicroNet-KWS-S, -KWS-L, -AD-L,
# -VWW-1 and Person Detection, ns per invoke and GMAC/s for 1×1 conv (pw), k×k conv
# (conv), depthwise (dw), ADD (add), pools (pool) and the rest (other).
#
#   scripts/kernels_table.sh            # this tree
#   scripts/kernels_table.sh <rev>      # <rev> → this tree, with ratios
#   make kernels-table [BASE=<rev>]
#
# With a revision it extracts <rev> with git archive, gives it this
# tree's bench_test.go (so a revision older than the benchmark can be
# measured), builds both test binaries, and alternates 5 rounds of the
# two (which one goes first alternates too). Each run profiles 300
# invokes per model on every CPU, as serving runs; every cell is the
# minimum ns (maximum GMAC/s) over all rounds, because host speed drifts
# for seconds at a time and a kernel change moves the floor.
# ratio = base ns / change ns, so > 1 is a speed-up.
set -euo pipefail
cd "$(dirname "$0")/.."

BASE="${1:-}"
RUNS=300
ROUNDS=5
CPU="$(nproc)"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

go test -c -o "$WORK/change.test" .
sides=(change)
if [ -n "$BASE" ]; then
	mkdir "$WORK/base"
	git archive "$BASE" | tar -x -C "$WORK/base"
	cp bench_test.go "$WORK/base/"
	(cd "$WORK/base" && go test -c -o "$WORK/base.test" .)
	sides=(base change)
fi

for ((r = 0; r < ROUNDS; r++)); do
	order=("${sides[@]}")
	if ((r % 2 == 1)) && [ ${#sides[@]} -eq 2 ]; then
		order=(change base)
	fi
	for side in "${order[@]}"; do
		"$WORK/$side.test" -test.run '^$' -test.bench '^BenchmarkInvokeOpKinds$' \
			-test.benchtime "${RUNS}x" -test.cpu "$CPU" -test.timeout 30m \
			| sed -n "s/^BenchmarkInvokeOpKinds\//$side /p" >>"$WORK/runs.txt"
	done
done

# runs.txt lines: <side> <model>[-<cpu>] <N> <value> <unit> <value> <unit> ...
awk -v cpu="$CPU" -v two=${#sides[@]} '
{
	side = $1; model = $2
	if (cpu != 1) sub("-" cpu "$", "", model)
	if (!(model in seen)) { seen[model] = 1; models[nm++] = model }
	for (i = 4; i < NF; i += 2) {
		v = $i; unit = $(i + 1)
		if (unit !~ /^[a-z]+-(ns|GMAC\/s)$/) continue
		kind = unit; sub(/-.*/, "", kind)
		key = side SUBSEP model SUBSEP kind
		if (unit ~ /-ns$/) {
			if (!(key in ns) || v < ns[key]) ns[key] = v
		} else if (!(key in gmac) || v > gmac[key]) gmac[key] = v
		kinds[model SUBSEP kind] = 1
	}
}
function cell(side, model, kind,   key) {
	key = side SUBSEP model SUBSEP kind
	if (!(key in ns)) return "—"
	if (key in gmac) return sprintf("%.1f µs, %.1f GMAC/s", ns[key] / 1000, gmac[key])
	return sprintf("%.1f µs", ns[key] / 1000)
}
END {
	n = split("invoke pw conv dw add pool other", order, " ")
	if (two == 2) {
		print "| model | kind | base | change | ratio |"
		print "|---|---|---|---|---|"
	} else {
		print "| model | kind | change |"
		print "|---|---|---|"
	}
	for (m = 0; m < nm; m++) {
		model = models[m]
		for (k = 1; k <= n; k++) {
			kind = order[k]
			if (!((model SUBSEP kind) in kinds)) continue
			if (two == 2) {
				b = "base" SUBSEP model SUBSEP kind; c = "change" SUBSEP model SUBSEP kind
				ratio = ((b in ns) && (c in ns) && ns[c] > 0) ? sprintf("%.2f", ns[b] / ns[c]) : "—"
				printf "| %s | %s | %s | %s | %s |\n", model, kind, cell("base", model, kind), cell("change", model, kind), ratio
			} else {
				printf "| %s | %s | %s |\n", model, kind, cell("change", model, kind)
			}
		}
	}
}' "$WORK/runs.txt"
