# Local entry points mirroring .github/workflows/ci.yml so the two can't
# drift: `make ci` runs exactly what the workflow runs.

GO ?= go

.PHONY: build test test-purego bench lint ci

build:
	$(GO) build ./...

test:
	$(GO) test -race -shuffle=on ./...

# test-purego keeps the portable kernel body honest on an amd64 CI host:
# with the assembly tagged out it must still vet, compile and hold its
# parity (kernels), its goldens (tflm) and the facade tests.
PUREGO_PKGS = ./internal/kernels ./internal/tflm .
test-purego:
	$(GO) vet -tags purego $(PUREGO_PKGS)
	$(GO) test -tags purego $(PUREGO_PKGS)

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# bench-smoke is the CI variant: every benchmark once, as a regression
# canary rather than a measurement.
.PHONY: bench-smoke
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# alloc-gates runs the allocation-count tests without -race (the
# detector's instrumentation allocates, so they skip themselves under
# `make test`): steady-state Invoke, the bounded serve row path and the
# infer-body codec. The CI bench-smoke job runs this target.
.PHONY: alloc-gates
alloc-gates:
	$(GO) test -run 'TestInvokeZeroAllocs|TestBatcherSubmitAllocBound|TestDecodeInferAllocsFlat' -v ./internal/tflm ./internal/serve

# bench-module vets, gofmt-checks and tests bench/ (plain and -race),
# the BENCHMARK.json harness: a module of its own (replace micronets =>
# ../) that ./... does not reach.
.PHONY: bench-module
bench-module:
	$(GO) vet -C bench ./... && $(GO) test -C bench ./...
	@out="$$(gofmt -l bench)"; if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; \
	fi
	$(GO) test -C bench -race ./...

# lint = go vet + gofmt + microvet (the repo-specific analyzer suite;
# see docs/ANALYSIS.md).
lint:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; \
	fi
	$(GO) run ./cmd/microvet ./...

# serve runs the HTTP inference server on :8151 (all servable zoo models).
.PHONY: serve
serve:
	$(GO) run ./cmd/serve

# serve-smoke runs the NAS search, boots cmd/serve under a RAM budget and
# proves a live /v2 round-trip plus the repository control plane: the
# exported frontier model is hot-loaded with zero restarts, an
# over-budget load 409s, an unload drains — the same script the CI
# serve-smoke job runs.
.PHONY: serve-smoke
serve-smoke:
	./scripts/serve_smoke.sh

# router runs the model-mesh placement router; point it at running
# replicas with REPLICAS="http://host:8151,http://host:8152".
.PHONY: router
router:
	$(GO) run ./cmd/router -replicas "$(REPLICAS)"

# mesh-smoke boots two budgeted cmd/serve replicas plus cmd/router and
# proves the fleet tier: merged /v2 views, budget spill placement, a
# fleet-wide 409, replica-kill failover, mesh metrics, and a concurrent
# infer burst through the front door — the same script the CI mesh-smoke
# job runs.
.PHONY: mesh-smoke
mesh-smoke:
	./scripts/mesh_smoke.sh

# search-smoke runs just the two-stage NAS search end to end (64 proxy
# trials, 2 finalists re-ranked by 30-step real training runs), asserts
# the trained accuracies landed in the JSONL trial log, and compares a
# 1-worker and a 4-worker log. serve-smoke runs the same script first.
.PHONY: search-smoke
search-smoke:
	./scripts/search_smoke.sh

# fuzz-smoke finds every Fuzz* target in the module (`go test -list`
# prints a package's targets, then its "ok <pkg>" line) and runs each for
# 10 s. The CI fuzz-smoke job runs this target.
.PHONY: fuzz-smoke
fuzz-smoke:
	$(GO) test -list '^Fuzz' ./... \
	| awk '/^Fuzz/ {t[n++]=$$1} /^ok/ {for (i=0; i<n; i++) print $$2, t[i]; n=0}' \
	| while read -r pkg target; do \
		echo "=== $$pkg $$target ==="; \
		$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime 10s "$$pkg" </dev/null || exit 1; \
	done

# cover enforces the CI coverage floor on the numerics-critical packages.
.PHONY: cover
cover:
	$(GO) test -coverprofile=coverage.out \
		-coverpkg=./internal/kernels,./internal/tflm \
		./internal/kernels ./internal/tflm
	$(GO) tool cover -func=coverage.out | tail -1

# search runs the hardware-in-the-loop NAS harness with defaults.
.PHONY: search
search:
	$(GO) run ./cmd/search

ci: build lint test test-purego bench-smoke alloc-gates bench-module fuzz-smoke serve-smoke mesh-smoke cover
