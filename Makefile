# Standard verify entrypoint: `make check` runs vet (with a gofmt gate),
# build, the project's own static analysis (sketchlint), the pinned
# third-party analyzers when present, the race-enabled test suite with
# and without the sanitize invariant layer, and a short benchmark smoke
# pass.

GO ?= go

# Third-party analyzers are pinned here for reproducibility but are
# NOT installed by this Makefile (CI images bake them in; dev machines
# may be offline). Targets run them when found on PATH and otherwise
# skip with a notice, so `make check` never fails for lack of a tool —
# only for what a tool found.
STATICCHECK_VERSION ?= 2025.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: check lint staticcheck govulncheck vet build test race sanitize bench-smoke bench-server bench-json bench-regress fuzz wire-snapshot wire-docs wire-golden clean

check: vet build lint staticcheck govulncheck race sanitize bench-smoke bench-server bench-regress

# Project-specific analyzers: the syntactic suite (mergecompat,
# locksafe, hotpathalloc, detrand, regcomplete), the flow-sensitive
# suite (poollife, encodepure, lockflow), and the wire-schema suite
# (wireshape symmetry proofs, wirecompat snapshot gate); any
# diagnostic fails the build. Linting runs with the sanitize tag so
# the invariant layer itself is analyzed. Each package is parsed and
# type-checked once for all ten passes (the loader caches by
# directory, the flow passes share one IR build per package), so the
# shared load dominates and analysis time is noise (`sketchlint
# -timing` itemizes it).
lint:
	$(GO) run ./cmd/sketchlint

# Regenerate the committed wire-schema snapshots under
# internal/analysis/wireshape/schemas/ from the current codecs. Run
# this deliberately after an intentional wire-format change; the
# wirecompat pass (part of `make lint`) fails on any breaking drift
# between the codecs and these files. Refuses while encode/decode
# symmetry errors are open.
wire-snapshot:
	$(GO) run ./cmd/sketchlint -wire-snapshot

# Re-render DESIGN.md's wire-format appendix from the committed
# schemas (between the wireshape markers).
wire-docs:
	$(GO) run ./cmd/sketchlint -wire-docs

# Regenerate the golden wire corpus under internal/codec/testdata/
# golden/: one committed frame per registered family. The corpus test
# fails on any byte-level drift until this is rerun deliberately.
wire-golden:
	$(GO) test ./internal/codec/ -run TestGoldenCorpus -update-golden

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not on PATH; skipping (pinned: $(STATICCHECK_VERSION))"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not on PATH; skipping (pinned: $(GOVULNCHECK_VERSION))"; \
	fi

# vet also gates formatting with the selected toolchain's gofmt: any
# file `gofmt -l .` lists, or a gofmt failure (say, a file it cannot
# parse), fails the target (and so `make check`).
vet:
	@unformatted="$$("$$($(GO) env GOROOT)/bin/gofmt" -l .)" || exit 1; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt -l . lists unformatted files (run gofmt -w):"; \
		echo "$$unformatted"; \
		exit 1; \
	fi
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Race-enabled suite with the runtime invariant layer compiled in:
# every Update/Merge asserts the paper's structural invariants.
sanitize:
	$(GO) test -tags sanitize -race ./...

# Quick compile-and-run smoke over every Update/UpdateBatch benchmark;
# 100 iterations keeps it a few seconds, not a measurement.
bench-smoke:
	$(GO) test -run='^$$' -bench=Update -benchtime=100x .

# Compile-and-run smoke over the server merge-plane benchmarks (push,
# batched push, cached and re-encode pull); one iteration each keeps it
# a liveness check, not a measurement.
bench-server:
	$(GO) test -run='^$$' -bench=Server -benchtime=1x ./internal/server/

# Full measurement: regenerates results/bench.json (per-item vs batch
# ns/op for every family, windowed query latency ladder-vs-flat, server
# push/pull/merge throughput at 1-16 clients, and mergetree.Parallel
# worker scaling).
bench-json:
	$(GO) run ./cmd/bench -out results/bench.json

# Regression gate: measure the per-family ingest paths fresh and fail
# if any family's batch path regressed more than 10% (or started
# allocating) against the committed results/bench.json. Two runs,
# gated on the per-family minimum: noise on a shared builder only ever
# slows a run down, so the min estimates the true cost. The windowed
# query plane gates alongside: the ladder must stay >= 5x faster than
# the flat per-epoch plan at windows of 256+ epochs. Regenerate the
# baseline with `make bench-json` when the benchmark machine changes.
bench-regress:
	$(GO) run ./cmd/bench -families-only -out /tmp/bench-fresh-1.json
	$(GO) run ./cmd/bench -families-only -out /tmp/bench-fresh-2.json
	$(GO) run ./cmd/benchregress -baseline results/bench.json \
		-fresh /tmp/bench-fresh-1.json,/tmp/bench-fresh-2.json

fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzUpdateBatch -fuzztime=30s ./internal/mg/

clean:
	$(GO) clean ./...
