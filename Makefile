GO ?= go

# Minimum statement coverage (percent) over internal/... that `make cover`
# enforces. Measured 88.9% after the timing-wheel/differential-test work
# (2026-08): the floor sits ~9 points under that so honest refactors don't
# trip it, while a wholesale untested subsystem still does.
COVER_FLOOR ?= 80

.PHONY: build test vet fmt-check lint lint-sarif lint-escapes loc race race-sim test-cpus cover fuzz-smoke verify bench bench-smoke bench-shard bench-selftest bench-pair soak

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt-check fails on any tracked Go file gofmt would rewrite (the linter's
# testdata fixtures are unformatted on purpose and stay out of it).
fmt-check:
	@out=$$(git ls-files '*.go' | grep -v '/testdata/' | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt would rewrite:"; echo "$$out"; exit 1; fi

# themis-lint enforces the determinism contract statically: site rules (no
# wall clock, no global rand, no map-order leaks into the event queue, no raw
# PSN comparisons, no bare picosecond literals, no map iteration on TorPipeline
# methods) plus three interprocedural families — nondeterminism taint
# (source→sink paths into scheduling/trace/report/FIB sinks), concurrency
# purity over the deterministic core, and allocation checks on the pinned
# zero-alloc hot paths. Every //lint:* escape must carry a justification.
# Non-zero exit on any finding.
lint:
	$(GO) run ./cmd/themis-lint ./...

# lint-sarif writes the machine-readable report CI uploads as an artifact;
# taint findings carry their full source→sink path as SARIF codeFlows.
lint-sarif:
	$(GO) run ./cmd/themis-lint -sarif themis-lint.sarif ./...

# lint-escapes prints the audit inventory: every active //lint:* directive
# with its recorded justification.
lint-escapes:
	$(GO) run ./cmd/themis-lint -escapes ./...

# loc prints the size ledger CHANGES.md quotes before/after a simplification:
# non-test Go lines (benchmark/ and testdata/ excluded), the //lint:
# directive lines outside the linter's own package — the same count
# `themis-lint -escapes` reports (usage text naming //lint:* is not one) — and
# the config knobs: the exported named fields of every exported *Config struct
# and of workload.Shape, exp.Obs and exp.Runner, `A, B T` counting two
# (embedded fields are counted where their own type is declared).
GO_SRC = find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path '*/testdata/*'
KNOBS_AWK = '/^type ([A-Z][A-Za-z0-9]*)?Config struct \{/ || FILENAME ~ /internal\/workload\// && /^type Shape struct \{/ || FILENAME ~ /internal\/exp\// && /^type (Obs|Runner) struct \{/ { body = 1; next } \
	body && /^\}/ { body = 0 } \
	body && /^\t[A-Z]/ { sub(/^\t/, ""); n = 1; while (sub(/^[A-Za-z0-9_]+, */, "")) n++; if ($$0 ~ /^[A-Za-z0-9_]+[ \t]+[^\/ \t`]/) k += n } \
	END { print k + 0 }'
loc:
	@echo "non-test Go lines: $$($(GO_SRC) -print0 | xargs -0 cat | wc -l)"
	@echo "//lint: escapes:   $$($(GO_SRC) -not -path './internal/lint/*' -print0 | xargs -0 grep -h '//lint:[a-z]' | wc -l)"
	@echo "config knobs:      $$($(GO_SRC) -print0 | xargs -0 awk $(KNOBS_AWK))"

# The simulator core is single-threaded per shard, but run the whole tree
# under the race detector anyway — it catches accidental goroutine leaks in
# new code.
race:
	$(GO) test -race ./...

# race-sim is the focused race gate for the one package that is genuinely
# concurrent: the shard coordinator's barrier loop, mailboxes and worker pool
# live in internal/sim, so its tests run under -race on every verify even when
# the full-tree race stage is skipped locally. They run at 1, 2 and 4
# processors: the barrier polls instead of blocking, so a lost wake-up or a
# livelock with fewer processors than shards hangs here rather than in a run.
race-sim:
	$(GO) test -race -cpu 1,2,4 ./internal/sim/...

# test-cpus runs the tests that cut a trial across shards or split the cores
# between trials at one and at four processors, whatever the machine has: a
# core count decides how many participants run an epoch and how big their
# homes are, and a fault that shows only above two processors (a 4-vCPU CI
# runner) never shows on a two-core box at its default.
test-cpus:
	$(GO) test -cpu 1,4 -run 'Shard|Runner|Cores' ./internal/exp/... ./internal/workload/... ./internal/fabric/...

# cover gates statement coverage on the simulation packages: the observability
# and fuzz hardening work is only worth keeping if the floor holds.
cover:
	$(GO) test -coverprofile=coverage.out ./internal/...
	@$(GO) tool cover -func=coverage.out | tail -1
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	ok=$$(awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN {print (t >= f) ? 1 : 0}'); \
	if [ "$$ok" != 1 ]; then \
		echo "coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; \
	fi

# fuzz-smoke gives every fuzz target a short budget — enough to re-check the
# committed corpora and shake out shallow regressions on every merge; long
# fuzz runs stay a manual/background job. FuzzScenarioJSON decodes and
# validates scenarios and never runs one. FuzzHostQueueRecords runs a fuzzed
# host-link schedule with and without send records and compares the logs;
# FuzzFifo holds the link ring to a plain-slice model.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/packet/ -run '^$$' -fuzz FuzzPSNCompare -fuzztime $(FUZZTIME)
	$(GO) test ./internal/packet/ -run '^$$' -fuzz FuzzPSNAdd -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzClassifyNACK -fuzztime $(FUZZTIME)
	$(GO) test ./internal/obs/ -run '^$$' -fuzz FuzzTraceRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim/ -run '^$$' -fuzz FuzzWheelHeapEquivalence -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fabric/ -run '^$$' -fuzz FuzzHostQueueRecords -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fabric/ -run '^$$' -fuzz FuzzFifo -fuzztime $(FUZZTIME)
	$(GO) test ./internal/exp/ -run '^$$' -fuzz FuzzScenarioJSON -fuzztime $(FUZZTIME)

# bench-selftest vets and tests the nested benchmark/ module, which the root
# `go build ./... && go test ./...` never descends into: it calls exported
# functions of themis/internal/..., so this is where breaking an API it
# freezes shows up before the benchmark pipeline runs. ~15 s; writes only its
# span files under the git-ignored benchmark/out/. One of its checks is
# wall-clock based (seam-trace shares sum to 1 ± 0.02 at smoke scale) and
# fails about once in twenty runs on a busy machine: rerun on that message.
bench-selftest:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# bench-pair is the paired procedure every perf claim goes through
# (benchmark/README.md "Comparing a parent and a change"): the frozen benchmark
# built at PARENT and at HEAD from `git archive` exports, N alternating
# parent/change pairs of workload W at -seed SEED (6-13 s a run on two cores,
# so 10 pairs is 2-5 min), then per-side median and quartiles of the four
# end-to-end metrics and calib_ns, the change's wins and losses on each of the
# four and whether sim_digest moved; the summary is appended as one JSON line
# to perf/ledger.jsonl, which is committed. Keep the machine otherwise idle. A
# change that edits benchmark/ is refused.
N ?= 10
SEED ?= 9
bench-pair:
	@test -n "$(PARENT)" -a -n "$(W)" || { echo "usage: make bench-pair PARENT=<rev> W=<workload> [N=10] [SEED=9]"; exit 2; }
	sh scripts/bench-pair.sh $(PARENT) $(W) $(N) $(SEED)

# verify is the full pre-merge recipe, staged so the cheap static gates run
# (and fail) before any expensive dynamic stage: the ~4s lint pass proves the
# determinism contract before the race/fuzz stages spend minutes exercising
# it. The explicit sub-makes keep the ordering under `make -j` too.
verify:
	$(MAKE) build
	$(MAKE) fmt-check
	$(MAKE) vet
	$(MAKE) lint
	$(MAKE) test
	$(MAKE) bench-selftest
	$(MAKE) race-sim
	$(MAKE) test-cpus
	$(MAKE) race
	$(MAKE) cover
	$(MAKE) fuzz-smoke

bench:
	$(GO) test -bench=. -benchmem .

# bench-smoke is the CI-sized sweep: a 2-seed miniature grid through the
# parallel experiment runner, a 2-seed flow-churn grid exercising the bounded
# flow table (budgeted-relearn / budgeted-ecmp / unbounded arms), a 2-seed
# routing-convergence grid (per-hop delay × spray arm on the distributed
# control plane), a 2-seed space-parallel spray grid, and a 2-seed REPS grid
# (entropy-cache / congestion-aware / relearn / ecmp / flowlet arms across
# chaos, churn and convergence), emitting the BENCH_smoke.json,
# BENCH_churn.json, BENCH_convergence.json, BENCH_spray.json and
# BENCH_reps.json artifacts. Tier-1 already holds the artifact-level gate:
# TestCommittedArtifactsReproduce regenerates the same five grids and compares
# them to the committed files. CI follows this target with
# `git diff --exit-code -- 'BENCH_*.json'`.
# Gated by themis-lint so a lint regression fails before any simulation time
# is spent.
bench-smoke: lint
	$(GO) run ./cmd/themis-sim sweep -grid smoke -seeds 2 -parallel 2 -json BENCH_smoke.json
	$(GO) run ./cmd/themis-sim sweep -grid churn -seeds 2 -parallel 2 -json BENCH_churn.json
	$(GO) run ./cmd/themis-sim sweep -grid convergence -seeds 2 -parallel 2 -json BENCH_convergence.json
	$(GO) run ./cmd/themis-sim sweep -grid spray -seeds 2 -parallel 2 -json BENCH_spray.json
	$(GO) run ./cmd/themis-sim sweep -grid reps -seeds 2 -parallel 2 -json BENCH_reps.json
	$(GO) test -run '^$$' -bench 'BenchmarkFabricForward|BenchmarkFabricThroughput' -benchmem ./internal/fabric/

# soak is the wide-seed invariant sweep: the four fault-injecting grids over
# hundreds of consecutive seeds and every grid over at least seeds 1..80 — the
# window the frozen benchmark folds `-seed` into reaches 79 on all five —
# ~40 s on two cores. `sweep` exits non-zero on a trial that errored or
# violated an invariant (its VIOLATION lines name the seed), so the target
# fails on any. The two grids whose trials can be cut across shards — smoke
# (its collective cells) and spray — run four times, at one shard, cut across
# two and four, and one shard per rack (-shards 8, clipped to three on the
# smoke leaf-spine; both fabrics are below the 32 hosts from which the default
# -shards 0 cuts per rack, so this is the cut a larger fabric takes), and the
# cut reports must be the same bytes as the one-shard one: shard invariance
# over seeds 1..80, not only at the seed the tests pin. Four and eight shards
# on two cores are the oversubscribed cases, where a participant runs several
# shares an epoch.
# It exists because the one finding it has produced (reps/chaos/themis-relearn
# seed 123: an armed compensation surviving a §6 bypass window) was invisible
# to the 2-seed artifacts and the 50-seed tests. Every sweep takes
# -flight-dir: a passing trial records nothing, and a failing one is replayed
# on one shard into a trace ring whose dump path prints under its VIOLATION
# lines (a replay that differs from the trial is itself an error); the
# directory is kept, and named, only when the soak fails. Too slow for
# `make verify`; CI runs it as its own job.
SOAK = $(GO) run ./cmd/themis-sim sweep -parallel $$(nproc) -flight-dir $$flight
soak:
	flight=$$(mktemp -d) && tmp=$$(mktemp -d) && \
	trap 's=$$?; rm -rf "$$tmp"; if [ $$s -eq 0 ]; then rm -rf "$$flight"; else echo "soak failed; flight dumps: $$flight"; fi' EXIT && \
	$(SOAK) -grid reps -seeds 300 && \
	$(SOAK) -grid chaos -seeds 300 && \
	$(SOAK) -grid churn -seeds 100 && \
	$(SOAK) -grid convergence -seeds 80 && \
	for g in smoke spray; do \
		$(SOAK) -grid $$g -seeds 80 -shards 1 -json $$tmp/$$g-1.json && \
		$(SOAK) -grid $$g -seeds 80 -shards 2 -json $$tmp/$$g-2.json && \
		$(SOAK) -grid $$g -seeds 80 -shards 4 -json $$tmp/$$g-4.json && \
		$(SOAK) -grid $$g -seeds 80 -shards 8 -json $$tmp/$$g-8.json && \
		cmp $$tmp/$$g-1.json $$tmp/$$g-2.json && \
		cmp $$tmp/$$g-1.json $$tmp/$$g-4.json && \
		cmp $$tmp/$$g-1.json $$tmp/$$g-8.json || exit 1; \
	done

# bench-shard measures the space-parallel engine's scaling: the k=8 fat-tree
# permutation at 1, 2 and 4 shards, under random spraying and under the
# paper's arm (see BenchmarkShardScaling). Numbers are recorded in PERF.md;
# rerun this after touching the coordinator or the sharded fabric path.
bench-shard:
	$(GO) test -run '^$$' -bench BenchmarkShardScaling -benchmem ./internal/workload/
