GO ?= go

# make bench writes its micro-benchmark record under the gitignored bin/, so
# a plain run never rewrites a committed BENCH_*.json; a change that records
# its numbers passes BENCH_OUT=BENCH_<PR>.json. The gate diffs a fresh run
# against the committed baseline of the last PR that recorded one.
BENCH_OUT ?= bin/BENCH.json
BENCH_BASELINE ?= BENCH_10.json

# cluster-demo knobs.
CLUSTER_DURATION ?= 5s
CLUSTER_CLIENTS ?= 30

# Pinned linter versions, mirrored in .github/workflows/ci.yml.
STATICCHECK_VERSION ?= 2025.1
GOVULNCHECK_VERSION ?= v1.1.4

# The coverage floor `make cover` (and CI) enforces on ./internal/... .
COVER_FLOOR ?= 75

# Per-target budget for `make fuzz` (the CI fuzz-smoke job).
FUZZTIME ?= 15s

.PHONY: check ci fmtcheck build vet test race bench benchsmoke bench-gate \
	experiments cluster-demo cover staticcheck govulncheck lint fuzz fuzz-serving \
	docs-check metricsdoc api-check apidoc bench-e2e benchmark-tests flake

check: build vet race

# ci mirrors exactly what .github/workflows/ci.yml runs: the check job
# (fmt, build, vet, lint, race tests, coverage floor) plus the bench-gate
# job (smoke + regression gate against the committed baseline). The linters
# need network access to fetch their pinned versions; on an air-gapped box
# run the individual targets you can.
ci: fmtcheck build vet lint race cover benchmark-tests benchsmoke bench-gate docs-check api-check

fmtcheck:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 ./...

# flake repeats the tests whose verdicts could depend on goroutine
# interleaving — the RUBiS and TPC-W figure claims, the histogram scraped while
# observed, the weave stats snapshotted while recorded, the cluster's
# replica windows, its property harness (fetches, resolves and offers
# racing strong writes), a disk-tier spill racing an intersecting write, a
# dependency template emptying and refilling during one, the resolve path's
# refusal windows and cross-node single-flight, memdb's shared plans and
# recycled runs (results held while the same plans run again, concurrently
# and with other arguments), and the packages holding
# the miss protocol, the epoch guard, the shared-file driver and the peer
# transport under the cluster's chaos and property harnesses — plain and
# under the race detector. The root package's Examples (the three-node
# cluster's ring follows its ephemeral ports, the semantic window races the
# clock) run from a compiled test binary 20 times, since `go test -count`
# runs an Example only once.
# `go test` judges counts, bytes, allocations and invariants, never timing,
# so a failure here is a bug, not noise.
flake:
	@mkdir -p bin
	for race in "" -race; do \
	  $(GO) test $$race -c -o bin/examples$$race.test . && \
	  for i in $$(seq 20); do \
	    ./bin/examples$$race.test -test.run '^Example' > bin/examples.out || { cat bin/examples.out; exit 1; }; \
	  done && \
	  $(GO) test $$race -count=20 -run 'TestFig13CacheWins|TestFig14CacheWins|TestFig15SemanticsHelps' ./internal/bench && \
	  $(GO) test $$race -count=200 -run TestConcurrentUseWithScrapes ./internal/telemetry && \
	  $(GO) test $$race -count=20 -run TestSnapshotRatiosNeverExceedOne ./internal/weave && \
	  $(GO) test $$race -count=20 -run 'TestSpillRacesSweep|TestRefillRacesSweep' ./internal/cache && \
	  $(GO) test $$race -count=20 -run 'TestSharedPlanConcurrent|TestConcurrentAccess|TestRecycledScratchNeverLeaks' ./internal/memdb && \
	  $(GO) test $$race -count=20 -run 'TestFetchWindow|TestOfferWindow|TestExportVouchesOnlyForAppliedWrites|TestClusterPropertyConsistency|TestResolveRefusals|TestResolveCoalescesAcrossMembers|TestResolveWriteRemovesOwnerPage|TestResolveDivergedRingsKeepDeps' ./internal/cluster && \
	  $(GO) test $$race -count=5 ./internal/weave ./internal/cache/... ./internal/datasource/... ./internal/cluster/... || exit 1; \
	done

# cover writes cover.out for ./internal/... and fails when total statement
# coverage drops below $(COVER_FLOOR)%. CI uploads cover.out as an artifact.
cover:
	$(GO) test -coverprofile=cover.out ./internal/...
	@$(GO) tool cover -func=cover.out | tail -1
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { gsub(/%/, "", $$3); print $$3 }'); \
	awk -v t="$$total" -v floor="$(COVER_FLOOR)" 'BEGIN { \
	  if (t + 0 < floor + 0) { printf "coverage %.1f%% is below the %d%% floor\n", t, floor; exit 1 } \
	  printf "coverage %.1f%% meets the %d%% floor\n", t, floor }'

# lint runs both pinned linters (network required to fetch them).
lint: staticcheck govulncheck

staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

govulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

bench:
	@mkdir -p bin
	$(GO) test -bench . -run '^$$' -benchtime 1s -benchmem .
	$(GO) run ./cmd/benchjson -out $(BENCH_OUT)

benchsmoke:
	$(GO) test -bench 'Cache|Parallel|Coalesced' -run '^$$' -benchtime 100x -benchmem .
	$(GO) test -bench 'SelectOrderLimit|SelectIn|SelectPoint|SelectAggregate' -run '^$$' -benchtime 100x -benchmem ./internal/memdb
	$(GO) test -bench 'PeerFrame' -run '^$$' -benchtime 100x -benchmem ./internal/cluster
	$(GO) test -bench 'StatementLog' -run '^$$' -benchtime 100x -benchmem ./internal/datasource/sqlite
	$(GO) test -bench 'RenderTable' -run '^$$' -benchtime 100x -benchmem ./internal/servlet
	$(GO) test -bench 'LoopbackHit' -run '^$$' -benchtime 100x -benchmem ./internal/serverutil

# bench-gate re-runs the hit-path benchmarks and fails when any tracked
# benchmark regresses >25% ns/op or allocates more per op than the
# committed baseline. The fresh record goes to a scratch file so the gate
# never dirties the committed BENCH_*.json history.
bench-gate:
	@mkdir -p bin
	$(GO) run ./cmd/benchjson -out bin/BENCH_ci.json -baseline $(BENCH_BASELINE)

# bench-e2e runs the end-to-end benchmark BENCHMARK.json declares: real
# server processes, four RUBiS workloads, the gated end-to-end metrics (see
# benchmark/README.md). Minutes, not seconds — not part of `make ci`.
bench-e2e:
	bash benchmark/run.sh

# benchmark-tests runs the tests of the nested benchmark/ module. It imports
# internal/cache, internal/weave and internal/serverutil but is invisible to
# the root `go test ./...`, so without this target a refactor of those
# packages can break the benchmark unnoticed.
benchmark-tests:
	cd benchmark && $(GO) test ./...

# fuzz runs the native fuzz targets for $(FUZZTIME) each: the SQL-template
# parser, the query analyzer's never-too-narrow soundness contract, the
# cluster peer-protocol frame decoder, the disk tier's record decoders, the
# shared-file statement log's replay and the servlet's in-place query
# parameter reader (fuzz-serving has the other two). Seed corpora also run
# as plain tests on every `go test`.
fuzz:
	$(GO) test ./internal/sqlparser -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/analysis -run '^$$' -fuzz FuzzAnalyze -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cluster -run '^$$' -fuzz FuzzDecodeFrame -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cache/l2 -run '^$$' -fuzz FuzzDecodeRecord -fuzztime $(FUZZTIME)
	$(GO) test ./internal/datasource/sqlite -run '^$$' -fuzz FuzzReplayLog -fuzztime $(FUZZTIME)
	$(GO) test ./internal/servlet -run '^$$' -fuzz FuzzParam -fuzztime $(FUZZTIME)

# fuzz-serving runs the serving path's fuzz targets for 10 s each: the
# in-place page key against url.ParseQuery, and the data listener's
# HTTP/1.1 loop against net/http's server on the same bytes (two loopback
# connections per input, so far fewer inputs per second than the decoders
# above). CI's fuzz-smoke job runs it after `make fuzz`.
fuzz-serving:
	$(GO) test ./internal/servlet -run '^$$' -fuzz FuzzPageKeyMatchesQuery -fuzztime 10s
	$(GO) test ./internal/serverutil -run '^$$' -fuzz FuzzHTTP1Request -fuzztime 10s

experiments:
	$(GO) run ./cmd/experiments -fast

# docs-check keeps the documentation suite honest: every relative markdown
# link resolves, docs/METRICS.md matches the live telemetry registry, and
# the repo the docs describe still builds (the runnable examples are the
# Example functions go test checks). CI runs it as the docs-check job.
docs-check:
	bash scripts/docs-check.sh

# metricsdoc regenerates docs/METRICS.md from the live registry after a
# metrics change (then commit the result; docs-check diffs it).
metricsdoc:
	$(GO) run ./cmd/metricsdoc -out docs/METRICS.md

# api-check fails when the package's public surface drifts from the
# committed docs/API.md dump — API changes must land as reviewable diffs
# (the docs/METRICS.md contract, applied to the API). CI runs it in the
# docs-check job.
api-check:
	bash scripts/api-check.sh --check

# apidoc regenerates docs/API.md after an API change (then commit it).
apidoc:
	bash scripts/api-check.sh --write

# cluster-demo boots a 3-node RUBiS cache cluster on localhost, drives it
# with the multi-target load generator, and asserts the cluster tier's
# guarantees from the outside (non-zero hit rate, warm local hits, strong
# cross-node invalidation after a write, cross-node page visibility) — a
# non-zero exit means a guarantee broke, so CI runs this headlessly as the
# e2e-cluster job. Ctrl-C safe: the servers die with the script.
cluster-demo:
	CLUSTER_DURATION=$(CLUSTER_DURATION) CLUSTER_CLIENTS=$(CLUSTER_CLIENTS) \
	  bash scripts/cluster-demo.sh
