# Developer targets.
#
#   make tier1        - the gate every PR must keep green (build + vet + tests)
#   make race         - race-detector pass over the concurrent experiment
#                       runner, the simulator entry points, the shared
#                       workload registry, and the serve/ HTTP service
#   make coverage     - full-module coverage profile (coverage.out); fails
#                       if the total drops below the recorded baseline
#   make bench        - run the kernel performance harness over the full
#                       nine-benchmark x seven-design matrix and write
#                       BENCH_PR6.json (with speedups vs BENCH_PR3.json)
#   make bench-smoke  - one-rep bench harness pass over the golden benchmark
#                       subset (CI's sanity check; numbers are noise there)
#   make bench-compare - re-measure the golden benchmark subset and fail if
#                       wall time regressed >25% geomean against the
#                       checked-in BENCH_PR6.json baseline
#   make gobench      - one `go test -bench` pass over the paper-reproduction
#                       benchmarks, Spec.Key and the served cache-hit path
#   make serve-diff   - the serve differential battery: streamed and
#                       non-streamed /run plus /sweep must produce
#                       byte-identical metrics across cold, cached, and
#                       coalesced paths
#   make serve-diff-noff - the same with HFSTREAM_NO_FASTFORWARD=1, proving
#                       progress/streaming delivery is invariant to the
#                       fast-forward optimization
#   make scaling      - the N-core scaling differential battery under the
#                       race detector: every cell of the 2/3/4-core grid
#                       (k-stage chains + parallel-stage points) must be
#                       byte-identical across serial vs parallel runners,
#                       fast-forward on vs off, and direct vs served
#   make serve-cluster - cluster correctness: consistent-hash ring
#                       properties, peer fill/store/replication, and the
#                       owner-death degradation race, under the race
#                       detector, plus the cluster differential rows
#   make load-smoke   - hfload against in-process 1- and 3-replica
#                       clusters; fails unless the 3-replica phase shows
#                       >=2x modeled throughput and live peer cache hits
#   make bench-serve  - regenerate BENCH_SERVE.json, the serving-tier SLO
#                       report (latency percentiles, shed rate, hit-ratio
#                       split, throughput vs replicas)
#   make ci           - everything CI runs: tier1, race, coverage, formatting,
#                       goldens (with fast-forward on and off), serve
#                       differentials, bench regression gate
#   make golden       - regenerate the metrics snapshots in testdata/golden/
#   make golden-check - rebuild the snapshots into a temp dir and diff them
#                       against the checked-in goldens
#   make golden-check-noff - the same with HFSTREAM_NO_FASTFORWARD=1, proving
#                       the fast-forward optimization is invisible in output
#   make chaos        - full fault-injection sweep (20 seeds, 6 plans each,
#                       all designs); see RESILIENCE.md for the contract
#   make chaos-smoke  - the CI corpus (seeds 1-6, 4 plans), fast-forward on
#                       and off
#   make chaos-cluster - service-tier chaos smoke: the cluster_seeds.json
#                       corpus subset under the race detector (faulted
#                       hfserve clusters; peer-fill integrity, breaker,
#                       retry/backoff under seeded network faults)
#   make fuzz-smoke   - 30s of native Go fuzzing per target (assembler parse,
#                       software-queue lowering)

GO ?= go

# Benchmarks covered by the golden metrics snapshots: the two fastest, so
# the check stays cheap enough to run on every push.
GOLDEN_BENCHES = bzip2,adpcmdec

# Total-statement coverage floor enforced by `make coverage`. The module
# measured 74.6% when the baseline was recorded (PR 7, with the streaming
# and sweep endpoints); the floor sits a couple of points under that so
# timing-dependent branches don't flake the job, while still catching any
# real regression. Raise it as coverage grows.
COVERAGE_BASELINE = 72.0

.PHONY: tier1 vet build test race coverage bench bench-smoke bench-compare bench-serve gobench ci fmtcheck golden golden-check golden-check-noff serve-diff serve-diff-noff serve-cluster load-smoke scaling chaos chaos-smoke chaos-cluster fuzz-smoke

tier1: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) vet ./...
	$(GO) test -race ./internal/exp/... ./internal/sim/... ./internal/workloads/... ./serve/...

# The profile lands in coverage.out, which is git-ignored (see
# .gitignore) — inspect it with `go tool cover -html=coverage.out`.
coverage:
	$(GO) test -count=1 -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (baseline $(COVERAGE_BASELINE)%)"; \
	awk -v t="$$total" -v b="$(COVERAGE_BASELINE)" 'BEGIN { exit (t+0 >= b+0) ? 0 : 1 }' || \
		{ echo "coverage regressed below the $(COVERAGE_BASELINE)% baseline"; exit 1; }

bench:
	$(GO) run ./bench -out BENCH_PR6.json -baseline BENCH_PR3.json -label pr6

# Quick harness exercise for CI: one rep over the two fastest benchmarks.
bench-smoke:
	$(GO) run ./bench -benches $(GOLDEN_BENCHES) -reps 1 -out -

# CI regression gate: re-measure a benchmark subset and fail if wall
# time regressed more than 25% (geomean over matched pairs) against the
# checked-in BENCH_PR6.json. The subset is the two *slowest* benchmarks
# (unlike the golden pair, their multi-millisecond runs don't drown in
# timer noise) and the 25% headroom absorbs the rest; a real scheduling
# or allocation regression blows well past it.
BENCH_COMPARE_BENCHES = equake,mcf
bench-compare:
	$(GO) run ./bench -benches $(BENCH_COMPARE_BENCHES) -reps 5 -out - \
		-label compare -baseline BENCH_PR6.json -maxregress 25

gobench:
	$(GO) test -run '^$$' -bench . -benchtime 1x . ./serve

ci: tier1 race coverage fmtcheck golden-check golden-check-noff serve-diff serve-diff-noff serve-cluster load-smoke scaling bench-compare chaos-smoke chaos-cluster

fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

golden:
	$(GO) run ./cmd/hfexp -metrics testdata/golden -benches $(GOLDEN_BENCHES)

golden-check:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/hfexp -metrics "$$tmp" -benches $(GOLDEN_BENCHES) && \
	diff -ru testdata/golden "$$tmp" && echo "goldens match"

# The goldens were produced with fast-forwarding on; regenerating them
# with it off and diffing proves the optimization changes no number.
golden-check-noff:
	HFSTREAM_NO_FASTFORWARD=1 $(MAKE) golden-check

# The serve differential battery: every path through the HTTP service —
# blocking /run, streamed /run?stream=ndjson (cold, cached, coalesced),
# and /sweep cells — must produce metrics byte-identical to the direct
# library API, and re-submitted sweeps must only simulate cache misses.
serve-diff:
	$(GO) test -count=1 -run 'TestDifferential|TestStream|TestSweep|TestServe' . ./serve/

# The same battery with idle-cycle fast-forwarding disabled: streaming
# progress delivery and the FF optimization must both be invisible in
# the metrics bytes.
serve-diff-noff:
	HFSTREAM_NO_FASTFORWARD=1 $(MAKE) serve-diff

# Cluster correctness: ring balance/minimal-movement properties and the
# peering failure contract (owner death mid-fill degrades to local
# compute, zero request failures) under the race detector, then the
# cluster rows of the differential battery (3 replicas byte-identical to
# the direct API across cold/local-hit/peer-fill/coalesced, and a
# re-sweep across replicas simulating nothing).
serve-cluster:
	$(GO) test -count=1 -race ./serve/cluster/
	$(GO) test -count=1 -run 'TestDifferentialCluster' .

# hfload smoke: drive in-process 1- and 3-replica clusters and check the
# SLO report — the 3-replica phase must reach >=2x the single-replica
# modeled throughput and must have served some requests from the peer
# cache tier (ratio > 0). See the cmd/hfload doc comment for the
# per-replica capacity model behind -cap-rps.
load-smoke:
	$(GO) run ./cmd/hfload -scale 1,3 -duration 2s -conc 16 -cap-rps 200 \
		-out /tmp/hfload_smoke.json -min-speedup 2 -min-peer-ratio 0.0001

# Regenerate the checked-in serving-tier SLO report.
bench-serve:
	$(GO) run ./cmd/hfload -scale 1,3 -duration 3s -conc 24 -cap-rps 250 \
		-out BENCH_SERVE.json -label pr8

# The N-core scaling differential battery (scaling_differential_test.go):
# fft2/equake x {2,3,4}-core chains and parallel-stage points, every
# snapshot byte-identical across runner parallelism, fast-forward mode,
# and a serve round trip — under the race detector, so the parallel
# pool's interleavings are exercised while equality is asserted.
scaling:
	$(GO) test -count=1 -race -run 'TestScalingDifferential' .

# Full chaos sweep: 20 seeded workloads x 7 designs x (1 baseline +
# 6 fault plans). Any failure prints a single-case replay command.
chaos:
	$(GO) run ./cmd/hfchaos -seed0 1 -n 20 -plans 6

# CI corpus (chaos/testdata/seeds.json): 255 runs — 6 pair seeds on all
# 7 designs plus 3 MPMC shared-queue seeds (>= 100) on the 3
# ticket-discipline designs — with fast-forwarding on and off: fault
# triggers are occurrence-based, so both must agree.
chaos-smoke:
	$(GO) run ./cmd/hfchaos -seeds 1,2,3,4,5,6,101,102,103 -plans 4
	HFSTREAM_NO_FASTFORWARD=1 $(GO) run ./cmd/hfchaos -seeds 1,2,3,4,5,6,101,102,103 -plans 4

# Service-tier chaos smoke: the first corpus seed's scenario set (see
# chaos/testdata/cluster_seeds.json) against real faulted hfserve
# clusters, under the race detector and with a goroutine-leak check.
# The full corpus runs via `go run ./cmd/hfchaos -cluster -seeds 1,2,3`.
chaos-cluster:
	$(GO) test -count=1 -race -run 'TestClusterChaos' ./chaos/cluster/

# Short native-fuzz sessions over the user-reachable text pipelines. The
# checked-in corpora under testdata/fuzz/ replay as ordinary tests.
fuzz-smoke:
	$(GO) test -fuzz=FuzzParse -fuzztime 30s ./internal/asm
	$(GO) test -fuzz=FuzzLower -fuzztime 30s ./internal/lower
