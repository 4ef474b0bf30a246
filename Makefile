# Convenience entry points; tier-1 verify is the `verify` target.

GO ?= go

.PHONY: build vet lint lint-fix lint-sarif lint-taint test race test-perfbench verify bench-lint bench-obs bench-queue bench-taint bench-baseline benchdiff coverage-md report cover smoke

# Minimum statement coverage enforced by `make cover`, per package.
COVER_FLOOR_OBS  ?= 85.0
COVER_FLOOR_GRID ?= 85.0

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/reconlint ./...

lint-fix:
	$(GO) run ./cmd/reconlint -fix ./...

lint-sarif:
	$(GO) run ./cmd/reconlint -sarif ./...

# Just the trust-boundary trio: the fast loop while fixing a taint
# finding (the full suite still runs in `make lint`/tier-1).
lint-taint:
	$(GO) run ./cmd/reconlint -run wiretaint,sizecap,logtaint ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The repository benchmark (perfbench/) is its own module, outside
# ./...; testing it here means a change to an API it uses (the grid
# engine, controlplane.Server, DecodeRequest, TenantStats) cannot
# silently break it.
test-perfbench:
	cd perfbench && $(GO) test ./...

# verify is tier-1 plus the migration gate: reconlint's deprecatedshim
# analyzer fails the lint step if any deprecated declaration gains a
# call site. benchdiff is the perf-regression contract: the gated
# benchmark families are re-run and compared against the committed
# BENCH_PR10.json baseline; an alloc or model-metric regression beyond
# the noise budget fails verify.
verify: build vet lint test race test-perfbench benchdiff

# Regenerate the committed linter benchmark snapshot.
bench-lint:
	$(GO) test -run xxx -bench BenchmarkReconlint -benchtime 1x ./cmd/reconlint | $(GO) run ./cmd/benchjson > BENCH_PR4.json

# Regenerate the committed taint-layer benchmark snapshot: the full
# suite (now including the taint fixpoint) and the taint trio alone.
# Budget: the full run must stay within +35% of BENCH_PR4.json's
# 2,309,117,700 ns/op (≈3.117 s). The loader's switch to compiled
# export data (instead of type-checking the stdlib from source) pays
# for the taint fixpoint several times over, so the snapshot lands
# well under the PR4 number despite four PRs of repo growth.
bench-taint:
	$(GO) test -run xxx -bench 'BenchmarkReconlint$$|BenchmarkReconlintTaint' -benchtime 1x ./cmd/reconlint | $(GO) run ./cmd/benchjson > BENCH_PR9.json

# Regenerate the committed observability benchmark snapshot: per-sink
# overhead plus the arrival-sweep baseline the overhead budget is
# measured against.
bench-obs:
	$(GO) test -run xxx -bench 'BenchmarkSinkOverhead|BenchmarkDReAMSim_ArrivalSweep' -benchtime 3x . | $(GO) run ./cmd/benchjson > BENCH_PR5.json

# Regenerate the committed event-core benchmark snapshot: the scheduler
# hold model (heap vs wheel at 10^3/10^5/10^6 pending events) plus the
# DReAMSim sweep points BENCH_PR5.json holds the pre-redesign numbers
# for.
BENCHTIME_QUEUE ?= 200x
bench-queue:
	$(GO) test -run xxx -bench 'BenchmarkQueue|BenchmarkDReAMSim_ArrivalSweep' -benchtime $(BENCHTIME_QUEUE) . | $(GO) run ./cmd/benchjson > BENCH_PR6.json

# --- Performance contract ---
#
# bench-baseline and benchdiff run the IDENTICAL benchmark commands
# (same families, same benchtime, -benchmem on), so allocs/op and the
# model metrics compare apples to apples. At 3x iterations wall time
# never gates (benchdiff's min-iters guard treats it as informational);
# the deterministic metrics — allocs/op, B/op, and the simulator's own
# counters — gate for real, which is what makes this flake-free on a
# shared machine. On a different machine (CI) time gating switches off
# automatically via the env fingerprint in the JSON.
BENCHTIME_VERIFY ?= 3x
BENCH_BASELINE   ?= BENCH_PR10.json
BENCH_OUT        ?= /tmp/bench_head.json

# The raw capture goes to a file first (not a pipe) so a failing
# benchmark run fails the target instead of silently truncating the
# snapshot — benchdiff would flag the missing benchmarks as regressions,
# but bench-baseline must never record a partial baseline.
BENCH_RAW ?= /tmp/bench_raw.txt

define BENCH_SNAPSHOT
{ $(GO) test -run xxx -bench 'BenchmarkQueue|BenchmarkDReAMSim_ArrivalSweep|BenchmarkDReAMSim_FaultSweep|BenchmarkSinkOverhead' -benchtime $(BENCHTIME_VERIFY) -benchmem . \
  && $(GO) test -run xxx -bench 'BenchmarkReconlint$$|BenchmarkReconlintTaint' -benchtime 1x -benchmem ./cmd/reconlint \
  && $(GO) test -run xxx -bench 'BenchmarkControlPlane' -benchtime $(BENCHTIME_VERIFY) -benchmem ./internal/controlplane ; } > $(BENCH_RAW)
endef

# Re-record the committed baseline. Do this only when a benchmark
# legitimately changed (new benchmark, reviewed perf change) and commit
# the JSON diff with the change that explains it.
bench-baseline:
	$(BENCH_SNAPSHOT)
	$(GO) run ./cmd/benchjson < $(BENCH_RAW) > $(BENCH_BASELINE)

# The perf gate: exit 1 if any gated benchmark regressed beyond its
# noise budget against the committed baseline.
benchdiff:
	$(BENCH_SNAPSHOT)
	$(GO) run ./cmd/benchjson < $(BENCH_RAW) > $(BENCH_OUT)
	$(GO) run ./cmd/benchdiff -old $(BENCH_BASELINE) -new $(BENCH_OUT)

# Regenerate the committed scenario coverage matrix (guarded by
# internal/covmatrix's tier-1 test).
coverage-md:
	$(GO) run ./cmd/covgen -out COVERAGE.md

# Assemble the release report (markdown + HTML) from the last benchdiff
# snapshot — or a fresh one if none exists — plus the coverage matrix.
# Pass SOAK=path/to/gridload.json to include a soak section.
SOAK ?=
report:
	@test -f $(BENCH_OUT) || { echo "report: recording bench snapshot"; $(BENCH_SNAPSHOT) > $(BENCH_OUT); }
	$(GO) run ./cmd/relreport -old $(BENCH_BASELINE) -new $(BENCH_OUT) \
		$(if $(SOAK),-soak $(SOAK)) -md release-report.md -html release-report.html

# Control-plane smoke: boot rmsd, drive 5k tasks from 50 tenants over
# the wire with gridload (which fails on any lost task or conservation
# violation), then require a clean SIGTERM shutdown within 60 seconds.
SMOKE_ADDR ?= 127.0.0.1:7981
smoke:
	$(GO) build -o /tmp/rmsd ./cmd/rmsd
	$(GO) build -o /tmp/gridload ./cmd/gridload
	@set -e; \
	/tmp/rmsd -listen $(SMOKE_ADDR) -shards 8 -seed 1 & pid=$$!; \
	trap 'kill -9 $$pid 2>/dev/null || true' EXIT; \
	/tmp/gridload -addr $(SMOKE_ADDR) -tenants 50 -tasks 100 -conns 8 -seed 1; \
	kill -TERM $$pid; \
	for i in $$(seq 1 60); do \
		if ! kill -0 $$pid 2>/dev/null; then trap - EXIT; echo "smoke: clean shutdown"; exit 0; fi; \
		sleep 1; \
	done; \
	echo "smoke: rmsd did not shut down within 60s"; exit 1

# Enforce statement-coverage floors on the observability and engine
# packages. Fails if either package regresses below its floor.
cover:
	@$(GO) test -cover ./internal/obs ./internal/grid | awk ' \
		/coverage:/ { \
			split($$0, f, "coverage: "); split(f[2], p, "%"); \
			floor = ($$2 ~ /obs/) ? $(COVER_FLOOR_OBS) : $(COVER_FLOOR_GRID); \
			printf "%-24s %5.1f%%  (floor %.1f%%)\n", $$2, p[1], floor; \
			if (p[1] + 0 < floor) { bad = 1 } \
		} \
		END { if (bad) { print "coverage below floor"; exit 1 } }'
