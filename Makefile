GO ?= go

.PHONY: build vet test race lintdocs golden verify bench benchguard clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The parallel runner, the kernel handoff discipline, the client state
# machines, the federation backbone (exercised concurrently by fleet
# cells), the live serving layer (concurrent HTTP handlers over shared
# sessions), and the storage engine (group-commit flushers and the
# background compactor against concurrent readers) are the places
# concurrency lives; keep them race-clean.
race:
	$(GO) test -race ./internal/experiment ./internal/sim ./internal/client ./internal/federation ./internal/serve ./internal/storage

# Docs gate: every package must carry a package comment.
lintdocs:
	scripts/lintdocs.sh

# Behaviour contract: every pinned SHA-256 table hash in
# internal/experiment/testdata/tables.golden.json, including the quick
# grids that plain `go test` skips for time. Regenerate after a deliberate
# model change with
#   go test ./internal/experiment -run TestGoldenTables -update
golden:
	$(GO) test ./internal/experiment -run TestGoldenTables -golden.all -count=1

# Tier-1 verify: what every PR must keep green.
verify: build vet test race lintdocs golden

# Kernel micro-benchmarks + the parallel sweep benchmark + the replacement
# model suite + the fleet engine + the storage engine, with allocation
# counts; machine-readable results land in BENCH_kernel.json,
# BENCH_model.json, BENCH_fleet.json and BENCH_storage.json. Tune with
# BENCH_TIME / BENCH_MODEL_TIME / BENCH_FLEET_TIME / BENCH_STORAGE_TIME
# (go -benchtime) and BENCH_COUNT.
bench:
	scripts/bench.sh

# Regression gate: re-run the KernelHoldLoop-class per-event benchmarks
# and the storage-engine benchmarks, failing if any runs >2x slower than
# its entry in the committed BENCH_kernel.json / BENCH_storage.json
# (REGRESSION_FACTOR overrides the threshold).
benchguard:
	scripts/benchguard.sh

clean:
	rm -f BENCH_kernel.json BENCH_model.json BENCH_fleet.json BENCH_storage.json
