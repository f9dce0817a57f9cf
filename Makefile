# Convenience targets; everything is plain `go` underneath.

.PHONY: build test vet check e2e-check chaos bench bench-reduction bench-frontier bench-sketch bench-bicc bench-load experiments fuzz fuzz-smoke cover

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

# The CI gate: static checks plus the full test suite under the race
# detector (the batched traversal driver and every estimator fan-out must
# stay race-clean).
check:
	go vet ./...
	go test -race ./...

# The end-to-end benchmark (e2ebench/) is its own Go module, so the root
# `go build/vet/test ./...` never compiles it: a signature change in core,
# reduce, bicc or server could break the benchmark unnoticed. This target
# vets and tests it against the working tree (about a minute, offline).
e2e-check:
	cd e2ebench && go vet ./... && go test ./...

# Chaos suite: a live server under overload with seeded fault injection
# (stalled flights, crashed traversals, refused mutations, forced drain),
# always under the race detector and a hard timeout so a deadlock fails
# loudly instead of hanging the build.
chaos:
	go test -race -count=1 -run 'TestChaos' -timeout 120s ./internal/server/

# Benchmarks: one per paper table/figure plus kernel/ablation benches.
bench: bench-reduction
	go test -bench=. -benchmem ./...

# Preprocessing-pipeline benchmark: per-stage wall-clock at 1/2/4/GOMAXPROCS
# workers for one dataset per generator family, recorded machine-readably in
# BENCH_reduction.json (see EXPERIMENTS.md for the discussion).
bench-reduction:
	go run ./cmd/experiments -only reduction -json BENCH_reduction.json

# Frontier scaling study: per-source vs frontier-parallel (edge-map) engine
# across worker counts {1,2,4,8} through one full exact farness run, one
# dataset per generator family, every cell verified bit-identical to the
# sequential baseline, recorded machine-readably in BENCH_frontier.json (see
# EXPERIMENTS.md and DESIGN.md section 10 for the discussion).
bench-frontier:
	go run ./cmd/experiments -only frontier -frontier-json BENCH_frontier.json

# Distance-sketch query study: point-to-point throughput of the three
# /v1/distance answering modes (exact bidirectional BFS vs O(k) sketch bound
# lookup vs auto), plus the sketch's one-time build cost and footprint, one
# dataset per generator family, bounds verified against the exact oracle on
# every benchmark pair, recorded machine-readably in BENCH_sketch.json (see
# EXPERIMENTS.md and DESIGN.md section 11 for the discussion).
bench-sketch:
	go run ./cmd/experiments -only sketch -sketch-json BENCH_sketch.json

# BiCC decomposition scaling study: sequential Hopcroft-Tarjan vs the
# parallel FAST-BCC engine across worker counts {1,2,4,8} on each class's
# reduced graph, every cell verified bit-identical to the sequential
# baseline, recorded machine-readably in BENCH_bicc.json (see EXPERIMENTS.md
# and DESIGN.md section 13 for the discussion).
bench-bicc:
	go run ./cmd/experiments -only bicc -bicc-json BENCH_bicc.json

# Artifact load-path study: time-to-first-query (load + one BFS) of text
# edge-list parse vs buffered binary CSR read vs mmap zero-copy open, with
# the mmap cell split into map+verify and first-traversal (page-fault) cost,
# one dataset per generator family, the CSR verified word-identical across
# paths before timing, recorded machine-readably in BENCH_load.json (see
# EXPERIMENTS.md and DESIGN.md section 14 for the discussion).
bench-load:
	go run ./cmd/experiments -only load -load-json BENCH_load.json

# Regenerate every table and figure of the paper (about 4 CPU-minutes).
experiments:
	go run ./cmd/experiments -charts

fuzz:
	go test ./internal/io -fuzz FuzzReadEdgeList -fuzztime 30s
	go test ./internal/io -fuzz FuzzReadMatrixMarket -fuzztime 30s
	go test ./internal/io -fuzz FuzzReadDIMACS -fuzztime 30s
	go test ./internal/io -fuzz FuzzReadEdgeListTruncated -fuzztime 30s
	go test ./internal/bincsr -fuzz FuzzReadBinCSR -fuzztime 30s
	go test ./internal/bicc -fuzz FuzzDecompose -fuzztime 30s
	go test ./internal/core -fuzz FuzzEstimatePipeline -fuzztime 60s

# Short fuzz smoke for CI: a few seconds per target catches parser panics
# introduced by a loader change, decomposition-invariant breaks from a bicc
# engine change, and oracle mismatches from an estimator change, without the
# full fuzz budget.
fuzz-smoke:
	go test ./internal/io -fuzz FuzzReadEdgeList -fuzztime 5s
	go test ./internal/io -fuzz FuzzReadMatrixMarket -fuzztime 5s
	go test ./internal/io -fuzz FuzzReadDIMACS -fuzztime 5s
	go test ./internal/io -fuzz FuzzReadEdgeListTruncated -fuzztime 5s
	go test ./internal/bincsr -fuzz FuzzReadBinCSR -fuzztime 5s
	go test ./internal/bicc -fuzz FuzzDecompose -fuzztime 5s
	go test ./internal/core -fuzz FuzzEstimatePipeline -fuzztime 5s

cover:
	go test -coverprofile=cover.out ./...
	go tool cover -func=cover.out | tail -5
