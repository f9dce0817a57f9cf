# Convenience targets; everything is plain `go` underneath.

.PHONY: build test vet check e2e-check chaos bench bench-layers experiments fuzz fuzz-smoke cover loc

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

# The CI gate: the format check, static checks plus the full test suite
# under the race detector (the sweep driver and every estimator fan-out
# must stay race-clean).
check:
	test -z "$$(gofmt -l .)"
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
bench:
	go test -bench=. -benchmem ./...

# Layer studies: the reduction pipeline, the distance sketch, the artifact
# load paths and the estimators end to end, one dataset per generator
# family, each cell checked against its reference before a warm-up and five
# timed reps, written as BENCH_<study>.json (see EXPERIMENTS.md and DESIGN.md
# sections 11 and 14).
# BENCH_frontier.json and BENCH_bicc.json are frozen evidence of the retired
# frontier and FAST-BCC engines (DESIGN.md sections 10 and 13); no target
# rewrites them.
bench-layers:
	go run ./cmd/experiments -only reduction,sketch,load,estimators -bench-dir .

# Regenerate every table and figure of the paper (about 4 CPU-minutes).
experiments:
	go run ./cmd/experiments -charts

fuzz:
	go test ./internal/io -fuzz '^FuzzReadEdgeList$$' -fuzztime 30s
	go test ./internal/io -fuzz '^FuzzReadMatrixMarket$$' -fuzztime 30s
	go test ./internal/io -fuzz '^FuzzReadDIMACS$$' -fuzztime 30s
	go test ./internal/io -fuzz '^FuzzReadEdgeListTruncated$$' -fuzztime 30s
	go test ./internal/bincsr -fuzz '^FuzzReadBinCSR$$' -fuzztime 30s
	go test ./internal/bicc -fuzz '^FuzzDecompose$$' -fuzztime 30s
	go test ./internal/core -fuzz '^FuzzEstimatePipeline$$' -fuzztime 60s

# Short fuzz smoke for CI: a few seconds per target catches parser panics
# introduced by a loader change, decompositions a bicc change breaks against
# the brute-force block oracle, and oracle mismatches from an estimator
# change, without the full fuzz budget.
fuzz-smoke:
	go test ./internal/io -fuzz '^FuzzReadEdgeList$$' -fuzztime 5s
	go test ./internal/io -fuzz '^FuzzReadMatrixMarket$$' -fuzztime 5s
	go test ./internal/io -fuzz '^FuzzReadDIMACS$$' -fuzztime 5s
	go test ./internal/io -fuzz '^FuzzReadEdgeListTruncated$$' -fuzztime 5s
	go test ./internal/bincsr -fuzz '^FuzzReadBinCSR$$' -fuzztime 5s
	go test ./internal/bicc -fuzz '^FuzzDecompose$$' -fuzztime 5s
	go test ./internal/core -fuzz '^FuzzEstimatePipeline$$' -fuzztime 5s

cover:
	go test -coverprofile=cover.out ./...
	go tool cover -func=cover.out | tail -5

# Non-test Go lines outside the benchmark module: the size figure the
# ROADMAP's deletion items state their acceptance in. It prints the total
# and the code lines (neither blank nor only a // comment), which editing
# comments cannot move.
loc:
	@find . \( -path ./e2ebench -o -path ./.bench_build -o -path ./.git \) -prune -o \
		-name '*.go' ! -name '*_test.go' -print | xargs cat | \
		awk '{ total++ } !/^[ \t]*$$/ && !/^[ \t]*\/\// { code++ } END { print total, "lines,", code, "code lines" }'
