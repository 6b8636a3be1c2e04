# Convenience targets; everything is plain `go` underneath.

.PHONY: build fmt vet test race loc bench bench-module profile-doc profile-import profile-snippet chaos chaos-replication chaos-failover readscale openloop loadgate experiments fuzz cover clean

build:
	go build ./...

# gofmt is the formatter of record: any file it would rewrite fails the check.
fmt:
	test -z "$$(gofmt -l .)"

vet:
	go vet ./...

test:
	go test ./...

race:
	go test -race ./...

# Lines of non-test Go outside benchmarks/: the number ROADMAP's size
# acceptance and every CHANGES.md line quote.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmarks/*' -not -path './.bench_build/*' | xargs cat | wc -l

bench:
	go test -bench=. -benchmem ./...

# benchmarks/ is its own module (the repository benchmark, BENCHMARK.json)
# importing nnexus/internal/{core,conceptmap,render,tokenizer}; the root
# `go build ./... && go test ./...` never compiles it, so an internal API
# change is checked against it here.
bench-module:
	cd benchmarks && go vet ./... && go test ./...

# CPU and allocation profiles of one document link (BenchmarkLinkDocument:
# the repository benchmark's document_read op, in-process), into the
# git-ignored out/: `go tool pprof -top out/nnexus.test out/doc.cpu.prof`,
# `go tool pprof -sample_index=alloc_space -top out/nnexus.test out/doc.mem.prof`.
profile-doc:
	mkdir -p out
	go test -run '^$$' -bench LinkDocument -benchtime 3s -benchmem -o out/nnexus.test \
		-cpuprofile out/doc.cpu.prof -memprofile out/doc.mem.prof .

# The same for the write path (BenchmarkImportRecover: the repository
# benchmark's bulk_recover op, import + close + reopen of 3,000 entries):
# `go tool pprof -top out/nnexus.test out/import.cpu.prof`,
# `go tool pprof -sample_index=inuse_space -top out/nnexus.test out/import.mem.prof`.
profile-import:
	mkdir -p out
	go test -run '^$$' -bench ImportRecover -benchtime 5x -benchmem -o out/nnexus.test \
		-cpuprofile out/import.cpu.prof -memprofile out/import.mem.prof .

# The same for the serving layer (BenchmarkLinkSnippet: the repository
# benchmark's snippet_read op, one stop-and-wait caller through client, wire
# and server on loopback; the profile holds both ends and the 3,000-entry
# set-up): `go tool pprof -top out/nnexus.test out/snippet.cpu.prof`,
# `go tool pprof -sample_index=alloc_space -top out/nnexus.test out/snippet.mem.prof`.
profile-snippet:
	mkdir -p out
	go test -run '^$$' -bench LinkSnippet -benchtime 5s -benchmem -o out/nnexus.test \
		-cpuprofile out/snippet.cpu.prof -memprofile out/snippet.mem.prof .

# Fault-injection suite: connection kills, server restarts, torn WAL tails,
# fsync failures, drains under live traffic — always under the race detector.
# The two slices below are skipped here, so that running every chaos target
# (as CI does) runs each test once.
chaos:
	go test -race -run '^TestChaos' -skip '^TestChaos(Repl|Failover)' ./...

# The replication slice of the chaos suite: follower crash/recovery at every
# WAL record boundary, partitioned and healed replication streams, drains
# with blocked subscribers, and the full primary + 2-follower cluster
# scenario — always under the race detector.
chaos-replication:
	go test -race -run '^TestChaosRepl' ./...

# The failover slice of the chaos suite: the primary killed at every WAL
# record boundary under concurrent quorum-acknowledged writes, automatic
# election among the survivors, exactly-one-primary convergence, and a
# restarted stale primary fencing itself — always under the race detector.
chaos-failover:
	go test -race -run '^TestChaosFailover' ./...

# The read-scaling experiment (1 primary + 2 WAL-shipped replicas vs a
# single node); prints its table (EXPERIMENTS.md records the runs).
readscale:
	go run ./cmd/nnexus-bench -exp readscale -entries 800

# The open-loop (coordinated-omission-free) load sweep against the live
# primary + 2-follower cluster: offered-load ladder, intended-latency
# percentiles and the auto-detected knee.
openloop:
	go run ./cmd/nnexus-bench -exp openloop -entries 400 -duration 2s

# CI capacity gate: a scaled-down open-loop sweep that exits non-zero when
# its lowest rung misses the SLO, i.e. when the knee is below 600 req/s
# (half the 1,200 req/s knee EXPERIMENTS.md records).
loadgate:
	go run ./cmd/nnexus-bench -exp openloop -entries 200 -duration 1s -rates 600,1200

# Regenerate every table and figure of the paper's evaluation.
experiments:
	go run ./cmd/nnexus-bench -exp all

# Run each fuzz target briefly: the targets of CI's fuzz job, which CI's
# step "One fuzz list" holds to this list.
fuzz:
	go test ./internal/tokenizer -fuzz=FuzzTokenize -fuzztime=30s
	go test ./internal/invindex -fuzz=FuzzIndexEquivalence -fuzztime=30s
	go test ./internal/invindex -fuzz=FuzzIndexRoundTrip -fuzztime=30s
	go test ./internal/latex -fuzz=FuzzToText -fuzztime=30s
	go test ./internal/policy -fuzz=FuzzParse -fuzztime=30s
	go test ./internal/policy -fuzz=FuzzPermitsByID -fuzztime=30s
	go test ./internal/wire -fuzz=FuzzDecodeRequest -fuzztime=30s
	go test ./internal/wire -fuzz=FuzzCodecEquivalence -fuzztime=30s
	go test ./internal/wire -fuzz=FuzzEntryCodec -fuzztime=10s
	go test ./internal/storage -fuzz=FuzzDecodeBody -fuzztime=30s
	go test ./internal/morph -fuzz=FuzzNormalize -fuzztime=30s
	go test ./internal/render -fuzz=FuzzApplyEquivalence -fuzztime=30s
	go test ./internal/conceptmap -fuzz=FuzzAutomatonScanEquivalence -fuzztime=30s
	go test ./internal/conceptmap -fuzz=FuzzBatchEquivalence -fuzztime=30s
	go test ./internal/core -fuzz=FuzzTenantLinkEquivalence -fuzztime=30s
	go test ./internal/core -fuzz=FuzzMaintenanceEquivalence -fuzztime=30s
	go test ./internal/classification -fuzz=FuzzTreeDistance -fuzztime=10s

cover:
	go test -cover ./...

clean:
	go clean ./...
