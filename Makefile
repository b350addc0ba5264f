# Build/test/bench entry points. `make ci` is the gate every change must
# pass; it includes TestPaperExperimentsGolden, which pins the paper's
# evaluation (E1–E8). End-to-end performance is measured by benchmark/
# (`bash benchmark/run.sh`, see benchmark/README.md).

GO    ?= go
PKGS  ?= ./...
BENCH ?= .

.PHONY: all build test race vet fmt-check bench bench-smoke bench-check bench-compare fuzz-smoke serve-smoke cmd-smoke conformance conformance-remote conformance-faults conformance-durability ci

all: build

build:
	$(GO) build $(PKGS)

test:
	$(GO) test $(PKGS)

race:
	$(GO) test -race $(PKGS)

vet:
	$(GO) vet $(PKGS)

# Formatting gate: fails when gofmt would rewrite any Go file of the
# checkout, the benchmark/ module included, and lists those files.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# Component micro-benchmarks with allocation stats.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchmem .

# One-iteration pass over every component benchmark: CI runs this so
# benchmark code cannot rot between perf PRs.
bench-smoke:
	$(GO) test -run '^$$' -bench Component -benchtime 1x $(PKGS)

# The benchmark harness is its own module (benchmark/go.mod), so the root
# `go build ./...` never compiles it: vet it and run its short tests here so
# a change to the packages it drives cannot silently break the yardstick.
bench-check:
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...

# End-to-end comparison of the working tree against BASE: PAIRS (>= 3)
# alternating base/change pairs of `bash benchmark/run.sh --seconds 15`
# (seeds 1..PAIRS) over WORKLOADS, the base side built in a git worktree
# under .bench_build/base, then `benchmark -compare`, whose exit status
# it returns. See scripts/bench-compare.sh.
PAIRS     ?= 10
BASE      ?= HEAD
WORKLOADS ?= all
bench-compare:
	bash scripts/bench-compare.sh $(PAIRS) $(BASE) $(WORKLOADS)

# Short fuzz passes: the columnar frame decoder (malformed dictionary /
# RLE payloads must surface as typed protocol errors, never a panic), the
# server's request loop (arbitrary bytes into ServeConn: no panic, only
# well-formed response frames out, prompt return at end of input),
# the compiled IN-list membership test (must answer exactly as the linear
# relational.Equal loop over ints, floats, NaN, ±0, strings, bools, NULLs;
# minimizing its many coverage-new inputs would otherwise eat the 10 s),
# the existence index walk (random tables of mixed INT/FLOAT/NaN/NULL
# join keys, random join shapes and predicates: the walk, the streaming
# path and the reference interpreter must give one verdict) and the
# statement text the plan cache keys on (parse → print → parse is stable,
# dropping LIMIT removes exactly its clause, planning never panics) and
# the client's decoding of a statistics response (arbitrary bytes never
# panic; what decodes re-encodes to a frame that decodes the same), the
# serving path on arbitrary query text (Search on IMDB, then Execute of
# the top-1 under LIMIT 20: no panic, every explanation's SQL parses) and
# the Steiner decode (the top-k minimal trees of a small random graph
# equal a brute force over its edge subsets).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzColumnarDecode -fuzztime 10s ./internal/transport
	$(GO) test -run '^$$' -fuzz FuzzServeConn -fuzztime 10s ./internal/transport
	$(GO) test -run '^$$' -fuzz FuzzCompiledIn -fuzztime 10s -fuzzminimizetime 1x ./internal/sql
	$(GO) test -run '^$$' -fuzz FuzzExistsSemiJoin -fuzztime 10s ./internal/sql
	$(GO) test -run '^$$' -fuzz FuzzParsePrint -fuzztime 10s ./internal/sql
	$(GO) test -run '^$$' -fuzz FuzzColumnStatsDecode -fuzztime 10s ./internal/sql
	$(GO) test -run '^$$' -fuzz FuzzSearch -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz FuzzSteinerTopK -fuzztime 10s ./internal/steiner

# Serving-tier smoke: questd's HTTP surface against an in-process engine
# under an open-loop burst — a rate-limited tenant must draw typed 429s
# with Retry-After while an interactive tenant stays unaffected, and the
# /v1/stats counters must reconcile with what the client observed.
serve-smoke:
	$(GO) test -race -count=1 -run TestServeSmoke ./internal/serve

# Command smoke: run the inspection and query commands end to end on the
# small mondial dataset (every queststats section, one questcli search
# whose keywords both map, so the whole pipeline runs);
# any non-zero exit fails the target.
cmd-smoke:
	$(GO) run ./cmd/queststats -db mondial > /dev/null
	$(GO) run ./cmd/questcli -db mondial -q "germany city" > /dev/null

# Cross-backend conformance: the differential suite holds ShardedSource
# (at 1, 3 and 7 shards, with concurrent queries and interleaved inserts)
# and every backend shape — full access, sharded, and sharded behind
# loopback-wire clients — to FullAccessSource's semantics, under the race
# detector.
conformance:
	$(GO) test -race -count=1 -run Conformance ./internal/conformance

# Remote-transport conformance and fault injection: every query shape
# against shards behind the wire protocol (loopback and TCP) at 1/3/7
# shards, the goroutine-leak bound, and the transport package's
# dropped-connection / slow-shard-hedge / malformed-frame tests.
conformance-remote:
	$(GO) test -race -count=1 -run 'ConformanceRemote|RemoteNoGoroutineLeak' ./internal/conformance
	$(GO) test -race -count=1 ./internal/transport

# Fault-injection conformance: replicated shard groups with replicas
# killed mid-batch, partitioned, restarted and rejoined, held
# byte-identical to FullAccessSource at 1/3/7 shards; plus the
# probe-window failover bound and the goroutine-leak sweep with faults
# active. All under the race detector.
conformance-faults:
	$(GO) test -race -count=1 -run 'ConformanceFaults|FaultFailoverWithinProbeWindow|FaultNoGoroutineLeak' ./internal/conformance

# Durability conformance: WAL-backed replicated shard groups at 1/3/7
# shards with a backup, the primary, and a whole shard group killed
# mid-insert-batch and restarted from their WAL directories alone —
# recovery, duplicate-free rejoin and every degraded topology held
# byte-identical to FullAccessSource; plus the wal package's
# torn-write/corruption codec tests. All under the race detector.
conformance-durability:
	$(GO) test -race -count=1 -run ConformanceDurability ./internal/conformance
	$(GO) test -race -count=1 ./internal/wal

ci: build vet fmt-check test race conformance conformance-remote conformance-faults conformance-durability bench-smoke bench-check fuzz-smoke serve-smoke cmd-smoke
