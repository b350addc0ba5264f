package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"

	quest "repro"
	"repro/internal/eval"
)

// Fixed inputs of every workload. The dataset, the query pool and each
// workload's base op sequence never depend on -seed: the seed only reorders
// ops inside small windows of the base sequence, and a run serves its whole
// op list exactly once, so the two sides of a later comparison — and two
// seeds of one side — serve the same operations and differ in their order
// and read/write interleave.
const (
	datasetSeed  = 42
	datasetScale = 32
	poolSeed     = 42
	poolPerTpl   = 800

	distinctLocal = 1200 // > query cache (256): a cyclic pass never hits
	distinctFleet = 320  // > query cache, and more than a 15 s fleet run serves
	zipfQueries   = 1023
	zipfS         = 1.01
	warmupOps     = 100
	warmupFleet   = 30   // distinct fleet searches cost ~80 ms each
	insertShare   = 0.20 // fleet_mixed write share

	// seedWindow is the granularity of the seeded shuffle: ops are permuted
	// inside consecutive windows of this many base ops, and an op list is a
	// whole number of windows, so every seed serves the same multiset of
	// ops — drawing the ops themselves from the seed made the heavy-tailed
	// latency mix, and with it every metric, vary by 10-15% between seeds.
	seedWindow = 16

	insertIDBase = 10_000_000 // movie ids of benchmark-inserted rows
)

// opKind tags one operation of a workload's op list.
type opKind uint8

const (
	opSearch opKind = iota
	opInsert
)

// op is one client operation: a keyword search over pool[query], or a
// single-row insert (its row id is assigned when the op is issued).
type op struct {
	kind  opKind
	query int
}

// deployment names the system shape a workload runs against.
type deployment string

const (
	deployLocal deployment = "local"
	deployFleet deployment = "fleet"
)

// workloadSpec is one of the four benchmark workloads.
type workloadSpec struct {
	name    string
	deploy  deployment
	clients int
	why     string
	// rate is the throughput, in ops/s, the baseline commit reached on the
	// baseline box. It only sizes the op list: -seconds x rate ops, so that
	// the timed phase of the baseline lasts about -seconds. It is a fixed
	// part of the workload's definition and is not re-tuned when the system
	// gets faster or slower: that would change the inputs.
	rate float64
	// base builds the fixed warm-up and the first n ops of the base sequence.
	base func(pool []*eval.Query, n int) (warm, timed []op)
	// traceOps is how many timed ops the traced pass replays.
	traceOps int
}

var workloads = []workloadSpec{
	{
		name: "local_distinct", deploy: deployLocal, clients: 2, rate: 300, traceOps: 300,
		why:  "single-process engine, distinct queries beyond the query cache: core/sql do all the work, shard/transport/wal idle",
		base: func(pool []*eval.Query, n int) ([]op, []op) { return distinctOps(pool, distinctLocal, warmupOps, n) },
	},
	{
		name: "local_zipf", deploy: deployLocal, clients: 2, rate: 700, traceOps: 300,
		why:  "single-process engine, Zipf(1.01) over 1023 queries: hot set fits the query cache, serve and top-SQL execute dominate",
		base: func(pool []*eval.Query, n int) ([]op, []op) { return zipfOps(n, 0) },
	},
	{
		name: "fleet_distinct", deploy: deployFleet, clients: 2, rate: 14, traceOps: 100,
		why:  "3 shards x 2 replicas over loopback TCP with WALs, distinct queries: fragment shipping through shard/transport and shard-side SQL dominate",
		base: func(pool []*eval.Query, n int) ([]op, []op) { return distinctOps(pool, distinctFleet, warmupFleet, n) },
	},
	{
		name: "fleet_mixed", deploy: deployFleet, clients: 1, rate: 34, traceOps: 150,
		why:  "same fleet, 80% Zipf searches / 20% single-row inserts: replicated WAL writes interleave with cached reads",
		base: func(pool []*eval.Query, n int) ([]op, []op) { return zipfOps(n, insertShare) },
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// buildDataset builds the fixed IMDB instance every deployment serves.
func buildDataset() *quest.Database {
	return quest.BuildIMDB(quest.DatasetConfig{Seed: datasetSeed, Scale: datasetScale})
}

// queryPool generates the de-duplicated query pool with its gold answers
// and interleaves the templates with a fixed shuffle, so that every prefix
// of the pool mixes all query shapes.
func queryPool(db *quest.Database) []*eval.Query {
	w := eval.NewGenerator(db, poolSeed).Generate("imdb", eval.IMDBTemplates(), poolPerTpl)
	seen := make(map[string]bool, len(w.Queries))
	var pool []*eval.Query
	for _, q := range w.Queries {
		if s := q.String(); !seen[s] {
			seen[s] = true
			pool = append(pool, q)
		}
	}
	rand.New(rand.NewSource(poolSeed)).Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

// opCount is the length of the op list for a timed phase meant to last
// `seconds` on the baseline: rate x seconds, in whole seed windows.
func (w workloadSpec) opCount(seconds float64) int {
	windows := int(math.Round(w.rate * seconds / seedWindow))
	return max(windows, 1) * seedWindow
}

// gen builds the warm-up and the timed op list for a seed: the first
// opCount(seconds) ops of the fixed base sequence, shuffled inside windows
// of seedWindow ops.
func (w workloadSpec) gen(pool []*eval.Query, seed int64, seconds float64) (warm, timed []op) {
	warm, timed = w.base(pool, w.opCount(seconds))
	r := rand.New(rand.NewSource(seed))
	for lo := 0; lo < len(timed); lo += seedWindow {
		win := timed[lo : lo+seedWindow]
		r.Shuffle(len(win), func(i, j int) { win[i], win[j] = win[j], win[i] })
	}
	return warm, timed
}

// distinctOps is n ops cycling over the first `distinct` pool queries. The
// warm-up searches come right after them in the pool, disjoint from the
// timed set.
func distinctOps(pool []*eval.Query, distinct, nWarm, n int) (warm, timed []op) {
	if distinct+nWarm > len(pool) {
		distinct = len(pool) - nWarm
	}
	for i := 0; i < nWarm; i++ {
		warm = append(warm, op{kind: opSearch, query: distinct + i})
	}
	timed = make([]op, n)
	for i := range timed {
		timed[i] = op{kind: opSearch, query: i % distinct}
	}
	return warm, timed
}

// zipfOps draws n ops from the head of a fixed stream: searches Zipf-distributed over
// the first zipfQueries pool entries (rank i is pool[i]) with an
// insertShare fraction of inserts interleaved. The warm-up is the head of
// the same stream, disjoint from the timed ops.
func zipfOps(n int, insertShare float64) (warm, timed []op) {
	r := rand.New(rand.NewSource(poolSeed))
	z := rand.NewZipf(r, zipfS, 1, zipfQueries-1)
	draw := func() op {
		if insertShare > 0 && r.Float64() < insertShare {
			return op{kind: opInsert}
		}
		return op{kind: opSearch, query: int(z.Uint64())}
	}
	for i := 0; i < warmupOps; i++ {
		warm = append(warm, draw())
	}
	timed = make([]op, n)
	for i := range timed {
		timed[i] = draw()
	}
	return warm, timed
}

// opListHash fingerprints an op list: same seed, same hash.
func opListHash(pool []*eval.Query, ops []op) string {
	h := sha256.New()
	for _, o := range ops {
		if o.kind == opInsert {
			fmt.Fprint(h, "I\n")
			continue
		}
		fmt.Fprintf(h, "S %s\n", strings.Join(pool[o.query].Keywords, " "))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
