package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/eval"
)

// setupRepeats is how many set-ups are behind setup_s's median.
const setupRepeats = 3

// runConfig is one invocation's input.
type runConfig struct {
	spec     workloadSpec
	seed     int64
	seconds  float64 // sizes the op list: spec.rate x seconds ops
	trace    bool
	setups   int    // set-ups behind setup_s (setupRepeats; tests use 1)
	scale    int    // divides warm-up and trace op counts (tests)
	workRoot string // directory for WAL dirs, inside the checkout
	traceOut string // trace.jsonl path ("" = do not write)
}

// runResult is everything one workload run measured.
type runResult struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	OpHash    string    `json:"op_list_hash"`
	Ops       int       `json:"ops"` // length of the timed op list
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Correct   bool      `json:"correct"`
	EndToEnd  metricSet `json:"end_to_end"`
	PerLayer  metricSet `json:"per_layer,omitempty"`
	// Latency holds the client-observed percentiles of the timed phase.
	// They are reported with every run but carry no bound (see README).
	Latency  map[string]float64 `json:"latency_ms"`
	Samples  map[string]int     `json:"samples"`
	Failures []string           `json:"failures,omitempty"`

	waterfall string // printable, traced runs only
	tail      string // highest search percentile the sample supports
}

// tailCandidates are the percentiles a report may quote; the highest one
// with at least ten samples beyond it is printed with every run.
var tailCandidates = []float64{0.50, 0.90, 0.95, 0.99, 0.999}

// readinessQueries are served once as the last step of every set-up, so
// that lazily built state (per-table statistics, plan and emission caches,
// replica catalogs) counts as set-up time.
const readinessQueries = 8

func runWorkload(cfg runConfig) (*runResult, error) {
	if cfg.scale < 1 {
		cfg.scale = 1
	}
	if err := os.MkdirAll(cfg.workRoot, 0o755); err != nil {
		return nil, err
	}
	// The pool is generated from its own copy of the dataset, dropped again
	// before anything is measured: the whole system shares this process's
	// heap, and what the harness keeps alive changes how often the
	// collector runs under the system's allocation rate.
	pool, initialMovies := buildPool()
	warm, timed := cfg.spec.gen(pool, cfg.seed, cfg.seconds)
	warm = warm[:len(warm)/cfg.scale]

	res := &runResult{
		Workload: cfg.spec.name,
		Seed:     cfg.seed,
		OpHash:   opListHash(pool, timed),
		Ops:      len(timed),
		EndToEnd: newMetricSet(endToEnd),
		Samples:  map[string]int{},
	}

	// Set-up: dataset build + engine/fleet open + HTTP listener + the
	// readiness searches. The first system built is the one measured; the
	// repetitions behind setup_s's median run after it is done.
	var nextInsert atomic.Int64
	setUp := func() (*system, *loadClient, float64, error) {
		t0 := time.Now()
		sys, err := openSystem(cfg.spec.deploy, buildDataset(), cfg.workRoot, hooks{})
		if err != nil {
			return nil, nil, 0, fmt.Errorf("set-up: %w", err)
		}
		lc := newLoadClient(sys, pool, cfg.spec.clients, &nextInsert)
		ready := lc.runSequential(readinessOps(pool), nil)
		took := time.Since(t0).Seconds()
		if n := countFailed(ready); n > 0 {
			lc.closeIdle()
			sys.close()
			return nil, nil, 0, fmt.Errorf("set-up: %d readiness searches failed: %v", n, lc.failures)
		}
		return sys, lc, took, nil
	}
	sys, lc, took, err := setUp()
	if err != nil {
		return nil, err
	}
	closeSystem := sync.OnceFunc(func() {
		lc.closeIdle()
		sys.close()
	})
	defer closeSystem()
	setupTimes := []float64{took}

	warmRes := lc.runSequential(warm, nil)
	sys.quiesce()

	// Timed phase: closed loop over the fixed op list, once.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	st0 := sys.stats()
	bytes0 := lc.respBytes.Load()
	timedRes, wall := lc.runClosedLoop(timed, cfg.spec.clients)
	sys.quiesce()
	st1 := sys.stats()
	runtime.ReadMemStats(&m1)
	respBytes := lc.respBytes.Load() - bytes0

	// Verification (outside every timed window).
	orc, err := newOracle(cfg.spec.deploy, buildDataset())
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	wrong, err := orc.verifySearches(pool, lc.first, func(q int, diff string) {
		lc.fail("search %q: oracle vs served: %s", pool[q], diff)
	})
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	insertProblems := verifyInserts(sys, lc.http, initialMovies, lc.acked)
	lc.failures = append(lc.failures, insertProblems...)
	closeSystem()

	for len(setupTimes) < cfg.setups {
		s, c, took, err := setUp()
		if err != nil {
			return nil, err
		}
		c.closeIdle()
		s.close()
		setupTimes = append(setupTimes, took)
	}
	res.EndToEnd.set("setup_s", median(setupTimes))
	res.Samples["setup_s"] = len(setupTimes)

	// An op is good when it succeeded and its answer was right: an answer
	// the oracle rejects is no work done, whichever repeat delivered it.
	bad := make(map[int]bool, len(wrong))
	for _, q := range wrong {
		bad[q] = true
	}
	for _, rs := range [][]opResult{warmRes, timedRes} {
		for i := range rs {
			if rs[i].kind == opSearch && bad[rs[i].query] {
				rs[i].ok = false
			}
		}
	}
	all := append(append([]opResult(nil), warmRes...), timedRes...)
	res.Attempted = len(all)
	res.Failed = countFailed(all)
	res.Correct = res.Failed == 0 && len(insertProblems) == 0
	res.Failures = lc.failures

	good := len(timedRes) - countFailed(timedRes)
	searches := sortedLatencies(timedRes, opSearch)
	inserts := sortedLatencies(timedRes, opInsert)
	res.EndToEnd.set("ops_per_s", float64(good)/wall.Seconds())
	res.Latency = map[string]float64{
		"search_p50_ms": ms(percentile(searches, 0.50)),
		"search_p95_ms": ms(percentile(searches, 0.95)),
		"search_p99_ms": ms(percentile(searches, 0.99)),
		"insert_p50_ms": ms(percentile(inserts, 0.50)),
		"insert_p95_ms": ms(percentile(inserts, 0.95)),
	}
	res.EndToEnd.set("alloc_kb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(len(timedRes)))
	res.EndToEnd.set("mrr", meanReciprocalRank(pool, lc.first, timedRes))
	res.Samples["ops_per_s"] = good
	res.Samples["search"] = len(searches)
	res.Samples["insert"] = len(inserts)
	res.Samples["alloc_kb_per_op"] = len(timedRes)
	res.Samples["mrr"] = len(searches)
	if q, ok := highestPercentile(len(searches), tailCandidates, 10); ok {
		res.tail = fmt.Sprintf("p%g = %.4f ms", q*100, ms(percentile(searches, q)))
	}

	if cfg.trace {
		res.PerLayer = newMetricSet(perLayer)
		for name, v := range res.Latency {
			res.PerLayer.set("client."+name, v)
		}
		res.PerLayer.set("client.error_rate", ratio(float64(res.Failed), float64(res.Attempted)))
		statsMetrics(res.PerLayer, st0, st1, timedRes, respBytes)
		n := cfg.spec.traceOps / cfg.scale
		if n > len(timed) {
			n = len(timed)
		}
		if err := tracedPass(cfg, pool, warm, timed[:n], res); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
	}
	return res, nil
}

func buildPool() (pool []*eval.Query, initialMovies int) {
	db := buildDataset()
	return queryPool(db), db.Table("movie").Len()
}

func readinessOps(pool []*eval.Query) []op {
	ops := make([]op, readinessQueries)
	for i := range ops {
		ops[i] = op{kind: opSearch, query: len(pool) - 1 - i}
	}
	return ops
}

func countFailed(res []opResult) int {
	n := 0
	for _, r := range res {
		if !r.ok {
			n++
		}
	}
	return n
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
