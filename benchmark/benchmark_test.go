package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/shard"
	"repro/internal/transport"
	"repro/internal/wrapper"
)

func TestHighestPercentile(t *testing.T) {
	candidates := []float64{0.50, 0.90, 0.95, 0.99}
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{3000, 0.99, true}, // 30 samples beyond p99
		{1000, 0.99, true}, // exactly 10
		{999, 0.95, true},
		{200, 0.95, true},
		{150, 0.90, true}, // p95 would leave 7.5
		{25, 0.50, true},
		{15, 0, false}, // not even the median has 10 beyond it
	} {
		got, ok := highestPercentile(tc.n, candidates, 10)
		if ok != tc.ok || got != tc.want {
			t.Errorf("n=%d: got p%v ok=%v, want p%v ok=%v", tc.n, got*100, ok, tc.want*100, tc.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var lat []time.Duration
	for i := 1; i <= 100; i++ {
		lat = append(lat, time.Duration(i))
	}
	for q, want := range map[float64]time.Duration{0.50: 50, 0.95: 95, 0.99: 99, 1: 100} {
		if got := percentile(lat, q); got != want {
			t.Errorf("p%v = %d, want %d", q*100, got, want)
		}
	}
}

// TestSelfTimes covers the two shapes real traces have that a naive
// "duration minus sum of children" gets wrong: children that overlap
// (parallel PruneEmpty probes) and a child that outlives its parent (a
// short-circuited fan-out).
func TestSelfTimes(t *testing.T) {
	sp := func(l layer, a, b int) span {
		return span{layer: l, start: time.Duration(a), end: time.Duration(b)}
	}
	t.Run("overlapping children", func(t *testing.T) {
		spans := []span{
			sp(layerServe, 0, 100),
			sp(layerSQL, 10, 40), sp(layerSQL, 30, 60), // union 50
			sp(layerSQL, 70, 80),
		}
		got := selfTimes(layerClient, 0, 110, spans)
		want := [numLayers]time.Duration{layerClient: 10, layerServe: 40, layerSQL: 60}
		if got != want {
			t.Errorf("got %v, want %v", got, want)
		}
	})
	t.Run("child outlives parent", func(t *testing.T) {
		spans := []span{
			sp(layerServe, 0, 100),
			sp(layerShard, 10, 50),
			sp(layerTransport, 40, 70),
			sp(layerSQL, 45, 55),
		}
		got := selfTimes(layerClient, 0, 100, spans)
		want := [numLayers]time.Duration{layerServe: 40, layerShard: 30, layerTransport: 20, layerSQL: 10}
		if got != want {
			t.Errorf("got %v, want %v", got, want)
		}
	})
	t.Run("clipped to the window and summing to it", func(t *testing.T) {
		spans := []span{sp(layerServe, -5, 30), sp(layerSQL, 20, 90)}
		got := selfTimes(layerClient, 0, 50, spans)
		var sum time.Duration
		for _, d := range got {
			sum += d
		}
		if sum != 50 || got[layerSQL] != 30 || got[layerServe] != 20 {
			t.Errorf("got %v (sum %d)", got, sum)
		}
	})
}

func TestParentOf(t *testing.T) {
	spans := []span{
		{id: 0, layer: layerClient, start: 0, end: 100},
		{id: 1, layer: layerServe, start: 5, end: 95},
		{id: 2, layer: layerShard, start: 10, end: 50},
		{id: 3, layer: layerTransport, start: 20, end: 60},
		{id: 4, layer: layerSQL, start: 25, end: 30},
		{id: 5, layer: layerTransport, start: 55, end: 70}, // straggler: its shard span is over
	}
	for id, want := range map[int]int{0: -1, 1: 0, 2: 1, 3: 2, 4: 3, 5: 1} {
		if got := parentOf(spans[id], spans); got != want {
			t.Errorf("parent of span %d = %d, want %d", id, got, want)
		}
	}
}

func TestOpListsFollowTheSeed(t *testing.T) {
	pool := queryPool(buildDataset())
	if len(pool) < distinctLocal+warmupOps+readinessQueries {
		t.Fatalf("query pool has %d entries, too few for the workloads", len(pool))
	}
	for _, w := range workloads {
		_, a := w.gen(pool, 7, 15)
		_, b := w.gen(pool, 7, 15)
		_, c := w.gen(pool, 8, 15)
		if len(a) != w.opCount(15) || len(a)%seedWindow != 0 || len(a) != len(c) {
			t.Errorf("%s: op lists of %d and %d ops, want %d (whole windows)", w.name, len(a), len(c), w.opCount(15))
		}
		if opListHash(pool, a) != opListHash(pool, b) {
			t.Errorf("%s: same seed gave different op lists", w.name)
		}
		if opListHash(pool, a) == opListHash(pool, c) {
			t.Errorf("%s: different seeds gave the same op list", w.name)
		}
		// The seed orders the ops; it does not choose them or their number.
		count := map[op]int{}
		for i := range a {
			count[a[i]]++
			count[c[i]]--
		}
		for o, n := range count {
			if n != 0 {
				t.Fatalf("%s: seeds 7 and 8 disagree on op %+v", w.name, o)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("got %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("got %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0]
	if q1, q2, q3 = quartiles([]float64{1, 5}); q1 != 0 || q2 != 3 || q3 != 6 {
		t.Errorf("got %v %v %v", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		buf, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	manifest := write("BENCHMARK.json", manifestFile{EndToEnd: []manifestMetric{
		{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
		{Name: "search_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	}})
	runs := func(failed int, ops, p50 []float64) []*runResult {
		var out []*runResult
		for i := range ops {
			out = append(out, &runResult{
				Workload: "local_zipf", Ops: 1000, Attempted: 1000, Failed: failed, Correct: failed == 0,
				EndToEnd: metricSet{"ops_per_s": {Value: ops[i], Unit: "1/s"}, "search_p50_ms": {Value: p50[i], Unit: "ms"}},
			})
		}
		return out
	}
	base := write("base.json", runs(0, []float64{100, 101, 99, 100}, []float64{2.0, 2.02, 1.98, 2.0}))
	same := runs(0, []float64{100, 99, 101, 100}, []float64{2.0, 2.0, 2.02, 1.99})
	otherWorkload := runs(0, []float64{100}, []float64{2.0})
	otherWorkload[0].Workload = "fleet_mixed"
	noP50 := runs(0, []float64{100}, []float64{2.0})
	delete(noP50[0].EndToEnd, "search_p50_ms")
	otherOps := runs(0, []float64{100}, []float64{2.0})
	otherOps[0].Ops = 500
	for _, tc := range []struct {
		name     string
		runs     []*runResult
		exit     int
		verdicts []string // ops_per_s, search_p50_ms, error_rate
	}{
		{"unchanged", same, 0, []string{verdictOK, verdictOK, verdictOK}},
		{"slower", runs(0, []float64{80, 81, 79, 80}, []float64{2.5, 2.5, 2.52, 2.49}), 1,
			[]string{verdictRegressed, verdictRegressed, verdictOK}},
		{"faster is not a regression", runs(0, []float64{150, 151, 149, 150}, []float64{1.0, 1.0, 1.02, 0.99}), 0,
			[]string{verdictOK, verdictOK, verdictOK}},
		{"too noisy to tell", runs(0, []float64{60, 100, 140, 80}, []float64{2.0, 2.0, 2.02, 1.99}), 0,
			[]string{verdictUnresolved, verdictOK, verdictOK}},
		{"more errors", runs(3, []float64{100, 99, 101, 100}, []float64{2.0, 2.0, 2.02, 1.99}), 1,
			[]string{verdictOK, verdictOK, verdictRegressed}},
		// Not comparable: exit 2 and no verdict rows, never a silent pass.
		{"workload dropped on the new side", otherWorkload, 2, nil},
		{"workload only on the new side", append(otherWorkload, same...), 2, nil},
		{"metric missing from a run", noP50, 2, nil},
		{"different op list", otherOps, 2, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			exit := compareFiles(&out, manifest, base, write("new.json", tc.runs))
			if exit != tc.exit {
				t.Errorf("exit %d, want %d\n%s", exit, tc.exit, out.String())
			}
			if tc.exit == 2 {
				if !strings.Contains(out.String(), "compare: ") {
					t.Errorf("exit 2 without a message:\n%s", out.String())
				}
				return
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")[1:]
			if len(lines) != len(tc.verdicts) {
				t.Fatalf("%d rows, want %d\n%s", len(lines), len(tc.verdicts), out.String())
			}
			for i, want := range tc.verdicts {
				if f := strings.Fields(lines[i]); f[len(f)-1] != want {
					t.Errorf("row %q: want verdict %s", lines[i], want)
				}
			}
		})
	}
}

// TestManifestMatchesProgram keeps BENCHMARK.json and the metric and
// workload tables of the program in step.
func TestManifestMatchesProgram(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		manifestFile
		Workloads []struct{ Name, Why string } `json:"workloads"`
	}
	if err := json.Unmarshal(buf, &man); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []manifestMetric) {
		if len(defs) != len(got) {
			t.Errorf("%s: %d metrics in the program, %d in BENCHMARK.json", kind, len(defs), len(got))
			return
		}
		for i, d := range defs {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: program has %+v, BENCHMARK.json has %+v", kind, i, d, g)
			}
		}
	}
	check("end_to_end", endToEnd, man.EndToEnd)
	check("per_layer", perLayer, man.PerLayer)
	for _, m := range man.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(man.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if man.Workloads[i].Name != w.name || man.Workloads[i].Why != w.why {
			t.Errorf("workload %d: program has %q (%q), BENCHMARK.json has %+v", i, w.name, w.why, man.Workloads[i])
		}
	}
}

// TestDecoratorsForwardCapabilities checks by reflection that each
// decorator has exactly the optional faces of the value it wraps that its
// caller discovers by type assertion — a missing face pushes execution
// onto a fallback path, an extra one opens a path the plain system never
// takes.
func TestDecoratorsForwardCapabilities(t *testing.T) {
	iface := func(p any) reflect.Type { return reflect.TypeOf(p).Elem() }
	type closer interface{ Close() error }
	faces := map[string]reflect.Type{
		"ContextExecutor":       iface((*wrapper.ContextExecutor)(nil)),
		"ContextExistsExecutor": iface((*wrapper.ContextExistsExecutor)(nil)),
		"StreamExecutor":        iface((*wrapper.StreamExecutor)(nil)),
		"ContextStreamExecutor": iface((*wrapper.ContextStreamExecutor)(nil)),
		"ExistsExecutor":        iface((*wrapper.ExistsExecutor)(nil)),
		"ConcurrentExecutor":    iface((*wrapper.ConcurrentExecutor)(nil)),
		"StatisticsProvider":    iface((*wrapper.StatisticsProvider)(nil)),
		"Inserter":              iface((*wrapper.Inserter)(nil)),
		"TableVersioner":        iface((*wrapper.TableVersioner)(nil)),
		"scorer":                iface((*scorer)(nil)),
		"Closer":                iface((*closer)(nil)),
	}
	same := func(decorator, inner any, names ...string) {
		t.Helper()
		for _, name := range names {
			d := reflect.TypeOf(decorator).Implements(faces[name])
			i := reflect.TypeOf(inner).Implements(faces[name])
			if d != i {
				t.Errorf("%T implements %s: %v, but %T: %v", decorator, name, d, inner, i)
			}
		}
	}
	// shard discovers these on a Backend (NewFromBackends, fetchResult,
	// backendExists, TableVersion, Close).
	same(&tracedBackend{}, &transport.Client{}, "ContextExecutor", "ContextExistsExecutor", "StreamExecutor",
		"ContextStreamExecutor", "ExistsExecutor", "ConcurrentExecutor", "StatisticsProvider", "Inserter",
		"TableVersioner", "scorer", "Closer")
	// transport.Server discovers these on its backend (NewServer, handleQuery).
	same(&tracedExecutor{}, &wrapper.FullAccessSource{}, "StreamExecutor", "ExistsExecutor",
		"StatisticsProvider", "Inserter", "scorer", "ContextExecutor", "ContextExistsExecutor", "ContextStreamExecutor")
	// core.Engine discovers these on its source. (The context faces are the
	// exception: tracedSource always has them and dispatches through the
	// same wrapper.ExecuteContext helpers the engine itself would use.)
	for _, inner := range []any{&wrapper.FullAccessSource{}, &shard.ShardedSource{}} {
		same(&tracedSource{}, inner, "ExistsExecutor", "ConcurrentExecutor", "StatisticsProvider", "Inserter", "TableVersioner")
	}
}

// TestTracingKeepsExecutionPaths replays the same ops on a plain and on a
// fully decorated system and requires identical answers and identical
// layer counters: tracing must not move execution onto another path.
func TestTracingKeepsExecutionPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("replays two fleets; run without -short")
	}
	pool := queryPool(buildDataset())
	for _, name := range []string{"local_distinct", "fleet_mixed"} {
		t.Run(name, func(t *testing.T) {
			spec, _ := findWorkload(name)
			cfg := runConfig{spec: spec, seed: 1, scale: 10, workRoot: t.TempDir()}
			warm, timed := spec.gen(pool, cfg.seed, 15)
			warm, ops := warm[:5], timed[:30]

			plain, err := runReplay(cfg, pool, warm, ops, hooks{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer plain.close()
			rec := newRecorder()
			traced, err := runReplay(cfg, pool, warm, ops, tracingHooks(rec, spec.deploy), rec)
			if err != nil {
				t.Fatal(err)
			}
			defer traced.close()

			if n := countFailed(plain.results) + countFailed(traced.results); n > 0 {
				t.Fatalf("%d ops failed: %v %v", n, plain.lc.failures, traced.lc.failures)
			}
			for q, want := range plain.lc.first {
				if diff := answerDiff(want, traced.lc.first[q]); diff != "" {
					t.Errorf("query %q: plain vs traced: %s", pool[q], diff)
				}
			}
			if diff := pathDiff(statsDelta(plain), statsDelta(traced), sqlDelta(plain), sqlDelta(traced)); diff != "" {
				t.Errorf("tracing moved execution onto another path: %s", diff)
			}
			if rec.count() == 0 {
				t.Error("the traced replay recorded no spans")
			}
		})
	}
}

// TestBenchmarkSmoke runs all four workloads end to end at a fraction of
// their op counts — set-up, warm-up, timed closed loop, insert probe,
// verification against the oracles, traced pass — and checks the
// predicted separation of the layers.
func TestBenchmarkSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads end to end; run without -short")
	}
	dir := t.TempDir()
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			res, err := runWorkload(runConfig{
				spec: spec, seed: 1, seconds: 0.5, trace: true, setups: 1, scale: 40,
				workRoot: filepath.Join(dir, "work"), traceOut: filepath.Join(dir, spec.name+".jsonl"),
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v failed=%d attempted=%d: %v", res.Correct, res.Failed, res.Attempted, res.Failures)
			}
			for _, d := range endToEnd {
				if v := res.EndToEnd[d.name].Value; v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want a positive number", d.name, v)
				}
			}
			if len(res.PerLayer) != len(perLayer) {
				t.Errorf("%d per-layer metrics reported, want %d", len(res.PerLayer), len(perLayer))
			}
			pl := func(name string) float64 { return res.PerLayer[name].Value }
			fleet := spec.deploy == deployFleet
			if got := pl("shard.self_us")+pl("transport.self_us") > 0; got != fleet {
				t.Errorf("shard+transport self time present = %v on a %s deployment", got, spec.deploy)
			}
			if got := pl("wal.fsyncs_per_append") > 0; got != (spec.name == "fleet_mixed") {
				t.Errorf("wal activity in the timed phase = %v on %s", got, spec.name)
			}
			// (At 7 traced ops on cold caches the residual and overhead
			// checks mean nothing; full runs report them.)
			if fi, err := os.Stat(filepath.Join(dir, spec.name+".jsonl")); err != nil || fi.Size() == 0 {
				t.Errorf("trace file missing or empty: %v", err)
			}
		})
	}
}

// TestFleetMixedTwoClients reproduces the defect that keeps fleet_mixed at
// one client (README, known limits): with two, a shard server deadlocks
// between a streaming read and an insert, usually within a run or two. It
// fails while the defect exists and is therefore opt-in:
//
//	BENCH_STALL=1 go test -run TestFleetMixedTwoClients .
func TestFleetMixedTwoClients(t *testing.T) {
	if os.Getenv("BENCH_STALL") == "" {
		t.Skip("opt-in: set BENCH_STALL=1")
	}
	spec, _ := findWorkload("fleet_mixed")
	spec.clients = 2
	for seed := int64(1); seed <= 3; seed++ {
		done := make(chan *runResult, 1)
		go func() {
			res, err := runWorkload(runConfig{spec: spec, seed: seed, seconds: 15, setups: 1, workRoot: t.TempDir()})
			if err != nil {
				t.Error(err)
			}
			done <- res
		}()
		select {
		case res := <-done:
			if res != nil && res.Failed > 0 {
				t.Fatalf("seed %d: %d of %d ops failed: %v", seed, res.Failed, res.Attempted, res.Failures)
			}
		case <-time.After(runLimit):
			// The wedged shard server blocks its own Stats() and Close(), so
			// the run's goroutine can only be abandoned.
			t.Fatalf("seed %d: the run did not finish within %v: the fleet is stalled", seed, runLimit)
		}
	}
}
