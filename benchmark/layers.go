package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"time"

	quest "repro"
	"repro/internal/eval"
	"repro/internal/relational"
	"repro/internal/sql"
	"repro/internal/wal"
)

// statsMetrics fills the per-layer metrics that are deltas of the layers'
// own public counters over the untraced timed phase.
func statsMetrics(m metricSet, a, b layerStats, timed []opResult, respBytes int64) {
	reqs := float64(len(timed))
	var searches, inserts float64
	for _, r := range timed {
		if r.kind == opSearch {
			searches++
		} else {
			inserts++
		}
	}
	d := func(after, before uint64) float64 { return float64(after - before) }

	m.set("serve.queue_wait_us_per_req", ratio(d(b.serve.QueueWaitNs, a.serve.QueueWaitNs)/1e3, reqs))
	m.set("serve.exec_us_per_req", ratio(d(b.serve.ExecNs, a.serve.ExecNs)/1e3, reqs))
	m.set("serve.coalesced_ratio", ratio(d(b.serve.Coalesced, a.serve.Coalesced), searches))
	m.set("serve.resp_bytes_per_req", ratio(float64(respBytes), searches))
	m.set("serve.rows_per_req", ratio(d(b.serve.RowsReturned, a.serve.RowsReturned), searches))
	m.set("serve.rejected", d(b.serve.RateLimited, a.serve.RateLimited)+d(b.serve.Shed, a.serve.Shed))

	hits, misses := d(b.sql.PlanCacheHits, a.sql.PlanCacheHits), d(b.sql.PlanCacheMisses, a.sql.PlanCacheMisses)
	m.set("sql.plan_cache_hit_ratio", ratio(hits, hits+misses))
	m.set("sql.full_scans_per_req", ratio(d(b.sql.FullScans, a.sql.FullScans), reqs))
	m.set("sql.index_scans_per_req", ratio(d(b.sql.IndexScans, a.sql.IndexScans)+d(b.sql.RangeScans, a.sql.RangeScans)+
		d(b.sql.InScans, a.sql.InScans)+d(b.sql.MatchScans, a.sql.MatchScans), reqs))

	m.set("relational.stats_full_rebuilds", float64(b.maint.StatsFullRebuilds+b.maint.StatsSampledRebuilds-
		a.maint.StatsFullRebuilds-a.maint.StatsSampledRebuilds))
	m.set("relational.stats_incremental_per_insert",
		ratio(float64(b.maint.StatsIncrementalUpdates-a.maint.StatsIncrementalUpdates), inserts))
	m.set("relational.sorted_index_rebuilds", float64(b.maint.SortedIndexRebuilds-a.maint.SortedIndexRebuilds))

	frags := d(b.shard.FragmentQueries, a.shard.FragmentQueries)
	probes := d(b.shard.ExistsProbes, a.shard.ExistsProbes)
	pruned := d(b.shard.PrunedProbes, a.shard.PrunedProbes)
	m.set("shard.fragments_per_req", ratio(frags, reqs))
	m.set("shard.exists_probes_per_req", ratio(probes, reqs))
	m.set("shard.rows_shipped_per_req", ratio(d(b.shard.RowsShipped, a.shard.RowsShipped), reqs))
	m.set("shard.pruned_ratio", ratio(pruned, pruned+frags+probes))

	m.set("transport.ops_per_req", ratio(d(b.clients.Operations, a.clients.Operations), reqs))
	m.set("transport.bytes_per_req", ratio(d(b.clients.BytesReceived, a.clients.BytesReceived), reqs))
	m.set("transport.columnar_frames_per_req", ratio(d(b.clients.ColumnarFrames, a.clients.ColumnarFrames), reqs))
	m.set("transport.retries", d(b.clients.Retries, a.clients.Retries))
	m.set("transport.hedges", d(b.clients.Hedges, a.clients.Hedges))
	m.set("transport.dials", d(b.clients.Dials, a.clients.Dials))
	m.set("transport.repl_acks_per_insert",
		ratio(d(b.clients.ReplicationAcks, a.clients.ReplicationAcks), d(b.clients.Inserts, a.clients.Inserts)))

	appends := d(b.wal.Appends, a.wal.Appends)
	m.set("wal.commit_wait_us_per_append", ratio(d(b.wal.CommitWaitNs, a.wal.CommitWaitNs)/1e3, appends))
	m.set("wal.fsyncs_per_append", ratio(d(b.wal.Fsyncs, a.wal.Fsyncs), appends))
	m.set("wal.bytes_per_append", ratio(d(b.wal.BytesAppended, a.wal.BytesAppended), appends))
	if appends > 0 {
		m.set("wal.batch_max", float64(b.wal.BatchMax))
	}
}

// replay is one sequential pass of the traced op list over a fresh system.
type replay struct {
	sys     *system
	lc      *loadClient
	results []opResult
	windows [][2]time.Duration // client span per op, recorder time (traced only)
	before  layerStats
	after   layerStats
}

// runReplay opens a system with the given hooks, warms it up and replays
// ops with one sequential client, waiting out straggler probes between
// ops. With a recorder it also records the client-layer span of each op.
func runReplay(cfg runConfig, pool []*eval.Query, warm, ops []op, h hooks, rec *recorder) (*replay, error) {
	sys, err := openSystem(cfg.spec.deploy, buildDataset(), cfg.workRoot, h)
	if err != nil {
		return nil, err
	}
	var nextInsert atomic.Int64
	rp := &replay{sys: sys, lc: newLoadClient(sys, pool, 1, &nextInsert)}
	rp.lc.runSequential(readinessOps(pool), sys.quiesce)
	rp.lc.runSequential(warm, sys.quiesce)
	rp.before = sys.stats()
	for i, o := range ops {
		var start time.Duration
		if rec != nil {
			rec.req.Store(int64(i + 1))
			start = rec.now()
		}
		r := rp.lc.do(o)
		if rec != nil {
			name := "search"
			if o.kind == opInsert {
				name = "insert"
			}
			rec.addSpan(span{layer: layerClient, name: name, start: start, end: start + r.latency, target: -1})
			rp.windows = append(rp.windows, [2]time.Duration{start, start + r.latency})
		}
		rp.results = append(rp.results, r)
		sys.quiesce()
	}
	if rec != nil {
		rec.req.Store(0)
	}
	rp.after = sys.stats()
	return rp, nil
}

// statsDelta is the part of a replay's counter deltas that is determined
// by the ops alone: a plain and a traced replay of the same ops must agree
// on it, or tracing moved execution onto another path. Left out: timing
// sums, and everything a short-circuited existence fan-out or the engine's
// parallel PruneEmpty probing makes timing-dependent — probes issued before
// the first witness arrived, and with them every sql.Stats scan and plan
// count (two plain 300-op replays differ by a few of those).
func statsDelta(rp *replay) map[string]uint64 {
	a, b := rp.before, rp.after
	return map[string]uint64{
		"serve.Searches":         b.serve.Searches - a.serve.Searches,
		"serve.Inserts":          b.serve.Inserts - a.serve.Inserts,
		"serve.RowsReturned":     b.serve.RowsReturned - a.serve.RowsReturned,
		"serve.Errors":           b.serve.Errors - a.serve.Errors,
		"shard.Pushdown":         b.shard.PushdownQueries - a.shard.PushdownQueries,
		"shard.AggPushdown":      b.shard.AggPushdownQueries - a.shard.AggPushdownQueries,
		"shard.Gather":           b.shard.GatherQueries - a.shard.GatherQueries,
		"shard.Fragments":        b.shard.FragmentQueries - a.shard.FragmentQueries,
		"shard.RowsShipped":      b.shard.RowsShipped - a.shard.RowsShipped,
		"transport.RowFrames":    b.clients.RowFrames - a.clients.RowFrames,
		"transport.Retries":      b.clients.Retries - a.clients.Retries,
		"transport.Inserts":      b.clients.Inserts - a.clients.Inserts,
		"transport.ReplAcks":     b.clients.ReplicationAcks - a.clients.ReplicationAcks,
		"wal.Appends":            b.wal.Appends - a.wal.Appends,
		"wal.BytesAppended":      b.wal.BytesAppended - a.wal.BytesAppended,
		"relational.Incremental": uint64(b.maint.StatsIncrementalUpdates - a.maint.StatsIncrementalUpdates),
	}
}

// sqlDelta holds the SQL engine's counters, which the ops determine only
// approximately (see statsDelta). On the fleet sql.Stats() is shared by the
// six shard servers and every other system of the process, so only a local
// replay reads it.
func sqlDelta(rp *replay) map[string]uint64 {
	if rp.sys.deploy != deployLocal {
		return nil
	}
	a, b := rp.before.sql, rp.after.sql
	return map[string]uint64{
		"sql.FullScans":       b.FullScans - a.FullScans,
		"sql.MatchScans":      b.MatchScans - a.MatchScans,
		"sql.ExistsFastPaths": b.ExistsFastPaths - a.ExistsFastPaths,
		"sql.Plans":           b.Plans - a.Plans,
	}
}

// pathDiff compares the counters of a plain and a traced replay of the
// same ops and describes the first disagreement: exact on statsDelta, within
// 2% (or 3 counts on a short replay) on sqlDelta — a decorator that drops a
// capability, such as the existence fast path, moves those by far more. "" means tracing kept
// execution on the plain system's paths.
func pathDiff(plain, traced, plainSQL, tracedSQL map[string]uint64) string {
	if !reflect.DeepEqual(plain, traced) {
		return fmt.Sprintf("layer counters plain %v, traced %v", plain, traced)
	}
	for name, p := range plainSQL {
		if t := tracedSQL[name]; math.Abs(float64(t)-float64(p)) > max(0.02*float64(p), 3) {
			return fmt.Sprintf("%s: plain %d, traced %d", name, p, t)
		}
	}
	return ""
}

func (rp *replay) close() {
	rp.lc.closeIdle()
	rp.sys.close()
}

func meanLatency(res []opResult) time.Duration {
	var sum time.Duration
	n := 0
	for _, r := range res {
		if r.ok {
			sum += r.latency
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// pairedMedianRatio is the median over ops of traced latency / plain
// latency for the same op. A ratio of means would be decided by the few
// slowest requests, whose run-to-run noise on a shared 2-core box exceeds
// the overhead being measured.
func pairedMedianRatio(traced, plain []opResult) float64 {
	var ratios []float64
	for i := range traced {
		if i < len(plain) && traced[i].ok && plain[i].ok && plain[i].latency > 0 {
			ratios = append(ratios, float64(traced[i].latency)/float64(plain[i].latency))
		}
	}
	return median(ratios)
}

// coreCost is the engine pipeline's self time for one request, measured
// by replaying its keywords through the engine's public stages.
type coreCost struct {
	forward, backward, explain time.Duration
	configs, interps           int
}

// tracedPass replays the head of the timed op list twice on fresh systems
// — plain, then with every seam decorated — and once more through the
// engine's public pipeline stages, and derives the per-layer waterfall.
func tracedPass(cfg runConfig, pool []*eval.Query, warm, ops []op, res *runResult) error {
	plain, err := runReplay(cfg, pool, warm, ops, hooks{}, nil)
	if err != nil {
		return err
	}
	plainMean, plainResults := meanLatency(plain.results), plain.results
	plainFirst, plainDelta, plainSQL := plain.lc.first, statsDelta(plain), sqlDelta(plain)
	plain.close()

	rec := newRecorder()
	traced, err := runReplay(cfg, pool, warm, ops, tracingHooks(rec, cfg.spec.deploy), rec)
	if err != nil {
		return err
	}
	defer traced.close()
	spans := rec.since(0)

	// Decorator fidelity, checked on every traced run: same answers and the
	// same layer counters, i.e. the decorators still forward every optional
	// capability and tracing did not push execution onto a fallback path.
	for i, want := range plainFirst {
		if got := traced.lc.first[i]; got == nil || !sameAnswer(want, got) {
			res.Correct = false
			res.Failures = append(res.Failures, fmt.Sprintf("traced replay answered %q differently from the plain replay", pool[i]))
			break
		}
	}
	if diff := pathDiff(plainDelta, statsDelta(traced), plainSQL, sqlDelta(traced)); diff != "" {
		res.Correct = false
		res.Failures = append(res.Failures, "traced replay took another execution path: "+diff)
	}
	if n := countFailed(plain.results) + countFailed(traced.results); n > 0 {
		res.Correct = false
		res.Failures = append(res.Failures, fmt.Sprintf("%d replay ops failed: %v %v", n, plain.lc.failures, traced.lc.failures))
	}

	srcLayer := layerSQL
	if cfg.spec.deploy == deployFleet {
		srcLayer = layerShard
	}
	byReq := make([][]span, len(ops)+1)
	for _, s := range spans {
		if s.req >= 1 && int(s.req) <= len(ops) {
			byReq[s.req] = append(byReq[s.req], s)
		}
	}

	// Which requests ran the pipeline (issued PruneEmpty probes)?
	miss := make([]bool, len(ops))
	var searches, hits, probes, sourceCalls, stmts float64
	for i, o := range ops {
		for _, s := range byReq[i+1] {
			if s.layer == srcLayer {
				sourceCalls++
				if s.name == "exists" {
					probes++
					miss[i] = true
				}
			}
			if s.layer == layerSQL && s.stmt != nil {
				stmts++
			}
		}
		if o.kind == opSearch {
			searches++
			if !miss[i] {
				hits++
			}
		}
	}

	core, err := coreReplay(cfg, pool, warm, ops, miss)
	if err != nil {
		return err
	}

	// Waterfall: mean self time per request and layer.
	n := float64(len(ops))
	var self [numLayers]time.Duration
	var client time.Duration
	for i := range ops {
		w := traced.windows[i]
		st := selfTimes(layerClient, w[0], w[1], byReq[i+1])
		// The shard-side executor pushes rows into the transport server's
		// frame sink from inside its own span: move that share of the SQL
		// layer's time to the transport layer.
		var sqlDur, sinkBusy time.Duration
		for _, s := range byReq[i+1] {
			if s.layer == layerSQL {
				sqlDur += s.dur()
				sinkBusy += s.sink
			}
		}
		if sqlDur > 0 {
			shift := time.Duration(float64(st[layerSQL]) * float64(sinkBusy) / float64(sqlDur))
			st[layerSQL] -= shift
			st[layerTransport] += shift
		}
		for l := range st {
			self[l] += st[l]
		}
		client += w[1] - w[0]
	}
	var cc coreCost
	for _, c := range core {
		cc.forward += c.forward
		cc.backward += c.backward
		cc.explain += c.explain
		cc.configs += c.configs
		cc.interps += c.interps
	}
	perReq := func(d time.Duration) float64 { return ratio(us(d), n) }
	serveSelf := self[layerServe] - cc.forward - cc.backward - cc.explain
	m := res.PerLayer
	m.set("serve.http_self_us", perReq(self[layerClient]))
	m.set("serve.self_us", perReq(serveSelf))
	m.set("core.forward_us", perReq(cc.forward))
	m.set("core.backward_us", perReq(cc.backward))
	m.set("core.explain_self_us", perReq(cc.explain))
	m.set("shard.self_us", perReq(self[layerShard]))
	m.set("transport.self_us", perReq(self[layerTransport]))
	m.set("sql.exec_us_per_req", perReq(self[layerSQL]))
	m.set("core.configs_per_req", ratio(float64(cc.configs), n))
	m.set("core.interps_per_req", ratio(float64(cc.interps), n))
	m.set("core.probes_per_req", ratio(probes, n))
	m.set("core.source_calls_per_req", ratio(sourceCalls, n))
	m.set("core.cache_hit_ratio", ratio(hits, searches))
	m.set("sql.stmts_per_req", ratio(stmts, n))

	// The rows must add up to the client latency. They do by construction
	// except where the engine-stage replay claims more than the handler's
	// measured self time; a negative remainder is clamped and shows here.
	rows := []struct {
		name string
		d    time.Duration
	}{
		{"serve.http_self_us", self[layerClient]},
		{"serve.self_us", maxDur(serveSelf, 0)},
		{"core.forward_us", cc.forward},
		{"core.backward_us", cc.backward},
		{"core.explain_self_us", cc.explain},
		{"shard.self_us", self[layerShard]},
		{"transport.self_us", self[layerTransport]},
		{"sql.exec_us_per_req", self[layerSQL]},
	}
	var sum time.Duration
	for _, r := range rows {
		sum += r.d
	}
	residual := sum - client
	if residual < 0 {
		residual = -residual
	}
	m.set("trace.waterfall_residual_ratio", ratio(float64(residual), float64(client)))
	m.set("trace.overhead_ratio", pairedMedianRatio(traced.results, plainResults))

	var wf strings.Builder
	fmt.Fprintf(&wf, "waterfall %s: %d sequential ops, client mean %.1f us (plain replay %.1f us)\n",
		cfg.spec.name, len(ops), perReq(client), us(plainMean))
	for _, r := range rows {
		fmt.Fprintf(&wf, "  %-22s %10.1f us  %5.1f%%\n", r.name, perReq(r.d), 100*ratio(float64(r.d), float64(client)))
	}
	res.waterfall = wf.String()

	shardMetrics(m, spans, traced)
	offlineTimings(m, cfg, spans, traced)

	if cfg.traceOut != "" {
		if err := os.MkdirAll(filepath.Dir(cfg.traceOut), 0o755); err != nil {
			return err
		}
		if err := writeTrace(cfg.traceOut, spans); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	return nil
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// coreReplay measures the engine pipeline's own time for every request
// that ran it, on a fresh engine in the same order, by calling the public
// stages — Configurations (forward), Interpretations (backward), Explain
// (DS combination, SQL building, PruneEmpty) — and subtracting the time
// the stage spent inside source calls, which the waterfall attributes to
// the layers below.
func coreReplay(cfg runConfig, pool []*eval.Query, warm, ops []op, miss []bool) ([]coreCost, error) {
	rec := newRecorder()
	h := hooks{source: tracingHooks(rec, cfg.spec.deploy).source}
	sys, err := openSystem(cfg.spec.deploy, buildDataset(), cfg.workRoot, h)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	stage := func(fn func() error) (time.Duration, error) {
		mark := rec.count()
		lo := rec.now()
		err := fn()
		hi := rec.now()
		return selfTimes(layerServe, lo, hi, rec.since(mark))[layerServe], err
	}
	// Same engine state as the replays had when the op list started.
	for _, o := range append(readinessOps(pool), warm...) {
		if o.kind != opSearch {
			continue
		}
		if _, err := sys.eng.Search(pool[o.query].String()); err != nil {
			return nil, err
		}
		sys.quiesce()
	}
	out := make([]coreCost, 0, len(ops))
	for i, o := range ops {
		if o.kind != opSearch || !miss[i] {
			continue
		}
		var c coreCost
		kw := quest.Tokenize(pool[o.query].String())
		var configs []*quest.Configuration
		var interps []*quest.Interpretation
		if c.forward, err = stage(func() (err error) { configs, err = sys.eng.Configurations(kw); return }); err != nil {
			return nil, err
		}
		if c.backward, err = stage(func() (err error) { interps, err = sys.eng.Interpretations(configs); return }); err != nil {
			return nil, err
		}
		if c.explain, err = stage(func() (err error) { _, err = sys.eng.Explain(configs, interps); return }); err != nil {
			return nil, err
		}
		c.configs, c.interps = len(configs), len(interps)
		out = append(out, c)
		sys.quiesce()
	}
	return out, nil
}

// shardMetrics derives the scatter-gather metrics that need the trace:
// how often an existence fan-out ended early, and how much slower the
// slowest backend of a fan-out was than the mean one.
func shardMetrics(m metricSet, spans []span, traced *replay) {
	var fanouts []span
	var existsCalls float64
	for _, s := range spans {
		if s.layer == layerShard && s.req > 0 && (s.name == "exists" || s.name == "execute") {
			fanouts = append(fanouts, s)
			if s.name == "exists" {
				existsCalls++
			}
		}
	}
	short := float64(traced.after.shard.ExistsShortCircuits - traced.before.shard.ExistsShortCircuits)
	m.set("shard.exists_short_circuit_ratio", ratio(short, existsCalls))

	var sum float64
	var n int
	var insertDur time.Duration
	var inserts int
	for _, s := range spans {
		if s.layer == layerTransport && s.name == "insert" && s.req > 0 {
			insertDur += s.dur()
			inserts++
		}
	}
	for _, f := range fanouts {
		var slowest, total time.Duration
		k := 0
		for _, s := range spans {
			if s.layer == layerTransport && s.req == f.req && s.start >= f.start && s.start < f.end {
				if s.dur() > slowest {
					slowest = s.dur()
				}
				total += s.dur()
				k++
			}
		}
		if k >= 2 && total > 0 {
			sum += float64(slowest) / (float64(total) / float64(k))
			n++
		}
	}
	m.set("shard.straggler_ratio", ratio(sum, float64(n)))
	if inserts > 0 {
		m.set("transport.insert_us", us(insertDur)/float64(inserts))
	}
}

// offlineSample caps how many recorded statements the offline timings use.
const offlineSample = 400

// offlineTimings times single layers' public entry points over what the
// trace recorded: SQL parse and plan over the executed statements, the
// columnar codec over the result sets the shards streamed, and a scratch
// WAL over the inserted rows.
func offlineTimings(m metricSet, cfg runConfig, spans []span, traced *replay) {
	sys := traced.sys
	dbFor := func(s span) *relational.Database {
		if sys.deploy == deployLocal {
			return sys.db
		}
		return sys.shards[s.target/fleetReplicas][s.target%fleetReplicas].db
	}
	var parse, plan, encode, decode time.Duration
	var nStmts, nRows int
	for _, s := range spans {
		if s.layer != layerSQL || s.stmt == nil || s.req == 0 {
			continue
		}
		if nStmts >= offlineSample {
			break
		}
		text := s.stmt.SQL()
		t0 := time.Now()
		stmt, err := sql.Parse(text)
		parse += time.Since(t0)
		if err != nil {
			continue
		}
		t0 = time.Now()
		_, err = sql.Plan(dbFor(s), stmt)
		plan += time.Since(t0)
		nStmts++
		if err != nil || s.name != "stream" {
			continue
		}
		res, err := sql.Execute(dbFor(s), stmt)
		if err != nil || len(res.Rows) == 0 {
			continue
		}
		cols := make([][]relational.Value, len(res.Columns))
		for c := range cols {
			cols[c] = make([]relational.Value, len(res.Rows))
			for r, row := range res.Rows {
				cols[c][r] = row[c]
			}
		}
		t0 = time.Now()
		buf := sql.AppendColumnarBatch(nil, len(res.Rows), cols, nil)
		encode += time.Since(t0)
		t0 = time.Now()
		_, err = sql.DecodeColumnarRows(buf)
		decode += time.Since(t0)
		if err == nil {
			nRows += len(res.Rows)
		}
	}
	m.set("sql.parse_us_per_stmt", ratio(us(parse), float64(nStmts)))
	m.set("sql.plan_us_per_stmt", ratio(us(plan), float64(nStmts)))
	m.set("transport.encode_us_per_krow", ratio(us(encode)*1000, float64(nRows)))
	m.set("transport.decode_us_per_krow", ratio(us(decode)*1000, float64(nRows)))

	if sys.deploy != deployFleet || len(traced.lc.acked) == 0 {
		return
	}
	if d, err := scratchWALAppend(cfg.workRoot, sys.db.Schema, traced.lc.acked); err == nil {
		m.set("wal.append_us", us(d)/float64(len(traced.lc.acked)))
	}
}

// scratchWALAppend replays the recorded inserts into a fresh fsynced log
// and returns the total Append + Commit.Wait time.
func scratchWALAppend(workRoot string, schema *relational.Schema, ids []int64) (time.Duration, error) {
	dir, err := os.MkdirTemp(workRoot, "scratchwal-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	base, err := relational.NewDatabase("scratch", schema)
	if err != nil {
		return 0, err
	}
	l, _, err := wal.Open(dir, base, wal.Options{})
	if err != nil {
		return 0, err
	}
	defer l.Close()
	var total time.Duration
	for i, id := range ids {
		row := relational.Row{relational.Int(id), relational.String_(fmt.Sprintf("zzbenchrow%d", id)),
			relational.Null(), relational.Null(), relational.Null()}
		t0 := time.Now()
		err := l.Append(uint64(i+1), "movie", row).Wait()
		total += time.Since(t0)
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}
