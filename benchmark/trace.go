package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/relational"
	"repro/internal/shard"
	"repro/internal/sql"
	"repro/internal/transport"
	"repro/internal/wrapper"
)

// layer is a module boundary a span was recorded at, ordered outside-in:
// a deeper layer's spans nest inside the shallower ones of the same
// request.
type layer int

const (
	layerClient    layer = iota // load generator, around the HTTP round trip
	layerServe                  // http.Handler around serve.Server
	layerShard                  // wrapper.Source around shard.ShardedSource (fleet)
	layerTransport              // shard.Backend around each transport.Client (fleet)
	layerSQL                    // executor over a FullAccessSource: the SQL engine
	numLayers
)

var layerNames = [numLayers]string{"client", "serve", "shard", "transport", "sql"}

// span is one recorded call across a layer boundary. Times are offsets
// from the recorder's epoch.
type span struct {
	id     int
	layer  layer
	name   string // operation: search, insert, execute, exists, stream, ...
	req    int64  // request the span belongs to
	start  time.Duration
	end    time.Duration
	stmt   *sql.SelectStmt // statement executed, when there is one
	target int             // shard index (transport) or shard*replicas+replica (sql); -1 otherwise
	// sink is the part of a shard-side streaming execution spent inside
	// the transport server's frame sink (batch encode + socket write),
	// which the SQL executor calls row by row from inside its own span.
	sink time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// recorder keeps spans in memory; the file is written when the run ends.
// One request is in flight at a time during a traced replay, so the
// current request id is a single shared value the replay driver sets.
type recorder struct {
	epoch time.Time
	req   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

func (r *recorder) add(l layer, name string, start time.Duration, stmt *sql.SelectStmt, target int) {
	r.addSpan(span{layer: l, name: name, start: start, end: r.now(), stmt: stmt, target: target})
}

func (r *recorder) addSpan(s span) {
	s.req = r.req.Load()
	r.mu.Lock()
	s.id = len(r.spans)
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// count is how many spans were recorded so far; since(count) returns a
// copy of the ones recorded after that point.
func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

func (r *recorder) since(mark int) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans[mark:]...)
}

// selfTimes splits the window [lo, hi) among layers: every instant goes to
// the deepest layer that has a span open at that instant. For properly
// nested spans this is each layer's duration minus the union of its
// children's intervals, and it stays well defined when children overlap
// (parallel PruneEmpty probes) or outlive their parent (short-circuited
// fan-outs). The window's owner layer gets the instants nothing deeper
// covers, so the results always sum to hi-lo.
func selfTimes(owner layer, lo, hi time.Duration, spans []span) [numLayers]time.Duration {
	type edge struct {
		at    time.Duration
		layer layer
		delta int
	}
	edges := make([]edge, 0, 2*len(spans))
	for _, s := range spans {
		a, b := s.start, s.end
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b <= a || s.layer <= owner {
			continue
		}
		edges = append(edges, edge{a, s.layer, +1}, edge{b, s.layer, -1})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	var out [numLayers]time.Duration
	var open [numLayers]int
	cur := lo
	deepest := func() layer {
		for l := numLayers - 1; l > owner; l-- {
			if open[l] > 0 {
				return l
			}
		}
		return owner
	}
	for _, e := range edges {
		out[deepest()] += e.at - cur
		cur = e.at
		open[e.layer] += e.delta
	}
	out[owner] += hi - cur
	return out
}

// parentOf finds the span that caused s: among the spans of the same
// request that are open when s starts, the one of the deepest shallower
// layer (latest started on ties). It returns -1 for a root span.
func parentOf(s span, sameReq []span) int {
	best := -1
	for i, p := range sameReq {
		if p.layer >= s.layer || p.start > s.start || s.start >= p.end {
			continue
		}
		if best < 0 || p.layer > sameReq[best].layer ||
			(p.layer == sameReq[best].layer && p.start > sameReq[best].start) {
			best = i
		}
	}
	if best < 0 {
		return -1
	}
	return sameReq[best].id
}

// writeTrace writes one JSON object per span: name, start, end, request id
// and the span that caused it.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	byReq := map[int64][]span{}
	for _, s := range spans {
		byReq[s.req] = append(byReq[s.req], s)
	}
	enc := json.NewEncoder(w)
	for _, s := range spans {
		rec := struct {
			ID      int     `json:"id"`
			Name    string  `json:"name"`
			StartUs float64 `json:"start_us"`
			EndUs   float64 `json:"end_us"`
			Request int64   `json:"request"`
			Parent  int     `json:"parent"`
			SQL     string  `json:"sql,omitempty"`
			SinkUs  float64 `json:"sink_us,omitempty"`
		}{s.id, layerNames[s.layer] + "." + s.name, us(s.start), us(s.end), s.req, parentOf(s, byReq[s.req]), "", us(s.sink)}
		if s.stmt != nil {
			rec.SQL = s.stmt.SQL()
		}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ---- decorators ----
//
// Each decorator forwards exactly the optional capabilities its inner
// value has — no more, or the callers' type-assertion ladders would pick a
// different execution path under tracing than without it.

// tracedHandler records a serve-layer span around the serving tier.
type tracedHandler struct {
	rec   *recorder
	inner http.Handler
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := h.rec.now()
	h.inner.ServeHTTP(w, r)
	h.rec.add(layerServe, r.URL.Path, start, nil, -1)
}

// engineSource is the face set core.Engine discovers on its source that
// both deployments' sources (*wrapper.FullAccessSource and
// *shard.ShardedSource) share.
type engineSource interface {
	wrapper.Source
	wrapper.ExistsExecutor
	wrapper.ConcurrentExecutor
	wrapper.StatisticsProvider
	wrapper.Inserter
	wrapper.TableVersioner
}

// tracedSource decorates the engine's source. Its context faces dispatch
// through wrapper.ExecuteContext / ExecuteExistsContext on the inner
// source — the same helpers the engine calls — so the inner source is
// reached through whichever face it really has.
type tracedSource struct {
	engineSource
	rec   *recorder
	layer layer
}

func (s *tracedSource) Execute(stmt *sql.SelectStmt) (*sql.Result, error) {
	return s.ExecuteCtx(context.Background(), stmt)
}

func (s *tracedSource) ExecuteCtx(ctx context.Context, stmt *sql.SelectStmt) (*sql.Result, error) {
	start := s.rec.now()
	res, err := wrapper.ExecuteContext(ctx, s.engineSource, stmt)
	s.rec.add(s.layer, "execute", start, stmt, -1)
	return res, err
}

func (s *tracedSource) ExecuteExists(stmt *sql.SelectStmt) (bool, error) {
	return s.ExecuteExistsCtx(context.Background(), stmt)
}

func (s *tracedSource) ExecuteExistsCtx(ctx context.Context, stmt *sql.SelectStmt) (bool, error) {
	start := s.rec.now()
	ok, err := wrapper.ExecuteExistsContext(ctx, s.engineSource, stmt)
	s.rec.add(s.layer, "exists", start, stmt, -1)
	return ok, err
}

func (s *tracedSource) Insert(table string, row relational.Row) error {
	start := s.rec.now()
	err := s.engineSource.Insert(table, row)
	s.rec.add(s.layer, "insert", start, nil, -1)
	return err
}

func (s *tracedSource) AttributeScore(table, column, keyword string) float64 {
	start := s.rec.now()
	v := s.engineSource.AttributeScore(table, column, keyword)
	s.rec.add(s.layer, "score", start, nil, -1)
	return v
}

func (s *tracedSource) EdgeDistance(e relational.JoinEdge) (float64, error) {
	start := s.rec.now()
	v, err := s.engineSource.EdgeDistance(e)
	s.rec.add(s.layer, "edge", start, nil, -1)
	return v, err
}

func (s *tracedSource) ColumnStatistics(table, column string) (*relational.ColumnStats, error) {
	start := s.rec.now()
	cs, err := s.engineSource.ColumnStatistics(table, column)
	s.rec.add(s.layer, "colstats", start, nil, -1)
	return cs, err
}

var (
	_ wrapper.Source                = (*tracedSource)(nil)
	_ wrapper.ContextExecutor       = (*tracedSource)(nil)
	_ wrapper.ExistsExecutor        = (*tracedSource)(nil)
	_ wrapper.ContextExistsExecutor = (*tracedSource)(nil)
	_ wrapper.ConcurrentExecutor    = (*tracedSource)(nil)
	_ wrapper.StatisticsProvider    = (*tracedSource)(nil)
	_ wrapper.Inserter              = (*tracedSource)(nil)
	_ wrapper.TableVersioner        = (*tracedSource)(nil)
)

// scorer is the relevance face shard and transport discover on a backend.
type scorer interface {
	AttributeScore(table, column, keyword string) float64
	EdgeDistance(e relational.JoinEdge) (float64, error)
}

// tracedBackend decorates one shard group's transport client. It forwards
// every face shard.NewFromBackends, fetchResult, backendExists and Close
// look for, and — like *transport.Client — has no TableVersioner.
type tracedBackend struct {
	rec   *recorder
	shard int
	inner *transport.Client
}

func (b *tracedBackend) span(name string, start time.Duration, stmt *sql.SelectStmt) {
	b.rec.add(layerTransport, name, start, stmt, b.shard)
}

func (b *tracedBackend) Execute(stmt *sql.SelectStmt) (*sql.Result, error) {
	start := b.rec.now()
	res, err := b.inner.Execute(stmt)
	b.span("execute", start, stmt)
	return res, err
}

func (b *tracedBackend) ExecuteCtx(ctx context.Context, stmt *sql.SelectStmt) (*sql.Result, error) {
	start := b.rec.now()
	res, err := b.inner.ExecuteCtx(ctx, stmt)
	b.span("execute", start, stmt)
	return res, err
}

func (b *tracedBackend) ExecuteStream(stmt *sql.SelectStmt, sink wrapper.RowSink) ([]string, error) {
	start := b.rec.now()
	cols, err := b.inner.ExecuteStream(stmt, sink)
	b.span("stream", start, stmt)
	return cols, err
}

func (b *tracedBackend) ExecuteStreamCtx(ctx context.Context, stmt *sql.SelectStmt, sink wrapper.RowSink) ([]string, error) {
	start := b.rec.now()
	cols, err := b.inner.ExecuteStreamCtx(ctx, stmt, sink)
	b.span("stream", start, stmt)
	return cols, err
}

func (b *tracedBackend) ExecuteExists(stmt *sql.SelectStmt) (bool, error) {
	start := b.rec.now()
	ok, err := b.inner.ExecuteExists(stmt)
	b.span("exists", start, stmt)
	return ok, err
}

func (b *tracedBackend) ExecuteExistsCtx(ctx context.Context, stmt *sql.SelectStmt) (bool, error) {
	start := b.rec.now()
	ok, err := b.inner.ExecuteExistsCtx(ctx, stmt)
	b.span("exists", start, stmt)
	return ok, err
}

func (b *tracedBackend) ColumnStatistics(table, column string) (*relational.ColumnStats, error) {
	start := b.rec.now()
	cs, err := b.inner.ColumnStatistics(table, column)
	b.span("colstats", start, nil)
	return cs, err
}

func (b *tracedBackend) AttributeScore(table, column, keyword string) float64 {
	start := b.rec.now()
	v := b.inner.AttributeScore(table, column, keyword)
	b.span("score", start, nil)
	return v
}

func (b *tracedBackend) EdgeDistance(e relational.JoinEdge) (float64, error) {
	start := b.rec.now()
	v, err := b.inner.EdgeDistance(e)
	b.span("edge", start, nil)
	return v, err
}

func (b *tracedBackend) Insert(table string, row relational.Row) error {
	start := b.rec.now()
	err := b.inner.Insert(table, row)
	b.span("insert", start, nil)
	return err
}

func (b *tracedBackend) ExecutesConcurrently() bool { return b.inner.ExecutesConcurrently() }
func (b *tracedBackend) Close() error               { return b.inner.Close() }

var (
	_ shard.Backend                 = (*tracedBackend)(nil)
	_ wrapper.ContextExecutor       = (*tracedBackend)(nil)
	_ wrapper.ContextExistsExecutor = (*tracedBackend)(nil)
	_ wrapper.StreamExecutor        = (*tracedBackend)(nil)
	_ wrapper.ContextStreamExecutor = (*tracedBackend)(nil)
	_ wrapper.ConcurrentExecutor    = (*tracedBackend)(nil)
	_ wrapper.Inserter              = (*tracedBackend)(nil)
	_ scorer                        = (*tracedBackend)(nil)
)

// tracedExecutor decorates the FullAccessSource inside one transport
// server. It forwards the faces transport.NewServer and handleQuery look
// for: statistics, relevance, inserts and streaming execution.
type tracedExecutor struct {
	rec    *recorder
	target int
	inner  *wrapper.FullAccessSource
}

func (e *tracedExecutor) Execute(stmt *sql.SelectStmt) (*sql.Result, error) {
	start := e.rec.now()
	res, err := e.inner.Execute(stmt)
	e.rec.add(layerSQL, "execute", start, stmt, e.target)
	return res, err
}

func (e *tracedExecutor) ExecuteExists(stmt *sql.SelectStmt) (bool, error) {
	start := e.rec.now()
	ok, err := e.inner.ExecuteExists(stmt)
	e.rec.add(layerSQL, "exists", start, stmt, e.target)
	return ok, err
}

func (e *tracedExecutor) ExecuteStream(stmt *sql.SelectStmt, sink wrapper.RowSink) ([]string, error) {
	ts := &timedSink{inner: sink}
	ts.cols, _ = sink.(wrapper.ColumnSink)
	start := e.rec.now()
	cols, err := e.inner.ExecuteStream(stmt, ts)
	e.rec.addSpan(span{layer: layerSQL, name: "stream", start: start, end: e.rec.now(),
		stmt: stmt, target: e.target, sink: ts.busy})
	return cols, err
}

// timedSink forwards a stream to the transport server's sink and estimates
// the time spent inside it. It honours the sink's ColumnSink face the way
// FullAccessSource.ExecuteStream does.
type timedSink struct {
	inner wrapper.RowSink
	cols  wrapper.ColumnSink // nil when inner has no header face
	n     int
	busy  time.Duration
}

// sinkSampleStride: a fleet request pushes ~100k rows, so reading the
// clock around every Push would cost more than most pushes do. One push in
// sinkSampleStride is timed and weighted accordingly; the stride is prime,
// so it visits every phase of the sink's periodic batch flush (the
// expensive pushes) equally often.
const sinkSampleStride = 13

func (t *timedSink) Reset() { t.inner.Reset() }

func (t *timedSink) Push(row relational.Row) error {
	t.n++
	if t.n%sinkSampleStride != 0 {
		return t.inner.Push(row)
	}
	t0 := time.Now()
	err := t.inner.Push(row)
	t.busy += sinkSampleStride * time.Since(t0)
	return err
}

func (t *timedSink) StartColumns(cols []string) error {
	if t.cols == nil {
		return nil
	}
	return t.cols.StartColumns(cols)
}

func (e *tracedExecutor) ColumnStatistics(table, column string) (*relational.ColumnStats, error) {
	start := e.rec.now()
	cs, err := e.inner.ColumnStatistics(table, column)
	e.rec.add(layerSQL, "colstats", start, nil, e.target)
	return cs, err
}

func (e *tracedExecutor) AttributeScore(table, column, keyword string) float64 {
	start := e.rec.now()
	v := e.inner.AttributeScore(table, column, keyword)
	e.rec.add(layerSQL, "score", start, nil, e.target)
	return v
}

func (e *tracedExecutor) EdgeDistance(edge relational.JoinEdge) (float64, error) {
	start := e.rec.now()
	v, err := e.inner.EdgeDistance(edge)
	e.rec.add(layerSQL, "edge", start, nil, e.target)
	return v, err
}

func (e *tracedExecutor) Insert(table string, row relational.Row) error {
	start := e.rec.now()
	err := e.inner.Insert(table, row)
	e.rec.add(layerSQL, "insert", start, nil, e.target)
	return err
}

var (
	_ wrapper.SourceExecutor     = (*tracedExecutor)(nil)
	_ wrapper.StreamExecutor     = (*tracedExecutor)(nil)
	_ wrapper.StatisticsProvider = (*tracedExecutor)(nil)
	_ wrapper.Inserter           = (*tracedExecutor)(nil)
	_ scorer                     = (*tracedExecutor)(nil)
)

// tracingHooks decorates every seam that is an interface today.
func tracingHooks(rec *recorder, deploy deployment) hooks {
	srcLayer := layerSQL // a local engine's source is the SQL engine itself
	if deploy == deployFleet {
		srcLayer = layerShard
	}
	return hooks{
		handler: func(h http.Handler) http.Handler { return &tracedHandler{rec: rec, inner: h} },
		source: func(src engineSource) wrapper.Source {
			return &tracedSource{engineSource: src, rec: rec, layer: srcLayer}
		},
		backend: func(i int, c *transport.Client) shard.Backend {
			return &tracedBackend{rec: rec, shard: i, inner: c}
		},
		executor: func(i, r int, src *wrapper.FullAccessSource) wrapper.SourceExecutor {
			return &tracedExecutor{rec: rec, target: i*fleetReplicas + r, inner: src}
		},
	}
}
