// Package shard is the sharded multi-backend execution layer: a
// ShardedSource implements the full wrapper source surface over N
// hash-partitioned per-shard backends, so QUEST's engine (and any SQL
// client of the wrapper) runs unchanged against partitioned data.
//
// The division of labor follows the pushdown-fragment contract documented
// in internal/sql (see the package doc there): the coordinator splits each
// statement into per-table fragments carrying the pushed-down single-table
// predicates (sql.Fragments), ships every fragment to the shards that can
// hold qualifying rows — a fragment pinning a primary key to literals is
// routed only to the shards those values hash to — and scatter-gathers the
// filtered rows over a bounded worker pool. Join statements gather in
// semi-join-reduced waves (semijoin.go): the self-filtering fragments
// first, then each remaining one restricted to the join keys its gathered
// neighbours produced, so a link table ships the rows that can join rather
// than all of them, and a join refuted by an empty side ships nothing
// more. Joins, residual predicates, projection, aggregation, DISTINCT,
// ordering and limits then run at the coordinator (sql.ExecuteRows) with
// the reference interpreter's semantics, so results are multiset-identical
// to single-node execution; the internal/conformance differential suite
// holds every backend to that contract.
//
// Backends are addressed through one executor interface (Backend) whether
// they live in this process or behind the wire: wrapper.FullAccessSource
// serves the in-process case, internal/transport's Client serves remote
// shards (questshardd servers or loopback pipes) with streaming rows,
// retries and hedged reads, and the coordinator cannot tell them apart.
// Fragment fetches consume a backend's row stream incrementally when it
// offers one (wrapper.StreamExecutor), so gathering starts before a remote
// shard finishes sending and the shard server never materializes the
// fragment. Remote shards ship row batches as columnar frames (per-column
// dictionary/RLE encodings chosen from statistics — see the wire-protocol
// notes in internal/sql), which the gather consumes a decoded batch at a
// time.
//
// Every statement Execute sees takes that one path, so Execute only ever
// sends a shard `SELECT *` fragments. (The engine's statements are all
// SELECT DISTINCT, whose cross-shard duplicates no per-shard shortcut
// could remove.) One fast path remains, for existence: single-table probes
// (ExecuteExists, the engine's PruneEmpty validation) fan out per shard
// and short-circuit on the first witness row, canceling probes that have
// not started yet — validation latency scales with the fastest shard
// holding a match, not with the shard count.
//
// Statistics stay pushdown-friendly too: ColumnStatistics merges the
// per-shard snapshots (relational.MergeColumnStats) instead of shipping
// rows, giving engine-level consumers (core.Engine.ColumnStatistics,
// operator tooling, a future coordinator-side join planner) a whole-data
// view without row movement; each shard's own planner meanwhile keeps
// using its local statistics for fragment access paths. The merged row
// counts size the semi-join reduction; the coordinator's join step itself
// is still the reference interpreter — it joins gathered fragments in
// written order. AttributeScore/EdgeDistance combine per-shard relevance
// evidence (max, respectively row-agnostic mean) — approximate where
// exact merging would need global recomputation, and documented as such.
package shard

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/relational"
	"repro/internal/sql"
	"repro/internal/transport"
	"repro/internal/wrapper"
)

// ErrReadOnlyTopology is returned by ShardedSource.Insert when the
// source's backends cannot accept writes: injected backends that do not
// implement wrapper.Inserter, or remote shards whose server-side backend
// has no write face (transport.ErrReadOnly). Test with errors.Is —
// callers distinguish "this topology cannot take writes" from a
// row-level rejection, which surfaces as the backend's own error.
var ErrReadOnlyTopology = fmt.Errorf("shard: topology is read-only")

// Backend is the per-shard contract: materializing execution, the
// existence-only mode, and column statistics. Implementations MUST be safe
// for concurrent use — the coordinator fans fragment executions and
// existence probes out over a worker pool, so one query alone can hit a
// backend from several goroutines at once. A *wrapper.FullAccessSource
// over a shard's database satisfies both requirements; tests substitute
// stubs to model slow or failing shards.
type Backend interface {
	wrapper.SourceExecutor
	wrapper.StatisticsProvider
}

// scorer is the optional per-shard interface behind AttributeScore and
// EdgeDistance; backends without it contribute no relevance evidence.
type scorer interface {
	AttributeScore(table, column, keyword string) float64
	EdgeDistance(e relational.JoinEdge) (float64, error)
}

// Options tunes a ShardedSource.
type Options struct {
	// Workers bounds the shard requests in flight per coordinator call
	// (fragment fetches and existence probes alike). 0 selects
	// runtime.GOMAXPROCS(0).
	Workers int
	// AssumeHashRouting declares that injected backends hold partitions
	// produced by this package's routing (Partition with the same shard
	// count), enabling PK partition pruning over them. Leave false for
	// backends with unknown row placement — pruning must never drop a
	// shard that could hold a witness. Sources built by New always prune.
	AssumeHashRouting bool
}

// Stats is a snapshot of a source's coordinator counters, the
// operator-facing view of what the sharded layer is doing (benchmark/
// reports them per request).
type Stats struct {
	// PushdownQueries and AggPushdownQueries always read 0: every statement
	// gathers (GatherQueries). They stay so code that reads them keeps
	// compiling until the benchmark's report drops them.
	PushdownQueries     uint64
	AggPushdownQueries  uint64
	GatherQueries       uint64 // statements served by scatter-gather + coordinator merge
	FragmentQueries     uint64 // per-shard fragment executions
	RowsShipped         uint64 // rows crossing a shard→coordinator boundary
	PrunedProbes        uint64 // shard requests skipped by PK partition pruning
	ExistsProbes        uint64 // per-shard existence probes issued
	ExistsShortCircuits uint64 // exists calls answered before every probe ran
	ReducedFragments    uint64 // fragments shipped with a neighbour's join keys as an IN list (semijoin.go)
	SkippedFragments    uint64 // fragments never shipped because the inner join was already provably empty
}

type counters struct {
	gather, fragments         atomic.Uint64
	rowsShipped, pruned       atomic.Uint64
	existsProbes, existsShort atomic.Uint64
	reduced, skipped          atomic.Uint64
}

// ShardedSource implements wrapper.Source (plus the ExistsExecutor,
// StatisticsProvider and ConcurrentExecutor extensions) over hash
// partitions. It is safe for concurrent use after population: coordinator
// state is immutable or atomic, and per-shard backends are only read.
type ShardedSource struct {
	name     string
	schema   *relational.Schema
	backends []Backend
	scorers  []scorer
	// dbs holds the owned per-shard databases when the source was built by
	// New/Partition; nil for backend-injected sources, which are read-only
	// through the coordinator and never partition-pruned (the coordinator
	// cannot know a foreign backend's routing).
	dbs []*relational.Database
	// inserters holds the per-shard write surface when every injected
	// backend offers one (remote transport clients to replicated shard
	// groups); nil when any backend is read-only. Owned sources (dbs set)
	// write to their databases directly instead.
	inserters []wrapper.Inserter
	// ordMu/ordinals track rows inserted per keyless table through this
	// coordinator, continuing Partition's round-robin placement where the
	// initial split left off. PK-routed rows never consult it.
	ordMu    sync.Mutex
	ordinals map[string]int
	workers  int
	prunable bool

	edgeMu    sync.Mutex
	edgeCache map[string]float64

	// sizeMu/sizes cache injected backends' table row counts for sizing
	// semi-join reductions (tableRows); -1 records an unknown size.
	sizeMu sync.Mutex
	sizes  map[string]int

	// probes tracks in-flight existence probe goroutines: existsFanOut
	// returns on the first witness without waiting for slow shards, so a
	// probe can outlive its call. Population-phase writes (Insert) and
	// Quiesce wait for it — a straggler probe must never observe a
	// concurrent mutation.
	probes sync.WaitGroup

	c counters
}

// Partition splits a database into n databases over the same schema: rows
// of tables with a primary key are routed by an FNV-1a hash of the
// (coerced) key value, rows of keyless tables round-robin by insert
// ordinal. Routing is deterministic, so a coordinator can re-derive a
// row's shard from its key — the basis of partition pruning — and
// ShardedSource.Insert keeps later rows consistent with the initial split.
// Rows are cloned; the shards own their copies.
func Partition(db *relational.Database, n int) ([]*relational.Database, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shard: partition count %d, want >= 1", n)
	}
	out := make([]*relational.Database, n)
	for i := range out {
		sh, err := relational.NewDatabase(fmt.Sprintf("%s-shard%d", db.Name, i), db.Schema)
		if err != nil {
			return nil, err
		}
		out[i] = sh
	}
	for _, ts := range db.Schema.Tables() {
		t := db.Table(ts.Name)
		for i, row := range t.Rows() {
			si := routeFor(ts, row, i, n)
			if err := out[si].Insert(ts.Name, row.Clone()); err != nil {
				return nil, fmt.Errorf("shard: partitioning %s: %w", ts.Name, err)
			}
		}
	}
	return out, nil
}

// routeValue hashes one key value onto [0, n). FNV-1a over the value's
// comparison key makes routing independent of process and insertion order.
func routeValue(v relational.Value, n int) int {
	h := fnv.New32a()
	h.Write([]byte(v.Key()))
	return int(h.Sum32() % uint32(n))
}

// routeFor picks the shard for one row: PK hash when the table declares a
// usable key, insert-ordinal round-robin otherwise.
func routeFor(ts *relational.TableSchema, row relational.Row, ordinal, n int) int {
	if ts.PrimaryKey != "" {
		ord := ts.ColumnIndex(ts.PrimaryKey)
		if ord >= 0 && ord < len(row) && !row[ord].IsNull() {
			if cv, err := relational.Coerce(row[ord], ts.Columns[ord].Type); err == nil {
				return routeValue(cv, n)
			}
		}
	}
	return ordinal % n
}

// New builds a ShardedSource over owned per-shard databases (normally the
// output of Partition), wrapping each in a FullAccessSource — the setup
// phase builds per-shard full-text indexes, mirroring the single-node
// wrapper. Partition pruning is enabled: the shards are known to follow
// this package's routing.
func New(name string, shards []*relational.Database, opt Options) (*ShardedSource, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("shard: no shards")
	}
	backends := make([]Backend, len(shards))
	for i, db := range shards {
		if db.Schema != shards[0].Schema {
			return nil, fmt.Errorf("shard: shard %d has a different schema", i)
		}
		backends[i] = wrapper.NewFullAccessSource(db)
	}
	s := NewFromBackends(name, shards[0].Schema, backends, opt)
	s.dbs = shards
	s.prunable = true
	return s, nil
}

// NewFromBackends builds a ShardedSource over caller-provided backends
// (remote transport clients, test stubs). Partition pruning stays off
// unless Options.AssumeHashRouting declares the backends follow this
// package's routing. Insert works when every backend implements
// wrapper.Inserter (transport clients to replicated shard groups do) and
// returns ErrReadOnlyTopology otherwise.
func NewFromBackends(name string, schema *relational.Schema, backends []Backend, opt Options) *ShardedSource {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &ShardedSource{
		name:      name,
		schema:    schema,
		backends:  backends,
		scorers:   make([]scorer, len(backends)),
		workers:   workers,
		prunable:  opt.AssumeHashRouting,
		edgeCache: map[string]float64{},
		sizes:     map[string]int{},
	}
	for i, b := range backends {
		if sc, ok := b.(scorer); ok {
			s.scorers[i] = sc
		}
	}
	ins := make([]wrapper.Inserter, len(backends))
	for i, b := range backends {
		w, ok := b.(wrapper.Inserter)
		if !ok {
			ins = nil
			break
		}
		ins[i] = w
	}
	s.inserters = ins
	return s
}

// ShardCount returns the number of shards.
func (s *ShardedSource) ShardCount() int { return len(s.backends) }

// Stats snapshots the coordinator counters.
func (s *ShardedSource) Stats() Stats {
	return Stats{
		GatherQueries:       s.c.gather.Load(),
		FragmentQueries:     s.c.fragments.Load(),
		RowsShipped:         s.c.rowsShipped.Load(),
		PrunedProbes:        s.c.pruned.Load(),
		ExistsProbes:        s.c.existsProbes.Load(),
		ExistsShortCircuits: s.c.existsShort.Load(),
		ReducedFragments:    s.c.reduced.Load(),
		SkippedFragments:    s.c.skipped.Load(),
	}
}

// ResetStats zeroes the coordinator counters (benchmarks). It first waits
// out straggler existence probes — their atomic increments would race a
// plain struct overwrite and pollute the fresh measurement window — then
// clears each counter atomically.
func (s *ShardedSource) ResetStats() {
	s.probes.Wait()
	s.c.gather.Store(0)
	s.c.fragments.Store(0)
	s.c.rowsShipped.Store(0)
	s.c.pruned.Store(0)
	s.c.existsProbes.Store(0)
	s.c.existsShort.Store(0)
	s.c.reduced.Store(0)
	s.c.skipped.Store(0)
}

// Quiesce blocks until every in-flight shard probe has drained — the
// boundary callers must cross before any population-phase operation on the
// shard databases that bypasses this source's own Insert.
func (s *ShardedSource) Quiesce() { s.probes.Wait() }

// Close waits out straggler probes and releases backend resources:
// backends that implement io.Closer (remote transport clients with pooled
// connections) are closed. Sources over in-process backends close to a
// no-op.
func (s *ShardedSource) Close() error {
	s.probes.Wait()
	var first error
	for _, b := range s.backends {
		if c, ok := b.(io.Closer); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Name implements wrapper.Source.
func (s *ShardedSource) Name() string { return s.name }

// Schema implements wrapper.Source.
func (s *ShardedSource) Schema() *relational.Schema { return s.schema }

// HasInstanceAccess implements wrapper.Source: shard backends see rows.
func (s *ShardedSource) HasInstanceAccess() bool { return true }

// ExecutesConcurrently implements wrapper.ConcurrentExecutor. Coordinator
// state is atomic or immutable, and the Backend contract requires every
// shard to tolerate concurrent calls (see Backend), so the source as a
// whole does too.
func (s *ShardedSource) ExecutesConcurrently() bool { return true }

// Insert routes a row to its shard (PK hash, or round-robin for keyless
// tables) and inserts it there. Like relational.Table.Insert it belongs to
// the population phase: never call it concurrently with queries. Sources
// built by New write to their owned shard databases; backend-injected
// sources write through each backend's wrapper.Inserter — remote
// transport clients route the row to the shard group's primary and
// replicate it — and return ErrReadOnlyTopology when the backends (local
// or behind the wire) cannot take writes.
func (s *ShardedSource) Insert(table string, row relational.Row) error {
	// Existence probes abandoned by a short-circuiting ExecuteExists may
	// still be reading shard tables; entering the population phase waits
	// them out.
	s.probes.Wait()
	ts := s.schema.Table(table)
	if ts == nil {
		return fmt.Errorf("shard: unknown table %s", table)
	}
	if s.dbs != nil {
		total := 0
		for _, db := range s.dbs {
			total += db.Table(table).Len()
		}
		si := routeFor(ts, row, total, len(s.dbs))
		return s.dbs[si].Insert(table, row)
	}
	if s.inserters == nil {
		return fmt.Errorf("source %s has backends without a write surface: %w", s.name, ErrReadOnlyTopology)
	}
	// PK routing re-derives the shard from the key alone, matching
	// Partition wherever the backends hold partitions of the same shard
	// count. Keyless tables continue round-robin from a coordinator-local
	// ordinal: placement stays balanced, and since injected backends are
	// never ordinal-pruned, any offset from the original split is
	// invisible to queries.
	ordinal := 0
	if ts.PrimaryKey == "" {
		s.ordMu.Lock()
		if s.ordinals == nil {
			s.ordinals = map[string]int{}
		}
		ordinal = s.ordinals[table]
		s.ordinals[table] = ordinal + 1
		s.ordMu.Unlock()
	}
	si := routeFor(ts, row, ordinal, len(s.inserters))
	if err := s.inserters[si].Insert(table, row); err != nil {
		if errors.Is(err, transport.ErrReadOnly) {
			return fmt.Errorf("shard %d of source %s: %v: %w", si, s.name, err, ErrReadOnlyTopology)
		}
		return fmt.Errorf("shard %d of source %s: %w", si, s.name, err)
	}
	return nil
}

// AttributeScore implements wrapper.Source as the maximum per-shard score:
// a keyword relevant to an attribute in any partition is relevant to the
// attribute. (Exact global tf-idf would need a merged index; the max is a
// monotone, partition-stable approximation.)
func (s *ShardedSource) AttributeScore(table, column, keyword string) float64 {
	best := 0.0
	for _, sc := range s.scorers {
		if sc == nil {
			continue
		}
		if v := sc.AttributeScore(table, column, keyword); v > best {
			best = v
		}
	}
	return best
}

// EdgeDistance implements wrapper.Source as the mean of the per-shard
// mutual-information distances (shards that cannot answer — empty
// partitions — are skipped). Results are cached like the single-node
// wrapper's.
func (s *ShardedSource) EdgeDistance(e relational.JoinEdge) (float64, error) {
	key := e.FromTable + "." + e.FromColumn + ">" + e.ToTable + "." + e.ToColumn
	s.edgeMu.Lock()
	d, ok := s.edgeCache[key]
	s.edgeMu.Unlock()
	if ok {
		return d, nil
	}
	sum, n := 0.0, 0
	var lastErr error
	for _, sc := range s.scorers {
		if sc == nil {
			continue
		}
		v, err := sc.EdgeDistance(e)
		if err != nil {
			lastErr = err
			continue
		}
		sum += v
		n++
	}
	if n == 0 {
		if lastErr == nil {
			lastErr = wrapper.ErrNoInstanceAccess
		}
		return 1, lastErr
	}
	d = sum / float64(n)
	s.edgeMu.Lock()
	s.edgeCache[key] = d
	s.edgeMu.Unlock()
	return d, nil
}

// ColumnStatistics implements wrapper.StatisticsProvider by merging the
// per-shard snapshots — statistics pushdown: shards ship summaries, never
// rows. The merged Version sums the shard versions, so consumers can cache
// against it exactly like a single table's. The per-shard fetches fan out
// over the source's bounded worker pool — one round-trip per shard in
// parallel (remote backends pay network latency per snapshot), never an
// unbounded goroutine per shard per column.
func (s *ShardedSource) ColumnStatistics(table, column string) (*relational.ColumnStats, error) {
	parts := make([]*relational.ColumnStats, len(s.backends))
	errs := make([]error, len(s.backends))
	s.forEach(len(s.backends), func(i int) {
		parts[i], errs[i] = s.backends[i].ColumnStatistics(table, column)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return relational.MergeColumnStats(parts), nil
}

// TableVersion implements wrapper.TableVersioner as the sum of the
// per-shard table versions — the same convention ColumnStatistics uses
// for its merged Version, so any shard's insert bumps the logical
// version and version-keyed caches (plan, query, response) invalidate
// exactly the entries that read the table. Only available when every
// backend exposes the face (owned databases always do; injected
// backends must implement it themselves).
func (s *ShardedSource) TableVersion(table string) (uint64, bool) {
	if s.dbs != nil {
		var sum uint64
		for _, db := range s.dbs {
			t := db.Table(table)
			if t == nil {
				return 0, false
			}
			sum += t.Version()
		}
		return sum, true
	}
	var sum uint64
	for _, b := range s.backends {
		tv, ok := b.(wrapper.TableVersioner)
		if !ok {
			return 0, false
		}
		v, ok := tv.TableVersion(table)
		if !ok {
			return 0, false
		}
		sum += v
	}
	return sum, true
}

// forEach runs fn(i) for i in [0, n) over the source's bounded worker pool
// (inline when one worker suffices).
func (s *ShardedSource) forEach(n int, fn func(int)) {
	w := s.workers
	if w > n {
		w = n
	}
	if w <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// shardsFor resolves which shards a fragment must visit: all of them,
// unless pruning is legal (owned or hash-routed shards) and the fragment
// pins the table's primary key, in which case only the shards the pinned
// values route to. Values that cannot coerce to the key's column type fall
// back to the full set — such a predicate may still match under the
// engine's cross-type comparison rules, and pruning must never drop a
// potential witness.
func (s *ShardedSource) shardsFor(f *sql.TableFragment) []int {
	n := len(s.backends)
	all := func() []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	if !s.prunable || f.PKValues == nil {
		return all()
	}
	ts := s.schema.Table(f.Ref.Table)
	if ts == nil || ts.PrimaryKey == "" {
		return all()
	}
	col := ts.Column(ts.PrimaryKey)
	seen := make(map[int]bool, len(f.PKValues))
	out := make([]int, 0, len(f.PKValues))
	for _, v := range f.PKValues {
		cv, err := relational.Coerce(v, col.Type)
		if err != nil {
			return all()
		}
		si := routeValue(cv, n)
		if !seen[si] {
			seen[si] = true
			out = append(out, si)
		}
	}
	sort.Ints(out)
	s.c.pruned.Add(uint64(n - len(out)))
	return out
}

// Execute implements wrapper.Source. Every statement scatter-gathers its
// per-table fragments and finishes at the coordinator (executeGather), so
// aggregation, DISTINCT, ordering and LIMIT/OFFSET all run once, over the
// gathered rows, with the reference interpreter's semantics.
func (s *ShardedSource) Execute(stmt *sql.SelectStmt) (*sql.Result, error) {
	return s.ExecuteCtx(context.Background(), stmt)
}

// ExecuteCtx implements wrapper.ContextExecutor: Execute bounded by a
// caller context. The context rides the scatter-gather fan-out — shard
// requests not yet started are skipped, and context-aware backends
// (remote transport clients) abandon in-flight requests — so a caller
// that gives up stops paying for shard work promptly.
func (s *ShardedSource) ExecuteCtx(ctx context.Context, stmt *sql.SelectStmt) (*sql.Result, error) {
	return s.executeGather(ctx, stmt)
}

// ExecuteExists implements wrapper.ExistsExecutor. Single-table probes fan
// out one existence query per (non-pruned) shard and return on the first
// witness row, canceling probes that have not started; join probes gather
// the pushed-down fragments and decide emptiness at the coordinator with a
// LIMIT 1 rewrite, so their cost is the (semi-join-reduced) gather cost,
// never the full join result — and a probe refuted by an empty keyword
// selection stops after gathering it.
func (s *ShardedSource) ExecuteExists(stmt *sql.SelectStmt) (bool, error) {
	return s.ExecuteExistsCtx(context.Background(), stmt)
}

// ExecuteExistsCtx implements wrapper.ContextExistsExecutor: the
// existence fan-out is rooted in the caller's context, so cancelling the
// request cancels probes that have not started and unblocks the wait on
// in-flight ones — the coordinator returns the context's error promptly
// even when a shard backend has stalled.
func (s *ShardedSource) ExecuteExistsCtx(ctx context.Context, stmt *sql.SelectStmt) (bool, error) {
	if stmt.Limit == 0 {
		return false, nil
	}
	if len(stmt.Joins) == 0 && len(stmt.GroupBy) == 0 && stmt.Having == nil &&
		!itemsHaveAgg(stmt) && stmt.Offset == 0 {
		return s.existsFanOut(ctx, stmt)
	}
	probe := stmt.Clone()
	probe.OrderBy = nil
	probe.Limit = 1
	res, err := s.ExecuteCtx(ctx, probe)
	if err != nil {
		return false, err
	}
	return len(res.Rows) > 0, nil
}

// existsFanOut probes every candidate shard concurrently and
// short-circuits on the first hit. Probes not yet started when the hit
// lands are skipped (stop check before each probe); in-flight probes run
// to completion on their own goroutine under the probes WaitGroup and
// exit via the buffered results channel, so early return leaks nothing.
// A witness row on any shard answers true even if another shard fails —
// existence has been proven; errors only surface when no shard can prove
// it.
//
// The short-circuit deliberately does NOT cancel in-flight backend calls:
// probes.Wait() is the population-phase barrier (Insert, Quiesce, Close),
// and for remote backends a probe counts as drained only once its wire
// exchange finishes — which is also when the server-side handler is done
// touching shard tables. Abandoning the exchange early (closing the
// connection) would let probes.Wait() pass while a loopback server still
// reads the very tables a write is about to mutate. Only the CALLER's
// context abandons in-flight probes — context-aware backends return
// early, the receive loop returns ctx.Err() without waiting for stalled
// probes to drain, and crossing from a cancelled query into the
// population phase takes the same quiesce discipline as an abandoned
// hedge (transport.Server.Quiesce).
func (s *ShardedSource) existsFanOut(ctx context.Context, stmt *sql.SelectStmt) (bool, error) {
	probe := stmt.Clone()
	probe.OrderBy = nil
	frags, err := sql.Fragments(s.schema, probe)
	if err != nil {
		return false, err
	}
	shards := s.shardsFor(&frags[0])
	if len(shards) == 0 {
		return false, nil
	}
	stop := make(chan struct{})
	defer close(stop)
	type probeResult struct {
		shard int
		ok    bool
		err   error
	}
	results := make(chan probeResult, len(shards))
	jobs := make(chan int, len(shards))
	for _, si := range shards {
		jobs <- si
	}
	close(jobs)
	w := s.workers
	if w > len(shards) {
		w = len(shards)
	}
	if w < 1 {
		w = 1
	}
	for k := 0; k < w; k++ {
		s.probes.Add(1)
		go func() {
			defer s.probes.Done()
			for si := range jobs {
				select {
				case <-stop:
					return
				case <-ctx.Done():
					return
				default:
				}
				s.c.existsProbes.Add(1)
				ok, perr := backendExists(ctx, s.backends[si], probe)
				results <- probeResult{shard: si, ok: ok, err: perr}
			}
		}()
	}
	var firstErr error
	firstErrShard := -1
	for received := 0; received < len(shards); received++ {
		var r probeResult
		select {
		case r = <-results:
		case <-ctx.Done():
			return false, ctx.Err()
		}
		if r.err != nil {
			if firstErrShard < 0 || r.shard < firstErrShard {
				firstErr, firstErrShard = r.err, r.shard
			}
			continue
		}
		if r.ok {
			if received < len(shards)-1 {
				s.c.existsShort.Add(1)
			}
			return true, nil
		}
	}
	return false, firstErr
}

// executeGather is Execute's path: fetch the fragments' qualifying rows
// from their candidate shards — in semi-join-reduced waves when the
// statement allows it (semijoin.go) — then run the statement over the
// gathered base tables at the coordinator.
func (s *ShardedSource) executeGather(ctx context.Context, stmt *sql.SelectStmt) (*sql.Result, error) {
	s.c.gather.Add(1)
	frags, err := sql.Fragments(s.schema, stmt)
	if err != nil {
		return nil, err
	}
	tables, err := s.gatherReduced(ctx, stmt, frags)
	if err != nil {
		return nil, err
	}
	return sql.ExecuteRows(s.schema, stmt, tables)
}

// gatherWave fetches the listed fragments from their candidate shards in
// parallel and stores each one's rows, concatenated in shard order, in
// tables.
func (s *ShardedSource) gatherWave(ctx context.Context, frags []sql.TableFragment, wave []int, tables [][]relational.Row) error {
	type job struct{ frag, shard int }
	var jobs []job
	perShard := make([][][]relational.Row, len(frags))
	for _, fi := range wave {
		perShard[fi] = make([][]relational.Row, len(s.backends))
		for _, si := range s.shardsFor(&frags[fi]) {
			jobs = append(jobs, job{frag: fi, shard: si})
		}
	}
	errs := make([]error, len(jobs))
	s.forEach(len(jobs), func(i int) {
		if cerr := ctx.Err(); cerr != nil {
			errs[i] = cerr
			return
		}
		j := jobs[i]
		s.c.fragments.Add(1)
		res, ferr := fetchResult(ctx, s.backends[j.shard], frags[j.frag].Stmt)
		if ferr != nil {
			errs[i] = ferr
			return
		}
		s.c.rowsShipped.Add(uint64(len(res.Rows)))
		perShard[j.frag][j.shard] = res.Rows
	})
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	for _, fi := range wave {
		var rows []relational.Row
		for _, shardRows := range perShard[fi] {
			rows = append(rows, shardRows...)
		}
		tables[fi] = rows
	}
	return nil
}

// fetchResult pulls one statement's result from a backend, consuming the
// row stream incrementally when the backend offers one (remote transport
// clients deliver row or columnar frames as they arrive) and falling
// back to materializing Execute otherwise. A streaming backend may replay
// from the top on a mid-stream retry; the sink's Reset keeps the gathered
// rows exactly-once either way. Every fragment fetch goes through here, so
// a shard's own memory stays bounded by its batch size whenever the
// backend can stream.
//
// Dispatch prefers a backend's context-aware face at equal streaming
// capability, so cancellation reaches as deep as the backend allows:
// ContextStreamExecutor > StreamExecutor > ContextExecutor > Execute.
func fetchResult(ctx context.Context, b Backend, stmt *sql.SelectStmt) (*sql.Result, error) {
	if se, ok := b.(wrapper.ContextStreamExecutor); ok {
		var sink wrapper.RowBuffer
		cols, err := se.ExecuteStreamCtx(ctx, stmt, &sink)
		if err != nil {
			return nil, err
		}
		return &sql.Result{Columns: cols, Rows: sink.Rows}, nil
	}
	if se, ok := b.(wrapper.StreamExecutor); ok {
		var sink wrapper.RowBuffer
		cols, err := se.ExecuteStream(stmt, &sink)
		if err != nil {
			return nil, err
		}
		return &sql.Result{Columns: cols, Rows: sink.Rows}, nil
	}
	if ce, ok := b.(wrapper.ContextExecutor); ok {
		return ce.ExecuteCtx(ctx, stmt)
	}
	return b.Execute(stmt)
}

// backendExists routes an existence probe through a backend's
// context-aware face when it has one, a plain ExecuteExists otherwise.
func backendExists(ctx context.Context, b Backend, stmt *sql.SelectStmt) (bool, error) {
	if ce, ok := b.(wrapper.ContextExistsExecutor); ok {
		return ce.ExecuteExistsCtx(ctx, stmt)
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}
	return b.ExecuteExists(stmt)
}

// itemsHaveAgg reports whether any projection item aggregates.
func itemsHaveAgg(stmt *sql.SelectStmt) bool {
	for _, it := range stmt.Items {
		if !it.Star && sql.ContainsAggregate(it.Expr) {
			return true
		}
	}
	return false
}
