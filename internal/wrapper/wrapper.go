// Package wrapper isolates QUEST from how a data source is accessed, the
// role of the paper's wrapper module: QUEST itself only consumes schema
// metadata, keyword→attribute relevance scores, optional instance
// statistics, and a SQL execution service.
//
// Two implementations are provided. FullAccessSource owns the database and
// answers relevance queries from full-text indexes and statistics from the
// instance — the "owned database" scenario. MetadataSource sees only the
// enriched schema (annotations, value patterns, data types) plus an
// ontology, and executes SQL through an opaque endpoint function — the
// hidden-source / Deep Web scenario, where QUEST still works but with
// coarser evidence.
package wrapper

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/fulltext"
	"repro/internal/mi"
	"repro/internal/ontology"
	"repro/internal/relational"
	"repro/internal/sql"
)

// ErrNoInstanceAccess is returned by instance-statistics methods of sources
// that cannot see the data.
var ErrNoInstanceAccess = errors.New("wrapper: source has no instance access")

// ConcurrentExecutor is an optional marker interface for sources whose
// Execute method is safe to invoke from multiple goroutines at once. The
// engine only parallelizes validation queries (PruneEmpty) by default over
// sources that report true; other sources get sequential execution unless
// the engine's Parallelism option explicitly opts in.
type ConcurrentExecutor interface {
	ExecutesConcurrently() bool
}

// ExistsExecutor is an optional interface for sources that can answer
// "does this query return any tuple?" without materializing the result.
// The engine's PruneEmpty validation asks exactly that question once per
// candidate configuration, so the answer's cost should not scale with the
// result size. Sources that do not implement it are served by the
// ExecuteExists helper through a LIMIT 1 probe on their Execute method.
type ExistsExecutor interface {
	ExecuteExists(stmt *sql.SelectStmt) (bool, error)
}

// SourceExecutor generalizes ExistsExecutor to the full execution surface a
// query coordinator needs from a backend: materializing execution plus the
// existence-only mode. It is the per-shard contract of the sharded
// execution layer (internal/shard) — anything that can run a SELECT and
// answer an emptiness probe can hold a partition of the data.
// FullAccessSource implements it over the in-memory engine.
type SourceExecutor interface {
	Execute(stmt *sql.SelectStmt) (*sql.Result, error)
	ExistsExecutor
}

// RowSink receives a streamed result's rows. Push is called once per row,
// in stream order; Reset discards everything delivered so far and restarts
// the stream from the top — the hook that lets a transport retry a failed
// attempt mid-stream without duplicating rows at the consumer. A Push
// error aborts the stream and propagates to the ExecuteStream caller.
//
// A pushed row is read-only and may alias table storage: an in-process
// source streams a bare single-table SELECT * as the stored rows
// themselves. A sink may keep the row (stored rows are never mutated in
// place; Insert only appends new ones) but must not write to its cells.
type RowSink interface {
	Reset()
	Push(row relational.Row) error
}

// ColumnSink is an optional RowSink face for sinks that want the column
// header before the first row. When a streaming executor knows the header
// up front it calls StartColumns exactly once, before any Push (and again
// after each Reset that replays the stream). A StartColumns error aborts
// the stream like a Push error.
type ColumnSink interface {
	StartColumns(cols []string) error
}

// BatchSink is an optional RowSink face for sinks that accept rows a batch
// at a time — the columnar transport client hands a whole decoded frame
// over in one call instead of re-looping per row. Semantics are identical
// to calling Push for each row in order; the sink must not retain the
// slice.
type BatchSink interface {
	PushBatch(rows []relational.Row) error
}

// StreamExecutor is the streaming face of a backend: rows are delivered to
// the sink as they arrive instead of materializing the whole result first,
// so a coordinator can start merging while a shard is still sending. The
// returned slice is the result's column header. Implementations may call
// sink.Reset and replay from the beginning (retries); consumers must treat
// the row set as final only when ExecuteStream returns nil.
type StreamExecutor interface {
	ExecuteStream(stmt *sql.SelectStmt, sink RowSink) ([]string, error)
}

// RowBuffer is the trivial materializing RowSink: it accumulates pushed
// rows in memory. It is the sink both the sharded coordinator (gathering
// a fragment) and the transport client (materializing Execute from
// ExecuteStream) use; one type, one Reset semantics.
type RowBuffer struct {
	Rows []relational.Row
}

// Reset implements RowSink.
func (b *RowBuffer) Reset() { b.Rows = b.Rows[:0] }

// Push implements RowSink.
func (b *RowBuffer) Push(r relational.Row) error {
	b.Rows = append(b.Rows, r)
	return nil
}

// PushBatch implements BatchSink.
func (b *RowBuffer) PushBatch(rows []relational.Row) error {
	b.Rows = append(b.Rows, rows...)
	return nil
}

// ContextExecutor is the optional context-aware face of Execute: sources
// that can abandon work when the caller gives up (remote transport
// clients closing the in-flight connection, coordinators cancelling their
// fan-out) implement it, and ExecuteContext dispatches through it. The
// contract mirrors the standard library's: on cancellation or an expired
// deadline the call returns promptly with the context's error (test with
// errors.Is against context.Canceled / context.DeadlineExceeded).
type ContextExecutor interface {
	ExecuteCtx(ctx context.Context, stmt *sql.SelectStmt) (*sql.Result, error)
}

// ContextExistsExecutor is the context-aware face of ExecuteExists.
type ContextExistsExecutor interface {
	ExecuteExistsCtx(ctx context.Context, stmt *sql.SelectStmt) (bool, error)
}

// ContextStreamExecutor is the context-aware face of ExecuteStream.
type ContextStreamExecutor interface {
	ExecuteStreamCtx(ctx context.Context, stmt *sql.SelectStmt, sink RowSink) ([]string, error)
}

// ExecuteContext runs a statement under a caller context, using the
// deepest cancellation support the source offers: its ContextExecutor
// face when present, a plain Execute otherwise (checked-at-entry only —
// an in-process source that has started executing cannot be interrupted,
// it just finishes and the result is discarded by the caller).
func ExecuteContext(ctx context.Context, src Source, stmt *sql.SelectStmt) (*sql.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if ce, ok := src.(ContextExecutor); ok {
		return ce.ExecuteCtx(ctx, stmt)
	}
	return src.Execute(stmt)
}

// ExecuteExistsContext is ExecuteExists under a caller context, with the
// same dispatch rule as ExecuteContext.
func ExecuteExistsContext(ctx context.Context, src Source, stmt *sql.SelectStmt) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if ce, ok := src.(ContextExistsExecutor); ok {
		return ce.ExecuteExistsCtx(ctx, stmt)
	}
	return ExecuteExists(src, stmt)
}

// StatisticsProvider is the instance-statistics face of a source: per-column
// distribution snapshots the SQL planner (and a sharding coordinator
// merging shard statistics) estimates from. Sources without instance access
// do not implement it.
type StatisticsProvider interface {
	ColumnStatistics(table, column string) (*relational.ColumnStats, error)
}

// Inserter is the write face of a backend: population-phase row inserts.
// Like relational.Table.Insert, implementations need not tolerate Insert
// racing queries on the same data — callers (the sharded coordinator, the
// transport server's replication path) serialize writes and quiesce reads
// around them. Backends without it are read-only to coordinators.
// (FullAccessSource goes further and serializes internally with a
// read/write lock, so the serving tier can interleave inserts with
// queries.)
type Inserter interface {
	Insert(table string, row relational.Row) error
}

// TableVersioner is the cache-invalidation face of a source: it reports a
// table's mutation counter so consumers (the engine's query cache, the
// serving tier's response cache) can validate cached entries per table
// instead of flushing everything on any write. The second return is false
// for unknown tables. Implementations must be cheap and safe to call
// concurrently with Insert — FullAccessSource reads the atomic
// relational.Table version.
type TableVersioner interface {
	TableVersion(table string) (uint64, bool)
}

// ExecuteExists reports whether the statement yields at least one tuple on
// the source, using the cheapest available path: the source's own
// existence mode when it implements ExistsExecutor, otherwise a LIMIT 1
// probe through Execute (ORDER BY is dropped — ordering cannot change
// emptiness — so pass-through endpoints do not pay a sort).
func ExecuteExists(src Source, stmt *sql.SelectStmt) (bool, error) {
	if ee, ok := src.(ExistsExecutor); ok {
		return ee.ExecuteExists(stmt)
	}
	if stmt.Limit == 0 {
		return false, nil
	}
	// Clone rather than mutate: the caller's statement may be cached (the
	// engine re-executes explanation statements across searches) and must
	// come back exactly as it went in, clause slices included.
	probe := stmt.Clone()
	probe.OrderBy = nil
	probe.Limit = 1
	res, err := src.Execute(probe)
	if err != nil {
		return false, err
	}
	return len(res.Rows) > 0, nil
}

// Source is the contract between QUEST and a data source.
type Source interface {
	// Name identifies the source in diagnostics.
	Name() string
	// Schema returns the source's (possibly enriched) schema.
	Schema() *relational.Schema
	// AttributeScore returns the normalized relevance of keyword for the
	// values of table.column, in [0,1]. This is the paper's "function that,
	// given a keyword and the database attributes, ranks the attribute
	// values on the basis of their importance".
	AttributeScore(table, column, keyword string) float64
	// HasInstanceAccess reports whether EdgeDistance uses real statistics.
	HasInstanceAccess() bool
	// EdgeDistance returns the mutual-information distance in [0,1] for a
	// PK/FK edge (or intra-table PK-attribute edge when both columns are in
	// the same table). Metadata-only sources return ErrNoInstanceAccess.
	EdgeDistance(e relational.JoinEdge) (float64, error)
	// Execute runs a SELECT and returns its materialized result.
	Execute(stmt *sql.SelectStmt) (*sql.Result, error)
}

// FullAccessSource exposes an owned relational database with full-text
// indexes built in the setup phase. It is safe for concurrent use,
// including mixed read/write traffic: the full-text index is read-only
// after setup, the statistics cache is mutex-guarded, and dataMu
// serializes Insert against the row-reading faces (Execute, ExecuteExists,
// ExecuteStream, ColumnStatistics, EdgeDistance) so the executor never
// scans a table mid-append.
type FullAccessSource struct {
	db    *relational.Database
	index *fulltext.Index

	// dataMu is held shared by every row-reading face and exclusively by
	// Insert. Reads still run concurrently with each other (the engine's
	// PruneEmpty fan-out depends on that); only writes are exclusive.
	dataMu sync.RWMutex

	edgeMu    sync.Mutex
	edgeCache map[string]float64
}

// NewFullAccessSource indexes the database (setup phase) and returns the
// source.
func NewFullAccessSource(db *relational.Database) *FullAccessSource {
	return &FullAccessSource{
		db:        db,
		index:     fulltext.BuildIndex(db),
		edgeCache: make(map[string]float64),
	}
}

// Name implements Source.
func (s *FullAccessSource) Name() string { return s.db.Name }

// Schema implements Source.
func (s *FullAccessSource) Schema() *relational.Schema { return s.db.Schema }

// Database exposes the underlying database (used by baselines and tests).
func (s *FullAccessSource) Database() *relational.Database { return s.db }

// Index exposes the full-text index (used by baselines).
func (s *FullAccessSource) Index() *fulltext.Index { return s.index }

// AttributeScore implements Source via the full-text index.
func (s *FullAccessSource) AttributeScore(table, column, keyword string) float64 {
	return s.index.Score(table, column, keyword)
}

// HasInstanceAccess implements Source.
func (s *FullAccessSource) HasInstanceAccess() bool { return true }

// EdgeDistance implements Source with information-theoretic statistics
// computed over the instance; results are cached (the backward module asks
// repeatedly during graph construction).
//
// Intra-table edges (PK↔attribute of one table) use the normalized MI
// distance between the two columns. Cross-table FK edges use
// 1 − JoinInformativeness, so dense well-covered joins are cheap and sparse
// link tables expensive — the signal that keeps Steiner trees on join paths
// that lead to actual tuples.
func (s *FullAccessSource) EdgeDistance(e relational.JoinEdge) (float64, error) {
	key := e.FromTable + "." + e.FromColumn + ">" + e.ToTable + "." + e.ToColumn
	s.edgeMu.Lock()
	d, ok := s.edgeCache[key]
	s.edgeMu.Unlock()
	if ok {
		return d, nil
	}
	s.dataMu.RLock()
	defer s.dataMu.RUnlock()
	from, to := s.db.Table(e.FromTable), s.db.Table(e.ToTable)
	if from == nil || to == nil {
		return 1, fmt.Errorf("wrapper: edge %s references an unknown table", key)
	}
	if strings.EqualFold(e.FromTable, e.ToTable) {
		ps, err := mi.IntraTable(from, e.FromColumn, e.ToColumn)
		if err != nil {
			return 1, err
		}
		d = ps.NormalizedDistance()
	} else {
		q, err := mi.JoinInformativeness(from, e.FromColumn, to, e.ToColumn)
		if err != nil {
			return 1, err
		}
		d = 1 - q
	}
	s.edgeMu.Lock()
	s.edgeCache[key] = d
	s.edgeMu.Unlock()
	return d, nil
}

// ColumnStatistics returns the backend's statistics snapshot for one
// column (distinct count, min/max, null fraction, histogram, most common
// values), building it lazily at the current table version. This is the
// instance-statistics face of the wrapper: metadata-only sources cannot
// provide it (ErrNoInstanceAccess), mirroring EdgeDistance.
func (s *FullAccessSource) ColumnStatistics(table, column string) (*relational.ColumnStats, error) {
	s.dataMu.RLock()
	defer s.dataMu.RUnlock()
	t := s.db.Table(table)
	if t == nil {
		return nil, fmt.Errorf("wrapper: unknown table %s", table)
	}
	return t.Stats(column)
}

// Insert implements Inserter directly on the owned database, excluding
// every row-reading face for the duration (dataMu) so the serving tier
// can interleave writes with queries. The table's indexes and statistics
// track the mutation incrementally (see relational/maintain.go), but the
// full-text relevance index is built once at setup and does not fold new
// rows in, exactly like the owned-shards sharded source.
func (s *FullAccessSource) Insert(table string, row relational.Row) error {
	s.dataMu.Lock()
	defer s.dataMu.Unlock()
	return s.db.Insert(table, row)
}

// TableVersion implements TableVersioner on the owned database's atomic
// per-table mutation counters; callers key caches on it.
func (s *FullAccessSource) TableVersion(table string) (uint64, bool) {
	t := s.db.Table(table)
	if t == nil {
		return 0, false
	}
	return t.Version(), true
}

// Execute implements Source directly on the engine.
func (s *FullAccessSource) Execute(stmt *sql.SelectStmt) (*sql.Result, error) {
	s.dataMu.RLock()
	defer s.dataMu.RUnlock()
	return sql.Execute(s.db, stmt)
}

// ExecuteExists implements ExistsExecutor through the engine's streaming
// existence mode: the query stops at its first surviving tuple.
func (s *FullAccessSource) ExecuteExists(stmt *sql.SelectStmt) (bool, error) {
	s.dataMu.RLock()
	defer s.dataMu.RUnlock()
	return sql.Exists(s.db, stmt)
}

// ExecuteStream implements StreamExecutor directly on the engine's
// streaming executor: order-insensitive statements flow row by row with
// O(1) working memory, others fall back to materialized execution and
// replay. The sink's ColumnSink face, when present, receives the header
// before the first row.
func (s *FullAccessSource) ExecuteStream(stmt *sql.SelectStmt, sink RowSink) ([]string, error) {
	s.dataMu.RLock()
	defer s.dataMu.RUnlock()
	sink.Reset()
	var cols []string
	err := sql.ExecuteStream(s.db, stmt,
		func(c []string) error {
			cols = c
			if cs, ok := sink.(ColumnSink); ok {
				return cs.StartColumns(c)
			}
			return nil
		},
		sink.Push)
	if err != nil {
		return nil, err
	}
	return cols, nil
}

// ExecutesConcurrently implements ConcurrentExecutor: the in-memory SQL
// executor only reads the (post-population) database.
//
// FullAccessSource deliberately does NOT implement the Context* execution
// faces: the in-memory executor cannot be interrupted mid-plan, so they
// could only repeat the entry check ExecuteContext/ExecuteExistsContext
// already perform — and their presence would be promoted through types
// that embed FullAccessSource and override only Execute/ExecuteExists
// (test doubles, decorators), silently routing context-aware callers
// around the override.
func (s *FullAccessSource) ExecutesConcurrently() bool { return true }

// Endpoint executes SQL on behalf of a hidden source: the only way a
// MetadataSource can touch data, mirroring a web form or service endpoint.
// The engine invokes the endpoint sequentially unless the source was marked
// concurrency-safe (SetConcurrentSafe, before engine construction) — mark
// it safe to let PruneEmpty validation fan out.
type Endpoint func(stmt *sql.SelectStmt) (*sql.Result, error)

// MetadataSource sees only schema metadata and an ontology. Keyword
// relevance is guessed from column name similarity, annotations, value
// patterns (regular expressions of admissible values) and data-type
// compatibility — the paper's enriched-schema wrapper for Deep Web sources.
type MetadataSource struct {
	name     string
	schema   *relational.Schema
	thes     *ontology.Thesaurus
	endpoint Endpoint
	// concurrentSafe declares the endpoint tolerates concurrent calls;
	// false (the default) keeps the engine's validation queries sequential.
	concurrentSafe bool
}

// SetConcurrentSafe declares whether the endpoint may be invoked from
// multiple goroutines at once. Leave false (the default) for endpoints
// with shared mutable state; built-in wrappers over the in-memory engine
// set it true. The engine reads the flag once at construction, so call
// this before building an engine over the source — later calls have no
// effect on existing engines.
func (s *MetadataSource) SetConcurrentSafe(on bool) { s.concurrentSafe = on }

// ExecutesConcurrently implements ConcurrentExecutor.
func (s *MetadataSource) ExecutesConcurrently() bool { return s.concurrentSafe }

// NewMetadataSource builds a metadata-only source. The endpoint may be nil,
// in which case Execute fails (pure planning mode).
func NewMetadataSource(name string, schema *relational.Schema, thes *ontology.Thesaurus, endpoint Endpoint) *MetadataSource {
	if thes == nil {
		thes = ontology.NewThesaurus()
	}
	// Compile value patterns now: AttributeScore may be called from many
	// goroutines at once, and lazy compilation inside MatchesPattern would
	// race.
	schema.CompilePatterns()
	return &MetadataSource{name: name, schema: schema, thes: thes, endpoint: endpoint}
}

// Name implements Source.
func (s *MetadataSource) Name() string { return s.name }

// Schema implements Source.
func (s *MetadataSource) Schema() *relational.Schema { return s.schema }

// HasInstanceAccess implements Source.
func (s *MetadataSource) HasInstanceAccess() bool { return false }

// EdgeDistance implements Source: no instance, no statistics.
func (s *MetadataSource) EdgeDistance(relational.JoinEdge) (float64, error) {
	return 1, ErrNoInstanceAccess
}

// AttributeScore implements Source from metadata only. The score combines:
//   - value-pattern admissibility (a keyword that cannot match the column's
//     regular expression scores 0 on the value dimension),
//   - data-type compatibility (numeric keywords fit numeric columns),
//   - ontology relatedness and name similarity between the keyword and the
//     column name or its annotations (a keyword "thriller" is admissible in
//     a column annotated "genre").
func (s *MetadataSource) AttributeScore(table, column, keyword string) float64 {
	ts := s.schema.Table(table)
	if ts == nil {
		return 0
	}
	col := ts.Column(column)
	if col == nil {
		return 0
	}
	score := 0.0

	// Pattern admissibility: a matching pattern is strong evidence that the
	// keyword is a value of this attribute.
	if col.Pattern != "" {
		if col.MatchesPattern(keyword) {
			score = 0.8
		} else {
			return 0
		}
	}

	// Type compatibility.
	if isNumericKeyword(keyword) {
		if col.Type == relational.TypeInt || col.Type == relational.TypeFloat {
			if score < 0.5 {
				score = 0.5
			}
		} else if col.Pattern == "" {
			// Numeric keyword against an unconstrained text column: weak.
			score = maxf(score, 0.1)
		}
	} else if col.Type == relational.TypeInt || col.Type == relational.TypeFloat {
		// Non-numeric keyword cannot be a value of a numeric column.
		if col.Pattern == "" {
			return 0
		}
	}

	// Ontology / annotation evidence: the keyword names the kind of thing
	// the column stores.
	best := 0.0
	for _, ann := range col.Annotations {
		if r := s.thes.Related(keyword, ann); r > best {
			best = r
		}
		if n := ontology.NameSimilarity(keyword, ann); n > best {
			best = n * 0.8
		}
	}
	if r := s.thes.Related(keyword, col.Name); r > best {
		best = r
	}
	score = maxf(score, best*0.6)

	// Unconstrained free-text columns accept any non-numeric keyword weakly:
	// the wrapper cannot rule them out.
	if score == 0 && col.Type == relational.TypeString && col.Pattern == "" && !isNumericKeyword(keyword) {
		score = 0.05
	}
	return score
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func isNumericKeyword(k string) bool {
	k = strings.TrimSpace(k)
	if k == "" {
		return false
	}
	if _, err := strconv.ParseFloat(k, 64); err == nil {
		return true
	}
	return false
}

// Execute implements Source through the endpoint.
func (s *MetadataSource) Execute(stmt *sql.SelectStmt) (*sql.Result, error) {
	if s.endpoint == nil {
		return nil, fmt.Errorf("wrapper: source %s has no execution endpoint", s.name)
	}
	return s.endpoint(stmt)
}

// HiddenSourceFor wraps an owned database as if it were a Deep Web source:
// QUEST sees only the schema (with whatever annotations it carries) and may
// execute queries through the endpoint, but cannot index or scan the data.
// Used by the deep-web example and experiment E6.
func HiddenSourceFor(db *relational.Database, thes *ontology.Thesaurus) *MetadataSource {
	s := NewMetadataSource(db.Name+"-hidden", db.Schema, thes,
		func(stmt *sql.SelectStmt) (*sql.Result, error) {
			return sql.Execute(db, stmt)
		})
	s.SetConcurrentSafe(true) // endpoint is the read-only in-memory executor
	return s
}
