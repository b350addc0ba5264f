// Package quest is the public API of the QUEST reproduction: a keyword
// search system for relational data that translates keyword queries into
// ranked SQL queries by combining a Hidden-Markov-Model forward step,
// a schema-level Steiner-tree backward step, and Dempster–Shafer evidence
// combination (Bergamaschi et al., PVLDB 6(12), 2013).
//
// # Quickstart
//
//	db := quest.BuildIMDB(quest.DatasetConfig{Seed: 42, Scale: 1})
//	eng := quest.Open(db, quest.Defaults())
//	results, err := eng.Search("scorsese thriller")
//	for _, ex := range results {
//	    fmt.Println(ex.Belief, ex.SQL)
//	    rows, _ := eng.Execute(ex)
//	    fmt.Println(rows)
//	}
//
// The package re-exports the pieces a downstream user needs: engine
// construction over owned databases (full access) or hidden sources
// (metadata-only wrapper), feedback training, uncertainty tuning, dataset
// generators and the relational engine types required to define custom
// schemas.
//
// # Performance
//
// Engine is safe for concurrent use: any number of goroutines may call
// Search while others train feedback or tune uncertainties. The fan-out
// points of Algorithm 1 — per-terminal-set Steiner decoding and candidate
// SQL validation under PruneEmpty — run across a bounded worker pool sized
// by Options.Parallelism (default runtime.GOMAXPROCS(0)) and shared by all
// concurrent calls; result order is identical to the sequential path, so
// parallelism is purely a latency knob. Validation queries call into the
// source, so they only fan out when the source declares Execute
// concurrency-safe (built-in sources do) or Parallelism explicitly opts
// in.
//
// Generated SQL runs through a statistics-driven cost-based planner
// (internal/sql): equality and IN predicates route through secondary hash
// indexes, MATCH through full-text postings, every other single-table
// predicate (ranges included) is a filter pushed below the joins,
// multi-joins are reordered by a Selinger-style search over per-column
// statistics (row, NULL and distinct counts, min/max — built on first use
// and kept exact by every insert), hash joins build on the
// estimated-smaller side, and PruneEmpty validation queries execute in
// existence-only mode that stops at the first surviving tuple. ExplainSQL
// and ExplainAnalyzeSQL (and Result.Plan) expose the chosen plan with
// estimated vs actual cardinalities.
//
// Two engine-level caches serve repeat work. A query cache
// (Options.QueryCacheSize) maps a search's tokenized keywords to its final
// ranked explanations, and the backward module memoizes Steiner
// decodings per terminal set (Options.Backward.CacheSize); both are
// mutex-sharded LRUs safe under concurrent traffic.
//
// Cache staleness is managed with an epoch counter rather than explicit
// invalidation: every query-cache key embeds the engine's current epoch,
// and every state change that could alter rankings — AddFeedback,
// AddNegativeFeedback, SetUncertainty, AutoAdapt — bumps it, making all
// earlier entries unreachable (they age out of the LRU naturally). The
// Steiner memo never goes stale because the schema graph is immutable
// after setup. Mutating the forward module directly (for example
// Engine.Forward().RetrainEM) bypasses the engine's bookkeeping; call
// Engine.InvalidateCaches afterwards.
package quest

import (
	"errors"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/ontology"
	"repro/internal/relational"
	"repro/internal/shard"
	"repro/internal/sql"
	"repro/internal/transport"
	"repro/internal/wrapper"
)

// Re-exported core types. See the internal packages for full documentation.
type (
	// Engine is the assembled QUEST system over one source.
	Engine = core.Engine
	// Options configures an Engine.
	Options = core.Options
	// Uncertainty holds the four Dempster–Shafer ignorance degrees
	// (OCap, OCf, OC, OI) of Algorithm 1.
	Uncertainty = core.Uncertainty
	// Explanation is one ranked result: configuration + join path +
	// belief + SQL.
	Explanation = core.Explanation
	// Configuration maps each keyword to a database term.
	Configuration = core.Configuration
	// Term is a database term (table, attribute, or attribute domain).
	Term = core.Term
	// Interpretation is a join path over the schema graph.
	Interpretation = core.Interpretation

	// Database is a populated in-memory relational database.
	Database = relational.Database
	// Schema describes tables, columns and keys.
	Schema = relational.Schema
	// TableSchema describes one table.
	TableSchema = relational.TableSchema
	// Column describes one attribute, with optional annotations and value
	// pattern used by the metadata wrapper.
	Column = relational.Column
	// ForeignKey declares a referential link.
	ForeignKey = relational.ForeignKey
	// Row is one tuple.
	Row = relational.Row
	// Value is one typed cell.
	Value = relational.Value

	// Source abstracts data-source access (full or metadata-only).
	Source = wrapper.Source
	// ShardedSource executes over N hash-partitioned backends with
	// predicate pushdown, partition pruning and scatter-gather merge.
	ShardedSource = shard.ShardedSource
	// ShardStats snapshots a sharded source's coordinator counters.
	ShardStats = shard.Stats
	// ShardBackend is the per-shard executor contract a ShardedSource
	// coordinates (local sources and remote transport clients alike).
	ShardBackend = shard.Backend
	// RemoteClient executes against one remote shard (a questshardd
	// process) with connection pooling, retries and hedged reads. Clients
	// over a replica group additionally carry the fleet surface: Insert
	// (the replicated write path), FleetStatus, ProbeNow.
	RemoteClient = transport.Client
	// RemoteClientStats snapshots a remote client's transport counters:
	// the read path (attempts, retries, hedges, hedge wins, dials, bytes)
	// and the replication path (inserts, replication acks, fenced writes,
	// probes, probe failures, demotions, promotions, replays).
	RemoteClientStats = transport.ClientStats
	// FleetStatus snapshots a replicated client's replica catalog: the
	// fenced epoch, the elected primary, and each replica's rotation
	// membership and applied sequence.
	FleetStatus = transport.FleetStatus
	// ReplicaStatus is one replica's row in a FleetStatus.
	ReplicaStatus = transport.ReplicaStatus
	// TransportOptions tunes the remote transport: retry policy, pool
	// size, timeouts, hedged-read arming.
	TransportOptions = transport.Options
	// Result is a materialized SQL result.
	Result = sql.Result
	// SQLQueryPlan is the introspectable execution plan attached to every
	// Result: access paths, join order, estimated vs actual cardinalities.
	SQLQueryPlan = sql.QueryPlan
	// SQLPlannerStats snapshots the planning layer's counters.
	SQLPlannerStats = sql.PlannerStats
	// ColumnStats is a per-column statistics snapshot (row, NULL and
	// distinct counts, min/max).
	ColumnStats = relational.ColumnStats

	// Thesaurus is the ontology used for semantic matching.
	Thesaurus = ontology.Thesaurus

	// DatasetConfig sizes the built-in dataset generators.
	DatasetConfig = datasets.Config
)

// Term kinds.
const (
	KindTable     = core.KindTable
	KindAttribute = core.KindAttribute
	KindDomain    = core.KindDomain
)

// Value constructors, re-exported for schema/population code.
var (
	// Int builds an integer value.
	Int = relational.Int
	// Float builds a float value.
	Float = relational.Float
	// Text builds a string value.
	Text = relational.String_
	// Bool builds a boolean value.
	Bool = relational.Bool
	// Null builds the NULL value.
	Null = relational.Null
)

// Defaults returns the standard engine options: k=10, cold-start
// uncertainties (a-priori trusted, feedback distrusted), MI-weighted
// schema graph with sub-tree pruning, and the built-in thesaurus.
func Defaults() Options {
	o := core.DefaultOptions()
	o.Thesaurus = ontology.DefaultThesaurus()
	return o
}

// AdaptUncertainty re-derives the forward-mode ignorance degrees from the
// number of accumulated validated searches (the paper's adaptation rule:
// trust feedback more as it accumulates). Engines can do this automatically
// via Engine.AutoAdapt(true).
func AdaptUncertainty(u Uncertainty, feedbackCount int) Uncertainty {
	return core.AdaptUncertainty(u, feedbackCount)
}

// Open wraps an owned database with full access (full-text indexes are
// built here — the paper's setup phase) and assembles the engine.
func Open(db *Database, opts Options) *Engine {
	return core.NewEngine(wrapper.NewFullAccessSource(db), opts)
}

// OpenSource assembles the engine over any Source implementation, e.g. a
// metadata-only wrapper for Deep Web sources.
func OpenSource(src Source, opts Options) *Engine {
	return core.NewEngine(src, opts)
}

// OpenHidden wraps a database as a hidden source: QUEST sees only schema
// metadata (annotations, value patterns, types) and executes SQL through an
// opaque endpoint, as with a web form. Quality relies on the enriched
// schema and the ontology rather than full-text statistics.
func OpenHidden(db *Database, thes *Thesaurus, opts Options) *Engine {
	return core.NewEngine(wrapper.HiddenSourceFor(db, thes), opts)
}

// OpenSharded hash-partitions the database into n shards and assembles the
// engine over the sharded execution layer: generated SQL is split into
// pushdown fragments executed where the rows live (each shard plans its
// fragment with its own local indexes and statistics), existence
// validations fan out per shard and short-circuit on the first witness,
// and Engine.ColumnStatistics reports whole-data summaries merged from the
// shards instead of shipped rows. The engine behaves like Open
// semantically; only the execution topology changes. The database's rows
// are copied into the shards — treat the returned engine's source as the
// owner from here on.
func OpenSharded(db *Database, n int, opts Options) (*Engine, error) {
	parts, err := shard.Partition(db, n)
	if err != nil {
		return nil, err
	}
	src, err := shard.New(db.Name, parts, shard.Options{Workers: opts.Parallelism})
	if err != nil {
		return nil, err
	}
	return core.NewEngine(src, opts), nil
}

// PartitionDatabase hash-partitions a database into n databases over the
// same schema (PK hash routing; round-robin for keyless tables), the raw
// material for a custom sharded deployment.
func PartitionDatabase(db *Database, n int) ([]*Database, error) {
	return shard.Partition(db, n)
}

// errNoShards rejects an empty remote topology.
var errNoShards = errors.New("quest: no remote shards given")

// ErrReadOnlyTopology is returned (wrapped — test with errors.Is) by
// ShardedSource.Insert when the topology has no write surface: a backend
// without an insert path, or remote shard servers whose backend accepts
// no writes.
var ErrReadOnlyTopology = shard.ErrReadOnlyTopology

// RemoteOptions configures a coordinator over remote shards.
type RemoteOptions struct {
	// Transport tunes every shard client: retry policy, connection pool
	// size, timeouts, hedged reads (Transport.Hedge arms racing a second
	// replica when a shard exceeds its recent latency quantile), and
	// fleet health probing (Transport.ProbeInterval starts a background
	// prober per shard group; Transport.ProbeFailThreshold failures
	// demote a replica, promoting a backup when it was the primary).
	Transport TransportOptions
	// AssumeHashRouting declares the remote shards hold partitions
	// produced by PartitionDatabase with the same shard count (questshardd
	// started with matching -shards flags), enabling PK partition pruning.
	// Leave false for shards with unknown row placement.
	AssumeHashRouting bool
	// Workers bounds the coordinator's in-flight shard requests per query;
	// 0 selects GOMAXPROCS.
	Workers int
}

// DialShards connects a sharded coordinator source to remote shard
// servers (questshardd). shardAddrs[i] lists the address of shard i's
// server, plus any replicas of it: hedged reads race the replica list,
// and each group gets a replica catalog — writes (ShardedSource.Insert)
// route to an elected, epoch-fenced primary that replicates to its
// backups synchronously, health probes demote dead replicas and fail
// over the primary, and rejoining replicas are replayed from the
// primary's op log. The returned source implements the full wrapper
// surface: generated SQL ships as pushdown fragments, rows stream back
// in length-prefixed frames, statistics and relevance evidence are
// merged shard summaries. Close it to release the pooled connections
// and stop the probers.
func DialShards(schema *Schema, name string, shardAddrs [][]string, ropt RemoteOptions) (*ShardedSource, error) {
	if len(shardAddrs) == 0 {
		return nil, errNoShards
	}
	backends := make([]shard.Backend, len(shardAddrs))
	for i, addrs := range shardAddrs {
		c, err := transport.Dial(addrs, ropt.Transport)
		if err != nil {
			return nil, err
		}
		backends[i] = c
	}
	return shard.NewFromBackends(name, schema, backends, shard.Options{
		Workers:           ropt.Workers,
		AssumeHashRouting: ropt.AssumeHashRouting,
	}), nil
}

// OpenRemote assembles the engine over remote shards: a network-
// transparent variant of OpenSharded where each shard lives in its own
// process behind questshardd. The schema must describe the partitioned
// database (the dataset builders and NewSchema produce it); everything
// else — fragment execution, existence fan-out, statistics merge — runs
// over the wire.
func OpenRemote(schema *Schema, name string, shardAddrs [][]string, ropt RemoteOptions, opts Options) (*Engine, error) {
	src, err := DialShards(schema, name, shardAddrs, ropt)
	if err != nil {
		return nil, err
	}
	return core.NewEngine(src, opts), nil
}

// NewSchema returns an empty schema for custom databases.
func NewSchema() *Schema { return relational.NewSchema() }

// NewDatabase creates a database with empty tables for the schema.
func NewDatabase(name string, schema *Schema) (*Database, error) {
	return relational.NewDatabase(name, schema)
}

// DefaultThesaurus returns the built-in ontology covering the three demo
// domains plus generic database vocabulary.
func DefaultThesaurus() *Thesaurus { return ontology.DefaultThesaurus() }

// BuildIMDB generates the synthetic IMDB-like database (simple star schema,
// many rows; scalable).
func BuildIMDB(cfg DatasetConfig) *Database { return datasets.IMDB(cfg) }

// BuildMondial generates the synthetic Mondial-like database (complex
// schema, few rows).
func BuildMondial(cfg DatasetConfig) *Database { return datasets.Mondial(cfg) }

// BuildDBLP generates the synthetic DBLP-like database (large instance,
// non-trivial schema; scalable).
func BuildDBLP(cfg DatasetConfig) *Database { return datasets.DBLP(cfg) }

// Tokenize splits a raw query string into keywords, honoring double-quoted
// phrases.
func Tokenize(query string) []string { return core.Tokenize(query) }

// RenderExplanation draws the database portion touched by an explanation as
// an ASCII graph (the demo GUI's result visualization).
func RenderExplanation(ex *Explanation) string { return core.RenderTree(ex) }

// ParseSQL parses a statement of the supported SELECT dialect.
func ParseSQL(src string) (*sql.SelectStmt, error) { return sql.Parse(src) }

// RunSQL parses and executes a query against an owned database.
func RunSQL(db *Database, src string) (*Result, error) { return sql.Run(db, src) }

// ExplainSQL renders the execution plan the engine would use for a query.
func ExplainSQL(db *Database, src string) (string, error) { return sql.ExplainQuery(db, src) }

// ExplainAnalyzeSQL executes a query and renders its plan with the
// observed cardinality next to each estimate.
func ExplainAnalyzeSQL(db *Database, src string) (string, error) {
	stmt, err := sql.Parse(src)
	if err != nil {
		return "", err
	}
	return sql.ExplainAnalyze(db, stmt)
}

// PlannerStats snapshots the SQL planning layer's process-wide counters
// (access paths taken, join reorders applied, cache behavior).
func PlannerStats() SQLPlannerStats { return sql.Stats() }
