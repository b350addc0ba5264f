// Component micro-benchmarks of the engine's building blocks (`make bench`;
// `make bench-smoke` runs each once so they cannot rot). The paper's
// evaluation (E1–E8) is pinned by TestPaperExperimentsGolden in
// internal/eval, and end-to-end performance is measured by benchmark/.
package quest_test

import (
	"fmt"
	"strings"
	"testing"

	quest "repro"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/fulltext"
	"repro/internal/relational"
	"repro/internal/shard"
	"repro/internal/sql"
	"repro/internal/transport"
	"repro/internal/wrapper"
)

func engineFor(db *quest.Database) *quest.Engine {
	return quest.Open(db, quest.Defaults())
}

func BenchmarkComponent_FullTextIndexBuild(b *testing.B) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fulltext.BuildIndex(db)
	}
}

func BenchmarkComponent_ListViterbiK10(b *testing.B) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 1})
	eng := engineFor(db)
	kws := []string{"smith", "drama", "2008"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Forward().TopKApriori(kws, 10)
	}
}

func BenchmarkComponent_SteinerTopK(b *testing.B) {
	db := datasets.Mondial(datasets.Config{Seed: 42, Scale: 1})
	eng := engineFor(db)
	c := &core.Configuration{
		Keywords: []string{"a", "b", "c"},
		Terms: []core.Term{
			{Kind: core.KindDomain, Table: "city", Column: "name"},
			{Kind: core.KindDomain, Table: "river", Column: "name"},
			{Kind: core.KindDomain, Table: "organization", Column: "name"},
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Backward().TopK(c, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComponent_SQLExecutorJoin(b *testing.B) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 4})
	src := wrapper.NewFullAccessSource(db)
	stmt, err := quest.ParseSQL(`SELECT DISTINCT person.name, movie.title FROM person
		JOIN cast_info ON cast_info.person_id = person.person_id
		JOIN movie ON movie.movie_id = cast_info.movie_id
		WHERE movie.genre MATCH 'drama'`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := src.Execute(stmt); err != nil {
			b.Fatal(err)
		}
	}
}

// shardedSourceFor partitions a fresh IMDB instance and opens the sharded
// execution layer over it.
func shardedSourceFor(b *testing.B, shards int) *quest.ShardedSource {
	b.Helper()
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 4})
	parts, err := quest.PartitionDatabase(db, shards)
	if err != nil {
		b.Fatal(err)
	}
	src, err := shard.New(db.Name, parts, shard.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return src
}

// BenchmarkComponent_ShardedJoinGather measures the scatter-gather join
// path: pushed-down fragments on 4 shards, coordinator join/finish.
// Compare against BenchmarkComponent_SQLExecutorJoin (same statement,
// single node).
func BenchmarkComponent_ShardedJoinGather(b *testing.B) {
	src := shardedSourceFor(b, 4)
	stmt, err := quest.ParseSQL(`SELECT DISTINCT person.name, movie.title FROM person
		JOIN cast_info ON cast_info.person_id = person.person_id
		JOIN movie ON movie.movie_id = cast_info.movie_id
		WHERE movie.genre MATCH 'drama'`)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := src.Execute(stmt); err != nil { // warm shard plans/indexes
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := src.Execute(stmt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComponent_ShardedExists measures the validation shape over the
// sharded layer: a join existence probe that gathers pushed-down fragments
// and stops at the coordinator's first witness row.
func BenchmarkComponent_ShardedExists(b *testing.B) {
	src := shardedSourceFor(b, 4)
	stmt, err := quest.ParseSQL(`SELECT person.name FROM person
		JOIN cast_info ON cast_info.person_id = person.person_id
		JOIN movie ON movie.movie_id = cast_info.movie_id
		WHERE movie.genre MATCH 'drama'`)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := src.ExecuteExists(stmt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := src.ExecuteExists(stmt)
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			b.Fatal("probe lost its witness rows")
		}
	}
}

// BenchmarkComponent_ShardedPointLookup measures a PK point query through
// partition pruning: one fragment query against one of four shards.
func BenchmarkComponent_ShardedPointLookup(b *testing.B) {
	src := shardedSourceFor(b, 4)
	stmt, err := quest.ParseSQL("SELECT title FROM movie WHERE movie_id = 100")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := src.Execute(stmt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := src.Execute(stmt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComponent_RemoteGather measures the full wire path of the
// gather: pushed-down join fragments on 4 loopback shards, row batches
// decoded at the coordinator.
func BenchmarkComponent_RemoteGather(b *testing.B) {
	stmt, err := quest.ParseSQL(`SELECT DISTINCT person.name, movie.title FROM person
		JOIN cast_info ON cast_info.person_id = person.person_id
		JOIN movie ON movie.movie_id = cast_info.movie_id
		WHERE movie.genre MATCH 'drama'`)
	if err != nil {
		b.Fatal(err)
	}
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 4})
	parts, err := quest.PartitionDatabase(db, 4)
	if err != nil {
		b.Fatal(err)
	}
	backends := make([]shard.Backend, len(parts))
	for i, p := range parts {
		c, err := transport.NewLoopbackClient(wrapper.NewFullAccessSource(p), transport.Options{})
		if err != nil {
			b.Fatal(err)
		}
		backends[i] = c
	}
	src := shard.NewFromBackends(db.Name, db.Schema, backends,
		shard.Options{AssumeHashRouting: true})
	defer src.Close()
	if _, err := src.Execute(stmt); err != nil { // warm shard plans
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := src.Execute(stmt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComponent_ReducedFragmentServe measures the shard side of a
// semi-join-reduced gather: two fragments restricted to 1 024-key IN lists
// — one served by the movie_id index, one residual behind the role
// equality probe and answered by the compiled membership test — streamed
// as SELECT * over a loopback connection and decoded by the client.
func BenchmarkComponent_ReducedFragmentServe(b *testing.B) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 4})
	keys := func(n int) string {
		parts := make([]string, 1024)
		for i := range parts {
			parts[i] = fmt.Sprint(1 + i*n/1024)
		}
		return strings.Join(parts, ", ")
	}
	stmts := []*sql.SelectStmt{
		mustParseSQL(b, "SELECT * FROM cast_info WHERE cast_info.movie_id IN ("+
			keys(db.Table("movie").Len())+")"),
		mustParseSQL(b, "SELECT * FROM cast_info WHERE cast_info.role = 'actor' AND cast_info.person_id IN ("+
			keys(db.Table("person").Len())+")"),
	}
	c, err := transport.NewLoopbackClient(wrapper.NewFullAccessSource(db), transport.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	for _, stmt := range stmts { // warm plans and indexes
		if _, err := c.Execute(stmt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, stmt := range stmts {
			if _, err := c.Execute(stmt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Concurrency and caching benchmarks (the perf-PR scorecard): warm vs cold
// query cache, sequential vs parallel backward fan-out, and whole-engine
// parallel throughput over a shared engine.

// benchQueries returns a deterministic workload of keyword strings.
func benchQueries(db *quest.Database, n int) []string {
	g := eval.NewGenerator(db, 7)
	w := g.Generate("imdb", eval.IMDBTemplates(), 3)
	out := make([]string, 0, n)
	for i := 0; len(out) < n; i++ {
		q := w.Queries[i%len(w.Queries)]
		out = append(out, strings.Join(q.Keywords, " "))
	}
	return out
}

func BenchmarkComponent_SearchColdCache(b *testing.B) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 1})
	opts := quest.Defaults()
	opts.QueryCacheSize = -1     // every Search runs the full pipeline
	opts.Backward.CacheSize = -1 // ...including a real Steiner decode
	eng := quest.Open(db, opts)
	qs := benchQueries(db, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Search(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComponent_SearchWarmCache(b *testing.B) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 1})
	eng := quest.Open(db, quest.Defaults())
	qs := benchQueries(db, 8)
	for _, q := range qs { // warm the cache
		if _, err := eng.Search(q); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Search(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComponent_ParallelSearchThroughput drives one shared engine from
// GOMAXPROCS goroutines (b.RunParallel), the "heavy traffic" serving shape.
// The query mix cycles per goroutine so both cache hits and full pipeline
// runs occur.
func BenchmarkComponent_ParallelSearchThroughput(b *testing.B) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 1})
	eng := quest.Open(db, quest.Defaults())
	qs := benchQueries(db, 16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := eng.Search(qs[i%len(qs)]); err != nil {
				// b.Fatal must not run on a RunParallel worker goroutine.
				b.Error(err)
				return
			}
			i++
		}
	})
}

// BenchmarkComponent_ParallelSearchThroughputColdCache is the same shape
// with the query cache disabled: it isolates the concurrency win (shared
// engine, parallel pipelines) from the caching win.
func BenchmarkComponent_ParallelSearchThroughputColdCache(b *testing.B) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 1})
	opts := quest.Defaults()
	opts.QueryCacheSize = -1
	opts.Backward.CacheSize = -1
	eng := quest.Open(db, opts)
	qs := benchQueries(db, 16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := eng.Search(qs[i%len(qs)]); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// BenchmarkComponent_Interpretations compares the sequential and parallel
// backward fan-out on identical configurations (Steiner memo disabled so
// each TopK really decodes).
func BenchmarkComponent_Interpretations(b *testing.B) {
	db := datasets.Mondial(datasets.Config{Seed: 42, Scale: 1})
	for _, par := range []int{1, 0} { // 0 = GOMAXPROCS
		name := "sequential"
		if par == 0 {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			opts := quest.Defaults()
			opts.Parallelism = par
			opts.Backward.CacheSize = -1
			eng := quest.Open(db, opts)
			configs, err := eng.Configurations([]string{"italy", "city", "river"})
			if err != nil || len(configs) == 0 {
				b.Fatalf("no configurations: %v", err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Interpretations(configs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkComponent_SteinerTopKMemoized measures the backward module's
// memo hit path (same terminal set decoded repeatedly).
func BenchmarkComponent_SteinerTopKMemoized(b *testing.B) {
	db := datasets.Mondial(datasets.Config{Seed: 42, Scale: 1})
	eng := engineFor(db)
	c := &core.Configuration{
		Keywords: []string{"a", "b", "c"},
		Terms: []core.Term{
			{Kind: core.KindDomain, Table: "city", Column: "name"},
			{Kind: core.KindDomain, Table: "river", Column: "name"},
			{Kind: core.KindDomain, Table: "organization", Column: "name"},
		},
	}
	if _, err := eng.Backward().TopK(c, 10); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Backward().TopK(c, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComponent_Tokenize measures the zero-allocation tokenizer fast
// path on representative cell text.
func BenchmarkComponent_Tokenize(b *testing.B) {
	inputs := []string{
		"the dark night returns 2008",
		"alice kurosawa",
		"a fairly long movie title with many lowercase ascii tokens in it",
	}
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		fulltext.TokenizeEach(inputs[i%len(inputs)], func(string) { n++ })
	}
	_ = n
}

// ---------------------------------------------------------------------------
// Planner benchmarks (PR 2 scorecard): indexed selection and pushed-down
// joins vs the retained full-scan interpreter, and the existence-only
// validation path vs materializing execution as results grow.

func mustParseSQL(b *testing.B, src string) *sql.SelectStmt {
	b.Helper()
	stmt, err := quest.ParseSQL(src)
	if err != nil {
		b.Fatal(err)
	}
	return stmt
}

// BenchmarkComponent_SQLIndexedSelection: point equality on the primary
// key — the planner probes the hash index, the reference interprets the
// predicate over a full scan.
func BenchmarkComponent_SQLIndexedSelection(b *testing.B) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 16})
	stmt := mustParseSQL(b, "SELECT title FROM movie WHERE movie_id = 100")
	b.Run("planned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sql.Execute(db, stmt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sql.ExecuteFullScan(db, stmt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkComponent_SQLJoinPushdown: a three-way join whose single-table
// MATCH predicate the planner evaluates below the joins, against the
// reference that joins everything first and filters last.
func BenchmarkComponent_SQLJoinPushdown(b *testing.B) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 4})
	stmt := mustParseSQL(b, `SELECT DISTINCT person.name, movie.title FROM person
		JOIN cast_info ON cast_info.person_id = person.person_id
		JOIN movie ON movie.movie_id = cast_info.movie_id
		WHERE movie.genre MATCH 'drama'`)
	b.Run("planned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sql.Execute(db, stmt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sql.ExecuteFullScan(db, stmt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkComponent_PruneValidationExists is the PruneEmpty cost model:
// a validation query only needs to know whether any tuple survives. The
// existence path must stay flat as the instance (and the result) grows,
// while materializing execution scales with it.
func BenchmarkComponent_PruneValidationExists(b *testing.B) {
	const src = `SELECT person.name, movie.title FROM person
		JOIN cast_info ON cast_info.person_id = person.person_id
		JOIN movie ON movie.movie_id = cast_info.movie_id`
	for _, scale := range []int{1, 4, 16} {
		db := datasets.IMDB(datasets.Config{Seed: 42, Scale: scale})
		stmt := mustParseSQL(b, src)
		b.Run(fmt.Sprintf("exists-scale%d", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ok, err := sql.Exists(db, stmt)
				if err != nil || !ok {
					b.Fatalf("exists = %v, %v", ok, err)
				}
			}
		})
		b.Run(fmt.Sprintf("materialize-scale%d", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sql.Execute(db, stmt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkComponent_FulltextRows measures the sorted-merge posting
// intersection behind multi-token keyword→row mapping (zero map
// allocations; one slice for the result).
func BenchmarkComponent_FulltextRows(b *testing.B) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 4})
	ix := fulltext.BuildIndex(db)
	ai := ix.Attribute("movie", "title")
	// Pick the two most frequent title tokens for a worst-case merge.
	terms := ai.Terms()
	if len(terms) < 2 {
		b.Fatal("tiny vocabulary")
	}
	best, second := "", ""
	bn, sn := 0, 0
	for _, t := range terms {
		n := len(ai.Rows(t))
		if n > bn {
			second, sn = best, bn
			best, bn = t, n
		} else if n > sn {
			second, sn = t, n
		}
	}
	kw := best + " " + second
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := ai.Rows(kw); len(rows) == 0 && i == 0 {
			b.Logf("empty intersection for %q", kw)
		}
	}
}

// ---------------------------------------------------------------------------
// Statistics/join-order benchmarks (PR 3 scorecard): the Selinger reorder
// on a skewed 3-way join, and the sorted-index / IN-union / MATCH-posting
// access paths vs the full-scan interpreter.

// BenchmarkComponent_SQLJoinReorder: fact table written first, selective
// predicate on the last dimension — the written order would join ~33k rows
// before filtering, the statistics-driven order starts from one person.
func BenchmarkComponent_SQLJoinReorder(b *testing.B) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 16})
	stmt := mustParseSQL(b, `SELECT person.name, movie.title FROM cast_info
		JOIN movie ON movie.movie_id = cast_info.movie_id
		JOIN person ON person.person_id = cast_info.person_id
		WHERE person.person_id = 33`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sql.Execute(db, stmt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComponent_SQLRangeScan: BETWEEN through the sorted secondary
// index vs the interpreter's per-row comparison over a full scan.
func BenchmarkComponent_SQLRangeScan(b *testing.B) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 16})
	stmt := mustParseSQL(b, "SELECT title FROM movie WHERE production_year BETWEEN 1972 AND 1972")
	b.Run("planned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sql.Execute(db, stmt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sql.ExecuteFullScan(db, stmt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkComponent_SQLInList: IN over PK literals served by unioned hash
// postings vs the interpreter's per-row list membership test.
func BenchmarkComponent_SQLInList(b *testing.B) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 16})
	stmt := mustParseSQL(b, "SELECT title FROM movie WHERE movie_id IN (100, 2000, 4000, 4400)")
	b.Run("planned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sql.Execute(db, stmt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sql.ExecuteFullScan(db, stmt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkComponent_MatchPostings: `title MATCH 'kw'` through
// fulltext.AttributeIndex.Rows (scan only the posting rows) vs tokenizing
// every cell of a full scan.
func BenchmarkComponent_MatchPostings(b *testing.B) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 16})
	stmt := mustParseSQL(b, "SELECT title FROM movie WHERE title MATCH 'winter'")
	b.Run("planned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sql.Execute(db, stmt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sql.ExecuteFullScan(db, stmt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkComponent_MixedReadWrite: the write-then-read unit of mixed
// traffic, without the serving tier — one insert into movie followed by
// a range read whose plan must re-consult that table's statistics and
// whose scan must see the new row in the sorted index. The incremental
// sub-benchmark folds the insert into the statistics delta and the
// index side-run; the rebuild sub-benchmark pays a from-scratch
// statistics build and index sort per iteration.
func BenchmarkComponent_MixedReadWrite(b *testing.B) {
	read := mustParseSQL(b, "SELECT COUNT(*) AS n FROM movie WHERE production_year >= 1980 AND rating >= 5.0")
	run := func(b *testing.B, incremental bool) {
		defer relational.SetIncrementalMaintenance(relational.SetIncrementalMaintenance(incremental))
		db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 20})
		src := wrapper.NewFullAccessSource(db)
		if _, err := src.Execute(read); err != nil { // warm stats and indexes
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := int64(1_000_000 + i)
			row := quest.Row{
				relational.Int(id),
				relational.String_(fmt.Sprintf("Benchmark Movie %d", id)),
				relational.Int(1960 + id%60),
				relational.String_("drama"),
				relational.Float(5.0),
			}
			if err := src.Insert("movie", row); err != nil {
				b.Fatal(err)
			}
			if _, err := src.Execute(read); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("incremental", func(b *testing.B) { run(b, true) })
	b.Run("rebuild", func(b *testing.B) { run(b, false) })
}
