package conformance

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/relational"
	"repro/internal/shard"
	"repro/internal/transport"
	"repro/internal/wrapper"
)

// conformanceDB builds the differential fixture: movie is large enough to
// cross the planner's lazy-index threshold on the reference side, person is
// small, cast_info carries NULL foreign keys, and titles share vocabulary
// with person names so MATCH/LIKE predicates hit both.
func conformanceDB(t testing.TB) *relational.Database {
	t.Helper()
	s := relational.NewSchema()
	add := func(ts *relational.TableSchema) {
		if err := s.AddTable(ts); err != nil {
			t.Fatal(err)
		}
	}
	add(&relational.TableSchema{
		Name: "movie",
		Columns: []relational.Column{
			{Name: "movie_id", Type: relational.TypeInt, NotNull: true},
			{Name: "title", Type: relational.TypeString, NotNull: true},
			{Name: "year", Type: relational.TypeInt},
			{Name: "rating", Type: relational.TypeFloat},
			{Name: "genre", Type: relational.TypeString},
		},
		PrimaryKey: "movie_id",
	})
	add(&relational.TableSchema{
		Name: "person",
		Columns: []relational.Column{
			{Name: "person_id", Type: relational.TypeInt, NotNull: true},
			{Name: "name", Type: relational.TypeString, NotNull: true},
		},
		PrimaryKey: "person_id",
	})
	add(&relational.TableSchema{
		Name: "cast_info",
		Columns: []relational.Column{
			{Name: "cast_id", Type: relational.TypeInt, NotNull: true},
			{Name: "movie_id", Type: relational.TypeInt},
			{Name: "person_id", Type: relational.TypeInt},
			{Name: "role", Type: relational.TypeString},
		},
		PrimaryKey: "cast_id",
		ForeignKeys: []relational.ForeignKey{
			{Column: "movie_id", RefTable: "movie", RefColumn: "movie_id"},
			{Column: "person_id", RefTable: "person", RefColumn: "person_id"},
		},
	})
	db := relational.MustNewDatabase("conformance", s)
	rng := rand.New(rand.NewSource(31))
	genres := []string{"drama", "comedy", "thriller", "noir"}
	words := []string{"dark", "river", "storm", "night", "golden", "silent", "iron", "last"}
	I, F, S, N := relational.Int, relational.Float, relational.String_, relational.Null
	for i := 1; i <= 350; i++ {
		title := words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))]
		year := relational.Value(I(int64(1960 + rng.Intn(60))))
		if rng.Intn(10) == 0 {
			year = N()
		}
		db.Insert("movie", relational.Row{
			I(int64(i)), S(title), year, F(float64(rng.Intn(100)) / 10), S(genres[rng.Intn(len(genres))]),
		})
	}
	for i := 1; i <= 120; i++ {
		db.Insert("person", relational.Row{I(int64(i)), S(fmt.Sprintf("p%d %s", i, words[rng.Intn(len(words))]))})
	}
	roles := []string{"actor", "director", "writer"}
	for i := 1; i <= 800; i++ {
		mid := relational.Value(I(int64(1 + rng.Intn(350))))
		pid := relational.Value(I(int64(1 + rng.Intn(120))))
		role := relational.Value(S(roles[rng.Intn(len(roles))]))
		if rng.Intn(8) == 0 {
			mid = N()
		}
		if rng.Intn(8) == 0 {
			pid = N()
		}
		if rng.Intn(10) == 0 {
			role = N()
		}
		db.Insert("cast_info", relational.Row{I(int64(i)), mid, pid, role})
	}
	return db
}

// tableCases pins one query per shape the execution layer distinguishes:
// point, range, IN, MATCH/LIKE, 2–4-way joins (reordered, LEFT,
// self-join), ORDER BY/LIMIT/OFFSET, aggregation, DISTINCT, and the error
// shapes both sides must reject alike.
func tableCases() []Query {
	return []Query{
		{SQL: "SELECT * FROM movie", TotalOrder: false},
		{SQL: "SELECT * FROM movie WHERE movie_id = 17"},
		{SQL: "SELECT * FROM movie WHERE movie_id = -5"},
		{SQL: "SELECT title FROM movie WHERE genre = 'noir' ORDER BY movie_id", TotalOrder: true},
		{SQL: "SELECT title FROM movie WHERE year IS NULL ORDER BY movie_id", TotalOrder: true},
		{SQL: "SELECT title FROM movie WHERE year = NULL"},
		{SQL: "SELECT title FROM movie WHERE year BETWEEN 1971 AND 1984 ORDER BY movie_id", TotalOrder: true},
		{SQL: "SELECT title FROM movie WHERE year > 1990 AND year <= 2005 AND rating > 5"},
		{SQL: "SELECT title FROM movie WHERE year BETWEEN 1990 AND 1970"},
		{SQL: "SELECT title FROM movie WHERE movie_id IN (3, 3, 700, NULL, 42) ORDER BY movie_id", TotalOrder: true},
		{SQL: "SELECT title FROM movie WHERE movie_id IN (NULL)"},
		{SQL: "SELECT title FROM movie WHERE genre IN ('noir', 'comedy')"},
		{SQL: "SELECT title FROM movie WHERE title MATCH 'dark'"},
		{SQL: "SELECT title FROM movie WHERE title MATCH 'dark river' ORDER BY movie_id", TotalOrder: true},
		{SQL: "SELECT title FROM movie WHERE title LIKE '%storm%'"},
		{SQL: "SELECT title FROM movie ORDER BY year DESC, title, movie_id", TotalOrder: true},
		{SQL: "SELECT title FROM movie ORDER BY movie_id LIMIT 5 OFFSET 2", TotalOrder: true},
		{SQL: "SELECT title FROM movie ORDER BY year LIMIT 5"}, // ties: count-compare only
		{SQL: "SELECT title FROM movie WHERE genre = 'drama' ORDER BY movie_id LIMIT 200 OFFSET 190", TotalOrder: true},
		{SQL: "SELECT title FROM movie LIMIT 0"},
		{SQL: "SELECT year AS y FROM movie WHERE genre = 'drama' ORDER BY y, movie_id", TotalOrder: true},
		{SQL: `SELECT movie.title, cast_info.role FROM movie
			JOIN cast_info ON cast_info.movie_id = movie.movie_id
			ORDER BY cast_info.cast_id`, TotalOrder: true},
		{SQL: `SELECT person.name, movie.title FROM person
			JOIN cast_info ON cast_info.person_id = person.person_id
			JOIN movie ON movie.movie_id = cast_info.movie_id
			WHERE cast_info.role = 'director' ORDER BY cast_info.cast_id`, TotalOrder: true},
		{SQL: `SELECT movie.title, person.name FROM cast_info
			JOIN movie ON movie.movie_id = cast_info.movie_id
			JOIN person ON person.person_id = cast_info.person_id
			WHERE person.person_id = 11 ORDER BY cast_info.cast_id`, TotalOrder: true},
		{SQL: `SELECT person.name, m2.title FROM person
			JOIN cast_info ON cast_info.person_id = person.person_id
			JOIN movie ON movie.movie_id = cast_info.movie_id
			JOIN movie m2 ON m2.movie_id = cast_info.movie_id
			WHERE movie.year BETWEEN 1980 AND 1995 AND person.person_id IN (5, 9, 13)
			ORDER BY cast_info.cast_id`, TotalOrder: true},
		{SQL: `SELECT movie.title, cast_info.role FROM movie
			LEFT JOIN cast_info ON cast_info.movie_id = movie.movie_id
			ORDER BY movie.movie_id, cast_info.cast_id`, TotalOrder: true},
		{SQL: `SELECT movie.title FROM movie
			LEFT JOIN cast_info ON cast_info.movie_id = movie.movie_id
			WHERE cast_info.role IS NULL ORDER BY movie.movie_id, cast_info.cast_id`, TotalOrder: true},
		{SQL: `SELECT person.name FROM person
			JOIN cast_info ON cast_info.person_id = person.person_id AND cast_info.cast_id > 100
			WHERE person.name LIKE 'p1%' ORDER BY cast_info.cast_id`, TotalOrder: true},
		{SQL: `SELECT movie.title FROM movie
			JOIN cast_info ON cast_info.movie_id = movie.movie_id
			WHERE movie.movie_id + 1 > cast_info.person_id AND movie.genre = 'drama'`},
		{SQL: `SELECT m1.title FROM movie m1
			JOIN movie m2 ON m1.year < m2.year
			WHERE m1.movie_id = 9 AND m2.genre = 'comedy' ORDER BY m2.movie_id`, TotalOrder: true},
		{SQL: `SELECT cast_info.role, COUNT(*) FROM movie
			JOIN cast_info ON cast_info.movie_id = movie.movie_id
			WHERE movie.genre = 'drama' GROUP BY cast_info.role ORDER BY cast_info.role`},
		{SQL: "SELECT COUNT(*), MIN(year), MAX(year) FROM movie WHERE genre = 'noir'"},
		// Partial-aggregate pushdown shapes: global and grouped integer
		// aggregates (exactly decomposable), empty groups, NULL group keys,
		// pruned-to-one-shard and pruned-to-zero-shards aggregates, aliased
		// aggregate order keys. (Float SUM/AVG is excluded by design: its
		// answer depends on summation order even between the gather path and
		// a single scan.)
		{SQL: "SELECT COUNT(*) FROM movie"},
		{SQL: "SELECT COUNT(year), SUM(year), AVG(year) FROM movie WHERE genre = 'drama'"},
		{SQL: "SELECT COUNT(*), SUM(movie_id) FROM movie WHERE year > 2100"},
		{SQL: "SELECT COUNT(*) FROM movie WHERE movie_id = 17"},
		{SQL: "SELECT COUNT(*) FROM movie WHERE movie_id IN (NULL)"},
		{SQL: "SELECT genre, COUNT(*), MIN(year), MAX(year) FROM movie GROUP BY genre ORDER BY genre", TotalOrder: true},
		{SQL: "SELECT year, COUNT(*) FROM movie GROUP BY year ORDER BY year", TotalOrder: true},
		{SQL: "SELECT year, COUNT(*) AS c FROM movie GROUP BY year ORDER BY c DESC, year", TotalOrder: true},
		{SQL: "SELECT genre, AVG(year) FROM movie WHERE year IS NOT NULL GROUP BY genre ORDER BY genre", TotalOrder: true},
		{SQL: "SELECT genre FROM movie GROUP BY genre ORDER BY genre LIMIT 2 OFFSET 1", TotalOrder: true},
		{SQL: "SELECT role, COUNT(*) FROM cast_info GROUP BY role ORDER BY role", TotalOrder: true},
		{SQL: "SELECT genre, COUNT(*) FROM movie GROUP BY genre HAVING COUNT(*) > 40 ORDER BY genre", TotalOrder: true},
		{SQL: "SELECT DISTINCT genre FROM movie WHERE year > 1990 ORDER BY genre", TotalOrder: true},
		{SQL: "SELECT DISTINCT genre, year FROM movie WHERE year > 2010"},
		// Columnar-encoding shapes: wide rows (every column of a 3-way join),
		// a low-cardinality projection (dictionary), sorted and constant
		// columns (run-length). The remote suites run these through both the
		// v2 columnar frames and the pinned-v1 row frames; either way the
		// bytes must match the reference.
		{SQL: `SELECT * FROM movie
			JOIN cast_info ON cast_info.movie_id = movie.movie_id
			JOIN person ON person.person_id = cast_info.person_id
			ORDER BY cast_info.cast_id`, TotalOrder: true},
		{SQL: "SELECT genre FROM movie ORDER BY genre, movie_id", TotalOrder: true},
		{SQL: "SELECT movie_id, year FROM movie ORDER BY year, movie_id"}, // NULL years tie: multiset compare
		{SQL: "SELECT genre, title FROM movie WHERE genre = 'noir' ORDER BY movie_id", TotalOrder: true},
		{SQL: "SELECT movie.genre, cast_info.role FROM movie JOIN cast_info ON cast_info.movie_id = movie.movie_id"},
		// Error parity: both sides must reject, neither may half-answer.
		{SQL: "SELECT nosuch FROM movie WHERE movie_id = 3"},
		{SQL: "SELECT title FROM movie WHERE nosuch = 1"},
		{SQL: "SELECT title FROM movie ORDER BY nosuch"},
	}
}

// fuzzCases is the seeded generator: random predicate stacks over every
// FROM shape, with total-order suffixes (every table's PK) so most cases
// compare positionally, byte for byte.
func fuzzCases(seed int64, n int) []Query {
	rng := rand.New(rand.NewSource(seed))
	type shape struct {
		from  string
		order string // total order: all PKs of the shape
		sel   string
	}
	shapes := []shape{
		{"FROM movie", "movie.movie_id", "SELECT movie.title, movie.year"},
		{"FROM movie JOIN cast_info ON cast_info.movie_id = movie.movie_id",
			"cast_info.cast_id", "SELECT movie.title, cast_info.role"},
		{"FROM movie LEFT JOIN cast_info ON cast_info.movie_id = movie.movie_id",
			"movie.movie_id, cast_info.cast_id", "SELECT movie.title, cast_info.role"},
		{`FROM person JOIN cast_info ON cast_info.person_id = person.person_id
			JOIN movie ON movie.movie_id = cast_info.movie_id`,
			"cast_info.cast_id", "SELECT person.name, movie.title"},
		{`FROM person LEFT JOIN cast_info ON cast_info.person_id = person.person_id
			LEFT JOIN movie ON movie.movie_id = cast_info.movie_id`,
			"person.person_id, cast_info.cast_id", "SELECT person.name, movie.title"},
		{`FROM cast_info JOIN movie ON movie.movie_id = cast_info.movie_id
			JOIN person ON person.person_id = cast_info.person_id`,
			"cast_info.cast_id", "SELECT movie.title, person.name"},
		{`FROM cast_info JOIN person ON person.person_id = cast_info.person_id
			JOIN movie ON movie.movie_id = cast_info.movie_id
			JOIN movie m2 ON m2.movie_id = cast_info.movie_id`,
			"cast_info.cast_id", "SELECT person.name, m2.title"},
	}
	moviePreds := []string{
		"movie.movie_id = %d",
		"movie.movie_id IN (%d, %d, NULL)",
		"movie.genre = 'drama'",
		"movie.year > %d",
		"movie.year BETWEEN 1975 AND 1995",
		"movie.year >= 1980 AND movie.year < 1990",
		"movie.year IS NULL",
		"movie.title MATCH 'river'",
		"movie.title LIKE '%%storm%%'",
		"(movie.year > %d OR movie.rating > 5)",
		"movie.genre IN ('drama', 'noir')",
		"NOT (movie.year > 1980)",
	}
	castPreds := []string{
		"cast_info.role = 'actor'",
		"cast_info.role IS NULL",
		"cast_info.cast_id = %d",
		"cast_info.person_id = %d",
		"cast_info.cast_id BETWEEN %d AND 600",
		"cast_info.person_id IN (%d, %d)",
		"movie.movie_id = cast_info.person_id",
	}
	out := make([]Query, 0, n)
	for i := 0; i < n; i++ {
		sh := shapes[rng.Intn(len(shapes))]
		var preds []string
		for k := rng.Intn(4); k > 0; k-- {
			pool := moviePreds
			if strings.Contains(sh.from, "cast_info") && rng.Intn(2) == 0 {
				pool = castPreds
			}
			if !strings.Contains(sh.from, "movie") {
				pool = castPreds
			}
			p := pool[rng.Intn(len(pool))]
			if c := strings.Count(p, "%d"); c > 0 {
				args := make([]interface{}, c)
				for ai := range args {
					args[ai] = rng.Intn(420)
				}
				p = fmt.Sprintf(p, args...)
			}
			preds = append(preds, p)
		}
		q := sh.sel + " " + sh.from
		if len(preds) > 0 {
			q += " WHERE " + strings.Join(preds, " AND ")
		}
		total := false
		switch rng.Intn(4) {
		case 0:
			q += " ORDER BY " + sh.order
			total = true
		case 1:
			q += " ORDER BY " + sh.order
			q += fmt.Sprintf(" LIMIT %d OFFSET %d", 1+rng.Intn(12), rng.Intn(4))
			total = true
		case 2:
			q = strings.Replace(q, "SELECT ", "SELECT DISTINCT ", 1)
		}
		out = append(out, Query{SQL: q, TotalOrder: total})
	}
	return out
}

// runBatch fans a query batch over concurrent workers against one
// (reference, candidate) pair.
func runBatch(t *testing.T, ref, cand wrapper.Source, qs []Query) {
	t.Helper()
	const workers = 4
	errc := make(chan error, len(qs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(qs); i += workers {
				if err := Check(ref, cand, qs[i]); err != nil {
					errc <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// insertRound appends one batch of rows to the reference database and the
// sharded source alike: fresh movies, casts referencing both old and new
// rows, NULL-FK casts included. Inserts are a population-phase operation,
// so the round runs strictly between query batches.
func insertRound(t *testing.T, db *relational.Database, src *shard.ShardedSource, round int) {
	t.Helper()
	I, S, N := relational.Int, relational.String_, relational.Null
	base := int64(1000 + 100*round)
	apply := func(table string, row relational.Row) {
		if err := db.Insert(table, row.Clone()); err != nil {
			t.Fatal(err)
		}
		if err := src.Insert(table, row.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 12; i++ {
		apply("movie", relational.Row{
			I(base + i), S(fmt.Sprintf("sequel storm %d", base+i)), I(1960 + (base+i)%60),
			relational.Float(float64(i) / 2), S("drama"),
		})
	}
	for i := int64(0); i < 20; i++ {
		mid := relational.Value(I(base + i%12))
		if i%7 == 0 {
			mid = N()
		}
		apply("cast_info", relational.Row{I(base + i), mid, I(1 + i%120), S("actor")})
	}
}

// TestConformanceSharded is the differential suite: every query shape
// against FullAccessSource and ShardedSource at 1, 3 and 7 shards, with
// concurrent query batches and interleaved insert rounds. Run it under the
// race detector via `make conformance`.
func TestConformanceSharded(t *testing.T) {
	for _, shards := range []int{1, 3, 7} {
		shards := shards
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			db := conformanceDB(t)
			ref := wrapper.NewFullAccessSource(db)
			parts, err := shard.Partition(db, shards)
			if err != nil {
				t.Fatal(err)
			}
			src, err := shard.New(db.Name, parts, shard.Options{})
			if err != nil {
				t.Fatal(err)
			}
			queries := append(tableCases(), fuzzCases(97+int64(shards), 120)...)
			for round := 0; round < 3; round++ {
				runBatch(t, ref, src, queries)
				insertRound(t, db, src, round)
			}
			// Final pass over the fully mutated instance, plus probes that
			// target rows that only exist post-insert.
			queries = append(queries,
				Query{SQL: "SELECT title FROM movie WHERE movie_id = 1105"},
				Query{SQL: "SELECT title FROM movie WHERE title MATCH 'sequel' ORDER BY movie_id", TotalOrder: true},
				Query{SQL: `SELECT person.name FROM person
					JOIN cast_info ON cast_info.person_id = person.person_id
					WHERE cast_info.cast_id > 1000 ORDER BY cast_info.cast_id`, TotalOrder: true},
			)
			runBatch(t, ref, src, queries)
		})
	}
}

// TestConformanceRegisteredBackends sweeps every backend shape the
// engine is opened over through the table-driven cases: the full-access
// source, a 4-shard ShardedSource over Partition, and the same partitions
// each behind a loopback transport client (frames, row codec, retries).
func TestConformanceRegisteredBackends(t *testing.T) {
	partition := func(t *testing.T, db *relational.Database) []*relational.Database {
		parts, err := shard.Partition(db, 4)
		if err != nil {
			t.Fatal(err)
		}
		return parts
	}
	backends := []struct {
		kind string
		open func(t *testing.T, db *relational.Database) wrapper.Source
	}{
		{"full", func(t *testing.T, db *relational.Database) wrapper.Source {
			return wrapper.NewFullAccessSource(db)
		}},
		{"remote", func(t *testing.T, db *relational.Database) wrapper.Source {
			src, _ := newRemoteSharded(t, db.Name, partition(t, db), transport.Options{})
			return src
		}},
		{"sharded", func(t *testing.T, db *relational.Database) wrapper.Source {
			src, err := shard.New(db.Name, partition(t, db), shard.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return src
		}},
	}
	for _, b := range backends {
		t.Run(b.kind, func(t *testing.T) {
			db := conformanceDB(t)
			ref := wrapper.NewFullAccessSource(db)
			cand := b.open(t, db)
			for _, q := range tableCases() {
				if err := Check(ref, cand, q); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// exactColumnStats recomputes one column's summary by a plain scan of the
// reference table — deliberately independent of the Stats code path it
// checks against.
func exactColumnStats(tbl *relational.Table, column string) (rows, nulls, distinct int, min, max relational.Value) {
	ord := tbl.Schema.ColumnIndex(column)
	seen := map[string]struct{}{}
	for _, row := range tbl.Rows() {
		rows++
		v := row[ord]
		if v.IsNull() {
			nulls++
			continue
		}
		seen[v.Key()] = struct{}{}
		if min.IsNull() || relational.Compare(v, min) < 0 {
			min = v
		}
		if max.IsNull() || relational.Compare(v, max) > 0 {
			max = v
		}
	}
	distinct = len(seen)
	return
}

// checkInterleavedStats asserts the candidate's (delta-maintained, shard-
// merged) statistics against a from-scratch scan of the mutated reference:
// Rows, NullCount, Min and Max must be exact — a post-insert snapshot that
// still reports the pre-insert extrema is precisely the staleness bug the
// maintenance budget must never allow — and Distinct must sit within the
// merge's documented bounds (at least the biggest partition's share, at
// most non-NULL rows; within insertedSlack of exact on one shard).
func checkInterleavedStats(t *testing.T, db *relational.Database, cand wrapper.StatisticsProvider, shards, insertedSlack int) {
	t.Helper()
	for table, columns := range map[string][]string{
		"movie":     {"movie_id", "year", "rating", "genre"},
		"cast_info": {"cast_id", "movie_id", "role"},
	} {
		for _, column := range columns {
			got, err := cand.ColumnStatistics(table, column)
			if err != nil {
				t.Fatalf("%s.%s: %v", table, column, err)
			}
			rows, nulls, distinct, min, max := exactColumnStats(db.Table(table), column)
			if got.Rows != rows || got.NullCount != nulls {
				t.Errorf("%s.%s: rows/nulls = %d/%d, want exact %d/%d", table, column, got.Rows, got.NullCount, rows, nulls)
			}
			if relational.Compare(got.Min, min) != 0 || relational.Compare(got.Max, max) != 0 {
				t.Errorf("%s.%s: min/max = %v/%v, want exact %v/%v (stale extrema past an insert)",
					table, column, got.Min, got.Max, min, max)
			}
			lo, hi := distinct/shards, rows-nulls
			if shards == 1 && distinct+insertedSlack < hi {
				hi = distinct + insertedSlack
			}
			if got.Distinct < lo || got.Distinct > hi {
				t.Errorf("%s.%s: distinct = %d, want within [%d, %d] of exact %d",
					table, column, got.Distinct, lo, hi, distinct)
			}
		}
	}
}

// TestConformanceInterleavedStats interleaves insert rounds with
// statistics checks at 1, 3 and 7 shards: the incrementally maintained
// snapshots must track the mutated instance exactly on rows/nulls/min/max
// and within bounds on distinct, and query results must be byte-identical
// to FullAccessSource's throughout.
func TestConformanceInterleavedStats(t *testing.T) {
	t.Run("incremental", func(t *testing.T) {
		for _, shards := range []int{1, 3, 7} {
			t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
				db := conformanceDB(t)
				ref := wrapper.NewFullAccessSource(db)
				parts, err := shard.Partition(db, shards)
				if err != nil {
					t.Fatal(err)
				}
				src, err := shard.New(db.Name, parts, shard.Options{})
				if err != nil {
					t.Fatal(err)
				}
				queries := tableCases()
				inserted := 0
				for round := 0; round < 3; round++ {
					// Warm the statistics so later rounds exercise the
					// delta path rather than a first-touch build.
					checkInterleavedStats(t, db, src, shards, inserted)
					insertRound(t, db, src, round)
					inserted += 12 // movies per round; cast_info grows by 20
					checkInterleavedStats(t, db, src, shards, inserted+8)
					runBatch(t, ref, src, queries)
				}
			})
		}
	})
}
