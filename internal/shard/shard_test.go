package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/relational"
	"repro/internal/sql"
	"repro/internal/wrapper"
)

// testDB builds a small movie/person/cast_info instance with NULL foreign
// keys (the rows that must never equi-join).
func testDB(t testing.TB, movies, people, casts int) *relational.Database {
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
	db := relational.MustNewDatabase("sharded-test", s)
	rng := rand.New(rand.NewSource(5))
	genres := []string{"drama", "comedy", "noir", "thriller"}
	words := []string{"dark", "river", "storm", "night", "gold", "iron"}
	I, S, N := relational.Int, relational.String_, relational.Null
	for i := 1; i <= movies; i++ {
		title := words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))]
		db.Insert("movie", relational.Row{
			I(int64(i)), S(title), I(int64(1960 + rng.Intn(60))), S(genres[rng.Intn(len(genres))]),
		})
	}
	for i := 1; i <= people; i++ {
		db.Insert("person", relational.Row{I(int64(i)), S(fmt.Sprintf("p%d", i))})
	}
	for i := 1; i <= casts; i++ {
		mid := relational.Value(I(int64(1 + rng.Intn(movies))))
		pid := relational.Value(I(int64(1 + rng.Intn(people))))
		if rng.Intn(9) == 0 {
			mid = N()
		}
		db.Insert("cast_info", relational.Row{I(int64(i)), mid, pid, S("actor")})
	}
	return db
}

func openSharded(t testing.TB, db *relational.Database, shards int) *ShardedSource {
	t.Helper()
	parts, err := Partition(db, shards)
	if err != nil {
		t.Fatal(err)
	}
	src, err := New(db.Name, parts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func multiset(res *sql.Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		var b strings.Builder
		for _, v := range r {
			b.WriteString(v.Key())
			b.WriteByte('|')
		}
		out[i] = b.String()
	}
	sort.Strings(out)
	return out
}

func TestPartitionPreservesRows(t *testing.T) {
	db := testDB(t, 90, 25, 200)
	parts, err := Partition(db, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range db.Schema.Tables() {
		total := 0
		for _, p := range parts {
			total += p.Table(ts.Name).Len()
		}
		if total != db.Table(ts.Name).Len() {
			t.Errorf("table %s: partitions hold %d rows, want %d", ts.Name, total, db.Table(ts.Name).Len())
		}
	}
	// Routing must be a function of the PK: re-partitioning agrees.
	parts2, err := Partition(db, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range parts {
		if parts[i].Table("movie").Len() != parts2[i].Table("movie").Len() {
			t.Fatal("partitioning is not deterministic")
		}
	}
	if _, err := Partition(db, 0); err == nil {
		t.Fatal("Partition accepted 0 shards")
	}
}

func TestShardedExecuteMatchesFullAccess(t *testing.T) {
	db := testDB(t, 120, 30, 260)
	full := wrapper.NewFullAccessSource(db)
	src := openSharded(t, db, 3)
	for _, q := range []string{
		"SELECT title, year FROM movie WHERE genre = 'drama' ORDER BY movie_id",
		"SELECT title FROM movie WHERE movie_id = 17",
		"SELECT title FROM movie WHERE year BETWEEN 1975 AND 1995 ORDER BY year, movie_id LIMIT 5",
		"SELECT title FROM movie ORDER BY year DESC, movie_id LIMIT 4 OFFSET 3",
		`SELECT person.name, movie.title FROM person
			JOIN cast_info ON cast_info.person_id = person.person_id
			JOIN movie ON movie.movie_id = cast_info.movie_id
			WHERE movie.genre = 'noir' ORDER BY person.person_id, movie.movie_id`,
		"SELECT COUNT(*), MIN(year) FROM movie WHERE genre = 'comedy'",
		"SELECT DISTINCT genre FROM movie ORDER BY genre",
	} {
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := full.Execute(stmt)
		if err != nil {
			t.Fatalf("%s: full: %v", q, err)
		}
		got, err := src.Execute(stmt)
		if err != nil {
			t.Fatalf("%s: sharded: %v", q, err)
		}
		if strings.Join(got.Columns, ",") != strings.Join(want.Columns, ",") {
			t.Errorf("%s: columns %v vs %v", q, got.Columns, want.Columns)
		}
		g, w := multiset(got), multiset(want)
		if len(g) != len(w) {
			t.Fatalf("%s: %d rows vs %d", q, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Errorf("%s: row divergence\n  sharded %s\n  full    %s", q, g[i], w[i])
			}
		}
	}
}

func TestPartitionPruning(t *testing.T) {
	db := testDB(t, 100, 20, 150)
	src := openSharded(t, db, 5)
	src.ResetStats()
	res, err := src.Execute(mustParse(t, "SELECT title FROM movie WHERE movie_id = 42"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("point query returned %d rows", len(res.Rows))
	}
	st := src.Stats()
	if st.PrunedProbes != 4 {
		t.Errorf("PK equality pruned %d probes, want 4", st.PrunedProbes)
	}
	if st.FragmentQueries != 1 {
		t.Errorf("point query issued %d fragment queries, want 1", st.FragmentQueries)
	}

	src.ResetStats()
	res, err = src.Execute(mustParse(t, "SELECT title FROM movie WHERE movie_id IN (3, 42, 77) ORDER BY movie_id"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("IN query returned %d rows", len(res.Rows))
	}
	if st := src.Stats(); st.PrunedProbes == 0 {
		t.Error("IN-list PK restriction pruned nothing")
	}
}

func TestShardedInsertRouting(t *testing.T) {
	db := testDB(t, 40, 10, 60)
	src := openSharded(t, db, 3)
	I, S := relational.Int, relational.String_
	if err := src.Insert("movie", relational.Row{I(1000), S("late arrival"), I(2024), S("drama")}); err != nil {
		t.Fatal(err)
	}
	res, err := src.Execute(mustParse(t, "SELECT title FROM movie WHERE movie_id = 1000"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "late arrival" {
		t.Fatalf("inserted row not found via pruned point query: %v", res.Rows)
	}
	// The row must live on exactly the shard its PK routes to.
	want := routeValue(relational.Int(1000), 3)
	for i, p := range src.dbs {
		if _, ok := p.Table("movie").LookupPK(relational.Int(1000)); ok != (i == want) {
			t.Errorf("shard %d holds pk 1000 = %v, want shard %d", i, ok, want)
		}
	}
}

func TestShardedColumnStatistics(t *testing.T) {
	db := testDB(t, 200, 40, 300)
	full := wrapper.NewFullAccessSource(db)
	src := openSharded(t, db, 3)
	want, err := full.ColumnStatistics("movie", "year")
	if err != nil {
		t.Fatal(err)
	}
	got, err := src.ColumnStatistics("movie", "year")
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != want.Rows || got.NullCount != want.NullCount {
		t.Errorf("rows/nulls %d/%d, want %d/%d", got.Rows, got.NullCount, want.Rows, want.NullCount)
	}
	if relational.Compare(got.Min, want.Min) != 0 || relational.Compare(got.Max, want.Max) != 0 {
		t.Errorf("min/max %v..%v, want %v..%v", got.Min, got.Max, want.Min, want.Max)
	}
	if got.Distinct < want.Distinct/2 || got.Distinct > want.Rows {
		t.Errorf("merged distinct %d implausible vs true %d", got.Distinct, want.Distinct)
	}
	if _, err := src.ColumnStatistics("movie", "nope"); err == nil {
		t.Error("unknown column accepted")
	}
}

func mustParse(t testing.TB, q string) *sql.SelectStmt {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

// ---- Exists fan-out: short-circuit, cancellation, no goroutine leak ----

// stubBackend is an injectable shard for fan-out tests.
type stubBackend struct {
	exists func(stmt *sql.SelectStmt) (bool, error)
}

func (b *stubBackend) Execute(stmt *sql.SelectStmt) (*sql.Result, error) {
	return &sql.Result{}, nil
}
func (b *stubBackend) ExecuteExists(stmt *sql.SelectStmt) (bool, error) { return b.exists(stmt) }
func (b *stubBackend) ColumnStatistics(table, column string) (*relational.ColumnStats, error) {
	return nil, wrapper.ErrNoInstanceAccess
}

// TestExecuteExistsShortCircuitAndCancel proves the existence fan-out (1)
// returns as soon as one shard yields a witness row, without waiting for
// slow shards, (2) cancels probes that have not started, and (3) leaks no
// goroutines once the slow shards drain.
func TestExecuteExistsShortCircuitAndCancel(t *testing.T) {
	schema := relational.NewSchema()
	if err := schema.AddTable(&relational.TableSchema{
		Name:       "m",
		Columns:    []relational.Column{{Name: "id", Type: relational.TypeInt, NotNull: true}},
		PrimaryKey: "id",
	}); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var slowStarted atomic.Int32
	slow := func() Backend {
		return &stubBackend{exists: func(*sql.SelectStmt) (bool, error) {
			slowStarted.Add(1)
			<-release
			return false, nil
		}}
	}
	fast := &stubBackend{exists: func(*sql.SelectStmt) (bool, error) { return true, nil }}
	backends := []Backend{fast, slow(), slow(), slow(), slow(), slow(), slow()}
	src := NewFromBackends("stub", schema, backends, Options{Workers: 2})

	before := runtime.NumGoroutine()
	stmt := mustParse(t, "SELECT id FROM m")
	type answer struct {
		ok  bool
		err error
	}
	done := make(chan answer, 1)
	go func() {
		ok, err := src.ExecuteExists(stmt)
		done <- answer{ok, err}
	}()
	select {
	case a := <-done:
		if a.err != nil || !a.ok {
			t.Fatalf("ExecuteExists = %v, %v; want true", a.ok, a.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ExecuteExists blocked behind slow shards instead of short-circuiting")
	}
	// Cancellation: of the six slow shards, only probes already in flight
	// when the hit landed may have started — the queued remainder must have
	// been skipped.
	if n := slowStarted.Load(); n >= 6 {
		t.Errorf("cancellation failed: %d of 6 slow probes started", n)
	}
	if st := src.Stats(); st.ExistsShortCircuits != 1 {
		t.Errorf("ExistsShortCircuits = %d, want 1", st.ExistsShortCircuits)
	}

	// Unblock the in-flight probes and require the goroutine count to
	// settle back to the baseline: nothing may keep waiting on the
	// abandoned fan-out.
	close(release)
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d goroutines, baseline %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestExecuteExistsErrorAndMiss pins the fan-out's terminal cases: all
// shards empty → false; a failing shard with no witness anywhere → the
// error surfaces; a witness on one shard outranks another shard's error
// (existence was proven regardless).
func TestExecuteExistsErrorAndMiss(t *testing.T) {
	schema := relational.NewSchema()
	if err := schema.AddTable(&relational.TableSchema{
		Name:       "m",
		Columns:    []relational.Column{{Name: "id", Type: relational.TypeInt, NotNull: true}},
		PrimaryKey: "id",
	}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("shard down")
	miss := &stubBackend{exists: func(*sql.SelectStmt) (bool, error) { return false, nil }}
	fail := &stubBackend{exists: func(*sql.SelectStmt) (bool, error) { return false, boom }}
	hit := &stubBackend{exists: func(*sql.SelectStmt) (bool, error) { return true, nil }}
	stmt := mustParse(t, "SELECT id FROM m")

	src := NewFromBackends("stub", schema, []Backend{miss, miss, miss}, Options{Workers: 1})
	if ok, err := src.ExecuteExists(stmt); ok || err != nil {
		t.Fatalf("all-miss: got %v, %v", ok, err)
	}
	src = NewFromBackends("stub", schema, []Backend{miss, fail, miss}, Options{Workers: 1})
	if _, err := src.ExecuteExists(stmt); !errors.Is(err, boom) {
		t.Fatalf("miss+error: got err %v, want %v", err, boom)
	}
	src = NewFromBackends("stub", schema, []Backend{fail, hit, miss}, Options{Workers: 1})
	if ok, err := src.ExecuteExists(stmt); !ok || err != nil {
		t.Fatalf("error+hit: got %v, %v; want true", ok, err)
	}
	// LIMIT 0 can never have rows; no probe should run.
	if ok, err := src.ExecuteExists(mustParse(t, "SELECT id FROM m LIMIT 0")); ok || err != nil {
		t.Fatalf("limit-0: got %v, %v", ok, err)
	}
}

// TestShardedExistsMatchesFullAccess checks existence answers against the
// single-node source across shapes, including the join path that gathers
// at the coordinator.
func TestShardedExistsMatchesFullAccess(t *testing.T) {
	db := testDB(t, 80, 20, 150)
	full := wrapper.NewFullAccessSource(db)
	src := openSharded(t, db, 3)
	for _, q := range []string{
		"SELECT title FROM movie WHERE movie_id = 11",
		"SELECT title FROM movie WHERE movie_id = -4",
		"SELECT title FROM movie WHERE genre = 'noir'",
		"SELECT title FROM movie WHERE genre = 'nope'",
		`SELECT person.name FROM person
			JOIN cast_info ON cast_info.person_id = person.person_id
			JOIN movie ON movie.movie_id = cast_info.movie_id
			WHERE movie.genre = 'drama'`,
		`SELECT person.name FROM person
			JOIN cast_info ON cast_info.person_id = person.person_id
			WHERE cast_info.role = 'director'`,
		"SELECT title FROM movie ORDER BY year LIMIT 3 OFFSET 1",
	} {
		stmt := mustParse(t, q)
		want, err := full.ExecuteExists(stmt)
		if err != nil {
			t.Fatalf("%s: full: %v", q, err)
		}
		got, err := src.ExecuteExists(stmt)
		if err != nil {
			t.Fatalf("%s: sharded: %v", q, err)
		}
		if got != want {
			t.Errorf("%s: exists %v, want %v", q, got, want)
		}
	}
}

// ratedMoviesDB builds a 300-row movie table with NULL years, a float
// rating and three genres, for aggregate and statistics checks.
func ratedMoviesDB(t testing.TB) *relational.Database {
	t.Helper()
	s := relational.NewSchema()
	if err := s.AddTable(&relational.TableSchema{
		Name: "movie",
		Columns: []relational.Column{
			{Name: "movie_id", Type: relational.TypeInt, NotNull: true},
			{Name: "title", Type: relational.TypeString, NotNull: true},
			{Name: "year", Type: relational.TypeInt},
			{Name: "rating", Type: relational.TypeFloat},
			{Name: "genre", Type: relational.TypeString},
		},
		PrimaryKey: "movie_id",
	}); err != nil {
		t.Fatal(err)
	}
	db := relational.MustNewDatabase("agg", s)
	genres := []string{"drama", "comedy", "noir"}
	for i := 1; i <= 300; i++ {
		year := relational.Value(relational.Int(int64(1950 + i%70)))
		if i%13 == 0 {
			year = relational.Null()
		}
		if err := db.Insert("movie", relational.Row{
			relational.Int(int64(i)),
			relational.String_(fmt.Sprintf("t%d", i)),
			year,
			relational.Float(float64(i%97) / 9),
			relational.String_(genres[i%3]),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

type aggCase struct {
	q       string
	ordered bool
	approx  bool // float aggregate: compare within rounding slack
}

// checkAggregate runs c through src and ref and compares the results value
// for value and type for type, in order when c.ordered.
func checkAggregate(t *testing.T, ref wrapper.Source, src *ShardedSource, c aggCase) {
	t.Helper()
	stmt, err := sql.Parse(c.q)
	if err != nil {
		t.Fatalf("%s: %v", c.q, err)
	}
	want, err := ref.Execute(stmt)
	if err != nil {
		t.Fatalf("%s: reference: %v", c.q, err)
	}
	got, err := src.Execute(stmt)
	if err != nil {
		t.Fatalf("%s: sharded: %v", c.q, err)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, want %d", c.q, len(got.Rows), len(want.Rows))
	}
	match := func(a, b relational.Row) bool {
		for i := range a {
			if a[i].Type() != b[i].Type() {
				return false
			}
			if c.approx && a[i].Type() == relational.TypeFloat {
				av, bv := a[i].AsFloat(), b[i].AsFloat()
				if diff := av - bv; diff > 1e-9*(1+bv) || diff < -1e-9*(1+bv) {
					return false
				}
				continue
			}
			if a[i].Key() != b[i].Key() {
				return false
			}
		}
		return true
	}
	if c.ordered || len(want.Rows) <= 1 {
		for i := range want.Rows {
			if !match(got.Rows[i], want.Rows[i]) {
				t.Errorf("%s: row %d: got %v, want %v", c.q, i, got.Rows[i], want.Rows[i])
			}
		}
	} else {
		used := make([]bool, len(want.Rows))
	outer:
		for _, g := range got.Rows {
			for i, w := range want.Rows {
				if !used[i] && match(g, w) {
					used[i] = true
					continue outer
				}
			}
			t.Errorf("%s: unmatched row %v", c.q, g)
		}
	}
	for i := range want.Columns {
		if got.Columns[i] != want.Columns[i] {
			t.Errorf("%s: column %d %q, want %q", c.q, i, got.Columns[i], want.Columns[i])
		}
	}
}

// TestAggPushdownMatchesReference holds sharded aggregation, grouping,
// ordering and LIMIT/OFFSET to reference semantics. The name dates from
// per-shard partial aggregation; every sharded SELECT now scatter-gathers,
// so this checks the gather path.
func TestAggPushdownMatchesReference(t *testing.T) {
	db := ratedMoviesDB(t)
	ref := wrapper.NewFullAccessSource(db)
	parts, err := Partition(db, 5)
	if err != nil {
		t.Fatal(err)
	}
	src, err := New(db.Name, parts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []aggCase{
		{q: "SELECT COUNT(*) FROM movie"},
		{q: "SELECT COUNT(*) FROM movie WHERE genre = 'noir'"},
		{q: "SELECT COUNT(year), MIN(year), MAX(year), AVG(year), SUM(year) FROM movie"},
		{q: "SELECT COUNT(*) FROM movie WHERE movie_id = 41"},
		{q: "SELECT COUNT(*) FROM movie WHERE year > 3000"},
		{q: "SELECT genre, COUNT(*), SUM(year) FROM movie GROUP BY genre ORDER BY genre", ordered: true},
		{q: "SELECT genre, COUNT(*) AS c FROM movie GROUP BY genre ORDER BY c DESC, genre", ordered: true},
		{q: "SELECT year, COUNT(*) FROM movie GROUP BY year ORDER BY year LIMIT 7 OFFSET 2", ordered: true},
		{q: "SELECT genre FROM movie GROUP BY genre ORDER BY genre", ordered: true},
		{q: "SELECT MIN(title), MAX(title) FROM movie"},
		// A float AVG is exact only up to summation order: shard
		// concatenation visits rows in a different order than the
		// single-node scan, so the comparison allows rounding slack.
		{q: "SELECT AVG(rating) FROM movie", approx: true},
		{q: "SELECT genre, COUNT(*) FROM movie GROUP BY genre HAVING COUNT(*) > 10 ORDER BY genre", ordered: true},
		// An alias shadowing a real column: the reference resolves ORDER BY
		// against the base column first, and so must the coordinator.
		{q: "SELECT genre AS year, COUNT(*) FROM movie GROUP BY genre ORDER BY year"},
	} {
		checkAggregate(t, ref, src, c)
	}
}

// TestAggPushdownGroupKeyNoCollision pins sharded group identity: string
// group keys whose naive concatenations coincide — ("x|sy", "z") vs ("x",
// "y|sz") under a '|' join — must stay separate groups, exactly as the
// reference interpreter keeps them.
func TestAggPushdownGroupKeyNoCollision(t *testing.T) {
	s := relational.NewSchema()
	if err := s.AddTable(&relational.TableSchema{
		Name: "kv",
		Columns: []relational.Column{
			{Name: "id", Type: relational.TypeInt, NotNull: true},
			{Name: "a", Type: relational.TypeString},
			{Name: "b", Type: relational.TypeString},
		},
		PrimaryKey: "id",
	}); err != nil {
		t.Fatal(err)
	}
	db := relational.MustNewDatabase("kv", s)
	for i, r := range []struct{ a, b string }{
		{"x|sy", "z"}, {"x", "y|sz"}, {"x|sy", "z"}, {"plain", "keys"},
	} {
		if err := db.Insert("kv", relational.Row{
			relational.Int(int64(i + 1)), relational.String_(r.a), relational.String_(r.b),
		}); err != nil {
			t.Fatal(err)
		}
	}
	parts, err := Partition(db, 3)
	if err != nil {
		t.Fatal(err)
	}
	src, err := New(db.Name, parts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkAggregate(t, wrapper.NewFullAccessSource(db), src,
		aggCase{q: "SELECT a, b, COUNT(*) FROM kv GROUP BY a, b ORDER BY a, b", ordered: true})
}

// slowStatsBackend blocks in ColumnStatistics so the test can observe the
// fan-out's concurrency.
type slowStatsBackend struct {
	stubBackend
	db       *relational.Database
	inFlight *atomic.Int32
	peak     *atomic.Int32
}

func (b *slowStatsBackend) ColumnStatistics(table, column string) (*relational.ColumnStats, error) {
	n := b.inFlight.Add(1)
	for {
		p := b.peak.Load()
		if n <= p || b.peak.CompareAndSwap(p, n) {
			break
		}
	}
	time.Sleep(2 * time.Millisecond)
	b.inFlight.Add(-1)
	return b.db.Table(table).Stats(column)
}

// TestColumnStatisticsBoundedFanOut pins the statistics fan-out to the
// source's bounded worker pool: with W workers and many more shards, at
// most W per-shard fetches run at once — and goroutine growth during the
// call stays at the pool size, never one goroutine per shard per column.
func TestColumnStatisticsBoundedFanOut(t *testing.T) {
	db := ratedMoviesDB(t)
	const shards, workers = 24, 3
	var inFlight, peak atomic.Int32
	backends := make([]Backend, shards)
	for i := range backends {
		backends[i] = &slowStatsBackend{db: db, inFlight: &inFlight, peak: &peak}
	}
	src := NewFromBackends("stats", db.Schema, backends, Options{Workers: workers})

	baseline := runtime.NumGoroutine()
	quit := make(chan struct{})
	sampled := make(chan int)
	go func() {
		peak := 0
		ticker := time.NewTicker(200 * time.Microsecond)
		defer ticker.Stop()
		for {
			select {
			case <-quit:
				sampled <- peak
				return
			case <-ticker.C:
				if g := runtime.NumGoroutine(); g > peak {
					peak = g
				}
			}
		}
	}()
	for _, col := range []string{"movie_id", "year", "genre", "rating"} {
		if _, err := src.ColumnStatistics("movie", col); err != nil {
			t.Fatal(err)
		}
	}
	close(quit)
	goroutinePeak := <-sampled

	if p := peak.Load(); p > workers {
		t.Errorf("statistics fan-out ran %d shard fetches at once, pool is %d", p, workers)
	}
	// +1 for the sampling goroutine itself, +2 slack for runtime noise.
	if limit := baseline + workers + 3; goroutinePeak > limit {
		t.Errorf("goroutine peak %d during statistics fan-out, want <= %d (baseline %d + pool %d)",
			goroutinePeak, limit, baseline, workers)
	}
}
