package shard

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/relational"
	"repro/internal/sql"
	"repro/internal/wrapper"
)

func aggDB(t testing.TB) *relational.Database {
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

// TestAggPushdownMatchesReference holds the partial-aggregate path to
// reference semantics, value for value and type for type, and pins that it
// actually engaged (AggPushdownQueries moved, shipped rows collapsed to
// per-shard partials).
func TestAggPushdownMatchesReference(t *testing.T) {
	db := aggDB(t)
	ref := wrapper.NewFullAccessSource(db)
	parts, err := Partition(db, 5)
	if err != nil {
		t.Fatal(err)
	}
	src, err := New(db.Name, parts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		q       string
		pushed  bool // expect the agg-pushdown path
		ordered bool
		approx  bool // float aggregate: compare within rounding slack
	}{
		{q: "SELECT COUNT(*) FROM movie", pushed: true},
		{q: "SELECT COUNT(*) FROM movie WHERE genre = 'noir'", pushed: true},
		{q: "SELECT COUNT(year), MIN(year), MAX(year), AVG(year), SUM(year) FROM movie", pushed: true},
		{q: "SELECT COUNT(*) FROM movie WHERE movie_id = 41", pushed: true},
		{q: "SELECT COUNT(*) FROM movie WHERE year > 3000", pushed: true},
		{q: "SELECT genre, COUNT(*), SUM(year) FROM movie GROUP BY genre ORDER BY genre", pushed: true, ordered: true},
		{q: "SELECT genre, COUNT(*) AS c FROM movie GROUP BY genre ORDER BY c DESC, genre", pushed: true, ordered: true},
		{q: "SELECT year, COUNT(*) FROM movie GROUP BY year ORDER BY year LIMIT 7 OFFSET 2", pushed: true, ordered: true},
		{q: "SELECT genre FROM movie GROUP BY genre ORDER BY genre", pushed: true, ordered: true},
		{q: "SELECT MIN(title), MAX(title) FROM movie", pushed: true},
		// Float SUM/AVG must NOT decompose (addition order would leak); the
		// gather path answers, itself exact only up to summation order —
		// shard concatenation visits rows in a different order than the
		// single-node scan, so the comparison allows rounding slack.
		{q: "SELECT AVG(rating) FROM movie", pushed: false, approx: true},
		// HAVING and aggregate-bearing expressions stay on the gather path.
		{q: "SELECT genre, COUNT(*) FROM movie GROUP BY genre HAVING COUNT(*) > 10 ORDER BY genre", pushed: false, ordered: true},
		// An alias shadowing a real column: the reference resolves ORDER BY
		// against the base column first, so this must not sort by the
		// alias — it stays on the gather path.
		{q: "SELECT genre AS year, COUNT(*) FROM movie GROUP BY genre ORDER BY year", pushed: false},
	}
	for _, c := range cases {
		stmt, err := sql.Parse(c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		want, err := ref.Execute(stmt)
		if err != nil {
			t.Fatalf("%s: reference: %v", c.q, err)
		}
		src.ResetStats()
		got, err := src.Execute(stmt)
		if err != nil {
			t.Fatalf("%s: sharded: %v", c.q, err)
		}
		st := src.Stats()
		if pushed := st.AggPushdownQueries > 0; pushed != c.pushed {
			t.Errorf("%s: agg pushdown engaged=%v, want %v", c.q, pushed, c.pushed)
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
}

// TestAggPushdownGroupKeyNoCollision pins the coordinator merge's group
// identity: string group keys whose naive concatenations coincide —
// ("x|sy", "z") vs ("x", "y|sz") under a '|' join — must stay separate
// groups, exactly as the reference interpreter keeps them.
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
	rows := []struct{ a, b string }{
		{"x|sy", "z"}, {"x", "y|sz"}, {"x|sy", "z"}, {"plain", "keys"},
	}
	for i, r := range rows {
		if err := db.Insert("kv", relational.Row{
			relational.Int(int64(i + 1)), relational.String_(r.a), relational.String_(r.b),
		}); err != nil {
			t.Fatal(err)
		}
	}
	ref := wrapper.NewFullAccessSource(db)
	parts, err := Partition(db, 3)
	if err != nil {
		t.Fatal(err)
	}
	src, err := New(db.Name, parts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := sql.Parse("SELECT a, b, COUNT(*) FROM kv GROUP BY a, b ORDER BY a, b")
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Execute(stmt)
	if err != nil {
		t.Fatal(err)
	}
	src.ResetStats()
	got, err := src.Execute(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if src.Stats().AggPushdownQueries == 0 {
		t.Fatal("agg pushdown did not engage")
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%d groups, want %d (delimiter collision merged distinct groups?)", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			if got.Rows[i][j].Key() != want.Rows[i][j].Key() {
				t.Errorf("group %d cell %d: got %v, want %v", i, j, got.Rows[i][j], want.Rows[i][j])
			}
		}
	}
}

// TestAggPushdownShipsPartialsNotRows pins the bandwidth win: a grouped
// aggregate ships one partial row per shard and group, not the qualifying
// base rows.
func TestAggPushdownShipsPartialsNotRows(t *testing.T) {
	db := aggDB(t)
	parts, err := Partition(db, 4)
	if err != nil {
		t.Fatal(err)
	}
	src, err := New(db.Name, parts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := sql.Parse("SELECT genre, COUNT(*) FROM movie GROUP BY genre")
	if err != nil {
		t.Fatal(err)
	}
	src.ResetStats()
	if _, err := src.Execute(stmt); err != nil {
		t.Fatal(err)
	}
	st := src.Stats()
	// 3 genres × 4 shards = at most 12 partial rows, vs 300 base rows.
	if st.RowsShipped > 12 {
		t.Errorf("aggregate shipped %d rows, want <= 12 partials", st.RowsShipped)
	}
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
	db := aggDB(t)
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
