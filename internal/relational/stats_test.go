package relational

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func statsTable(t *testing.T) *Table {
	t.Helper()
	ts := &TableSchema{
		Name: "m",
		Columns: []Column{
			{Name: "id", Type: TypeInt, NotNull: true},
			{Name: "year", Type: TypeInt},
			{Name: "genre", Type: TypeString},
		},
		PrimaryKey: "id",
	}
	if err := ts.Validate(); err != nil {
		t.Fatal(err)
	}
	tbl := NewTable(ts)
	genres := []string{"drama", "drama", "drama", "drama", "comedy", "comedy", "noir", "western"}
	for i := 0; i < 400; i++ {
		year := Value(Int(int64(1960 + i%50)))
		if i%11 == 0 {
			year = Null()
		}
		tbl.MustInsert(Row{Int(int64(i)), year, String_(genres[i%len(genres)])})
	}
	return tbl
}

func TestColumnStatsBasics(t *testing.T) {
	tbl := statsTable(t)
	cs, err := tbl.Stats("year")
	if err != nil {
		t.Fatal(err)
	}
	if cs.Rows != 400 || cs.NullCount != 37 {
		t.Errorf("rows/nulls = %d/%d, want 400/37", cs.Rows, cs.NullCount)
	}
	if cs.Distinct != 50 {
		t.Errorf("distinct = %d, want 50", cs.Distinct)
	}
	if Compare(cs.Min, Int(1960)) != 0 || Compare(cs.Max, Int(2009)) != 0 {
		t.Errorf("min/max = %v/%v, want 1960/2009", cs.Min, cs.Max)
	}
	if cs.NullFraction() != 37.0/400 {
		t.Errorf("null fraction = %v, want 37/400", cs.NullFraction())
	}
}

// TestColumnStatsMCVsOnSkew pins the uniform equality estimate: every
// value in [Min, Max] is estimated at nonNull/Distinct rows, however
// skewed the column is, and a value outside the range or NULL at none.
func TestColumnStatsMCVsOnSkew(t *testing.T) {
	tbl := statsTable(t)
	cs, err := tbl.Stats("genre")
	if err != nil {
		t.Fatal(err)
	}
	if cs.Distinct != 4 {
		t.Fatalf("distinct genres = %d, want 4", cs.Distinct)
	}
	for _, v := range []Value{String_("drama"), String_("noir"), String_("horror")} {
		// drama holds 200 rows, noir 50, horror none: all read 400/4.
		if got := cs.EstimateEq(v); got != 100 {
			t.Errorf("EstimateEq(%v) = %d, want the uniform 100", v, got)
		}
	}
	for _, v := range []Value{String_("action"), String_("zombie"), Null()} {
		if got := cs.EstimateEq(v); got != 0 {
			t.Errorf("EstimateEq(%v) = %d, want 0 outside [comedy, western]", v, got)
		}
	}
	// A value never estimates below one row while it is in range.
	sparse := &ColumnStats{Rows: 3, Distinct: 3, Min: Int(1), Max: Int(9)}
	if got := sparse.EstimateEq(Int(5)); got != 1 {
		t.Errorf("EstimateEq on a unique column = %d, want 1", got)
	}
}

// TestStatsStaleVersionRebuild is the invalidation contract: statistics
// keyed on a stale Table.Version must be rebuilt, never served. Inserting
// rows between Stats calls must be reflected in fresh distinct counts.
func TestStatsStaleVersionRebuild(t *testing.T) {
	tbl := statsTable(t)
	cs1, err := tbl.Stats("year")
	if err != nil {
		t.Fatal(err)
	}
	before := cs1.Distinct
	cs1b, err := tbl.Stats("year")
	if err != nil {
		t.Fatal(err)
	}
	if cs1b != cs1 {
		t.Error("unchanged table: Stats must serve the cached snapshot")
	}
	// Mutate: add rows with years outside the existing domain.
	for i := 0; i < 5; i++ {
		tbl.MustInsert(Row{Int(int64(1000 + i)), Int(int64(2100 + i)), String_("scifi")})
	}
	cs2, err := tbl.Stats("year")
	if err != nil {
		t.Fatal(err)
	}
	if cs2 == cs1 {
		t.Fatal("stale snapshot served after Insert")
	}
	if cs2.Distinct != before+5 {
		t.Errorf("distinct after insert = %d, want %d", cs2.Distinct, before+5)
	}
	if Compare(cs2.Max, Int(2104)) != 0 {
		t.Errorf("max after insert = %v, want 2104", cs2.Max)
	}
	if cs2.Version != tbl.Version() {
		t.Errorf("snapshot version %d != table version %d", cs2.Version, tbl.Version())
	}
}

// TestStatsIncrementalDelta: after random inserts (NULLs, INT and FLOAT
// literals into both numeric column types, repeated values) the
// insert-maintained snapshot equals, field for field, the one a fresh
// table holding the same rows builds from scratch — whether Distinct comes
// from the summary's key set or, once a hash index exists, from the index
// — no snapshot after the first rereads the rows, and every insert after
// the first Stats calls is counted as folded.
func TestStatsIncrementalDelta(t *testing.T) {
	ts := &TableSchema{
		Name: "x",
		Columns: []Column{
			{Name: "id", Type: TypeInt, NotNull: true},
			{Name: "i", Type: TypeInt},
			{Name: "f", Type: TypeFloat},
			{Name: "s", Type: TypeString},
		},
		PrimaryKey: "id",
	}
	if err := ts.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	num := func() Value {
		switch rng.Intn(5) {
		case 0:
			return Null()
		case 1:
			return Float(float64(rng.Intn(40)) / 2) // halves and whole floats
		default:
			return Int(int64(rng.Intn(30) - 10))
		}
	}
	row := func(id int) Row {
		s := Value(String_(fmt.Sprintf("w%d", rng.Intn(15))))
		if rng.Intn(6) == 0 {
			s = Null()
		}
		return Row{Int(int64(id)), num(), num(), s}
	}
	cols := []string{"id", "i", "f", "s"}
	tbl := NewTable(ts)
	var all []Row
	for id := 0; id < 50; id++ {
		all = append(all, row(id))
		tbl.MustInsert(all[id])
	}
	for _, c := range cols {
		if _, err := tbl.Stats(c); err != nil {
			t.Fatal(err)
		}
	}
	builds := tbl.MaintenanceStats().StatsFullRebuilds
	for round := 0; round < 20; round++ {
		for n := 1 + rng.Intn(10); n > 0; n-- {
			r := row(len(all))
			all = append(all, r)
			tbl.MustInsert(r)
		}
		if round == 10 {
			// From here on Distinct of i reads the hash index.
			if _, err := tbl.EnsureIndex("i"); err != nil {
				t.Fatal(err)
			}
		}
		ctl := NewTable(ts)
		for _, r := range all {
			ctl.MustInsert(r)
		}
		for _, c := range cols {
			got, err := tbl.Stats(c)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ctl.Stats(c)
			if err != nil {
				t.Fatal(err)
			}
			if *got != *want {
				t.Fatalf("round %d column %s: maintained %+v, from scratch %+v", round, c, *got, *want)
			}
		}
	}
	if got := tbl.MaintenanceStats().StatsFullRebuilds; got != builds {
		t.Errorf("stats builds = %d, want %d (inserts never force a rebuild)", got, builds)
	}
	if got := tbl.MaintenanceStats().StatsIncrementalUpdates; got != len(all)-50 {
		t.Errorf("inserts folded into summaries = %d, want %d", got, len(all)-50)
	}
}

// TestStatsIncrementalCountsWrites: StatsIncrementalUpdates counts the
// inserts folded into a column summary, so the same inserts give the same
// count whether plans read the statistics 0, 1 or 3 times between them.
// Inserts before the first Stats call reach no summary and do not count.
func TestStatsIncrementalCountsWrites(t *testing.T) {
	var counts []int
	for _, reads := range []int{0, 1, 3} {
		tbl := statsTable(t)
		tbl.MustInsert(Row{Int(5000), Int(1999), String_("noir")})
		if _, err := tbl.Stats("year"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			year := Value(Int(int64(1950 + i)))
			if i%7 == 0 {
				year = Null()
			}
			tbl.MustInsert(Row{Int(int64(6000 + i)), year, String_("drama")})
			for r := 0; r < reads; r++ {
				if _, err := tbl.Stats([]string{"year", "genre", "id"}[r]); err != nil {
					t.Fatal(err)
				}
			}
		}
		counts = append(counts, tbl.MaintenanceStats().StatsIncrementalUpdates)
	}
	for i, reads := range []int{0, 1, 3} {
		if counts[i] != 30 {
			t.Errorf("%d Stats reads between inserts: StatsIncrementalUpdates = %d, want 30", reads, counts[i])
		}
	}
}

// TestStatsConcurrentWithInsert hammers Stats and EnsureIndex against
// concurrent Inserts — run with -race. Every snapshot served must be
// internally consistent (rows ≥ nulls, min ≤ max) even while writes land,
// and a lazy index build must not race Insert's posting maintenance.
// (LookupOrdinals reads its posting outside idxMu, so it belongs to
// TestStatsConcurrentBuild, which has no writer.)
func TestStatsConcurrentWithInsert(t *testing.T) {
	tbl := statsTable(t)
	var wg sync.WaitGroup
	errc := make(chan error, 32)
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			year := Value(Int(int64(1960 + i%80)))
			if i%13 == 0 {
				year = Null()
			}
			if err := tbl.Insert(Row{Int(int64(50000 + i)), year, String_("drama")}); err != nil {
				errc <- err
				return
			}
		}
		close(stop)
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				cs, err := tbl.Stats([]string{"year", "genre"}[w%2])
				if err != nil {
					errc <- err
					return
				}
				if cs.Rows < cs.NullCount {
					errc <- fmt.Errorf("inconsistent snapshot: rows %d < nulls %d", cs.Rows, cs.NullCount)
					return
				}
				if cs.Rows > cs.NullCount && Compare(cs.Min, cs.Max) > 0 {
					errc <- fmt.Errorf("inconsistent snapshot: min %v > max %v", cs.Min, cs.Max)
					return
				}
				if _, err := tbl.EnsureIndex([]string{"year", "genre"}[w%2]); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	// After the dust settles the final snapshot counts every row.
	cs, err := tbl.Stats("year")
	if err != nil {
		t.Fatal(err)
	}
	if cs.Rows != tbl.Len() {
		t.Errorf("final rows = %d, want %d", cs.Rows, tbl.Len())
	}
}

// TestStatsConcurrentBuild: concurrent readers may trigger the same lazy
// stats/hash-index build; run with -race.
func TestStatsConcurrentBuild(t *testing.T) {
	tbl := statsTable(t)
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := tbl.Stats([]string{"year", "genre"}[i%2]); err != nil {
					errc <- err
					return
				}
				if _, err := tbl.LookupOrdinals("year", Int(int64(1960+w+i))); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if got := tbl.MaintenanceStats().StatsFullRebuilds; got != 2 {
		t.Errorf("stats builds = %d, want 2 (one per column, no duplicate builds)", got)
	}
	if got := tbl.IndexBuildCount(); got != 1 {
		t.Errorf("index builds = %d, want 1 (no duplicate builds)", got)
	}
}
