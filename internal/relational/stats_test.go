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

func TestRangeOrdinals(t *testing.T) {
	tbl := statsTable(t)
	ords, err := tbl.RangeOrdinals("year", Int(1970), Int(1972), true, true)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, r := range tbl.Rows() {
		v := r[1]
		if v.IsNull() {
			continue
		}
		if v.AsInt() >= 1970 && v.AsInt() <= 1972 {
			want++
		}
	}
	if len(ords) != want {
		t.Errorf("range [1970,1972] = %d ordinals, want %d", len(ords), want)
	}
	for _, o := range ords {
		y := tbl.Row(o)[1]
		if y.IsNull() || y.AsInt() < 1970 || y.AsInt() > 1972 {
			t.Fatalf("ordinal %d outside range: %v", o, y)
		}
	}
	// Strict bounds drop the endpoints.
	strict, err := tbl.RangeOrdinals("year", Int(1970), Int(1972), false, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range strict {
		if y := tbl.Row(o)[1].AsInt(); y != 1971 {
			t.Fatalf("strict range returned year %d", y)
		}
	}
	// Unbounded sides.
	all, err := tbl.RangeOrdinals("year", Null(), Null(), true, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 363 {
		t.Errorf("unbounded range = %d ordinals, want 363 non-NULL", len(all))
	}
	// Empty interval.
	empty, err := tbl.RangeOrdinals("year", Int(3000), Int(4000), true, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(empty) != 0 {
		t.Errorf("empty interval returned %d ordinals", len(empty))
	}
	if _, err := tbl.RangeOrdinals("nope", Null(), Null(), true, true); err == nil {
		t.Error("unknown column must error")
	}
}

// TestSortedIndexSideRun: inserts land in a sorted side-run instead of
// invalidating the index — range scans merge the runs on read, no rebuild
// happens until the run outgrows sortedSideRunThreshold, and results never
// miss a row.
func TestSortedIndexSideRun(t *testing.T) {
	tbl := statsTable(t)
	if _, err := tbl.RangeOrdinals("year", Int(1970), Int(1980), true, true); err != nil {
		t.Fatal(err)
	}
	builds := tbl.SortedIndexBuildCount()
	tbl.MustInsert(Row{Int(9999), Int(2150), String_("scifi")})
	if !tbl.HasSortedIndex("year") {
		t.Error("side-run-maintained index must stay up to date across Insert")
	}
	ords, err := tbl.RangeOrdinals("year", Int(2100), Null(), true, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(ords) != 1 || tbl.Row(ords[0])[1].AsInt() != 2150 {
		t.Fatalf("post-insert range = %v, want the new row", ords)
	}
	if got := tbl.SortedIndexBuildCount(); got != builds {
		t.Errorf("build count = %d, want %d (no rebuild within the side-run budget)", got, builds)
	}
	// Interleaved range results stay ordered by (value, ordinal) when both
	// runs contribute.
	tbl.MustInsert(Row{Int(10000), Int(1975), String_("drama")})
	mixed, err := tbl.RangeOrdinals("year", Int(1974), Int(1976), true, true)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i, o := range mixed {
		y := tbl.Row(o)[1]
		if y.IsNull() || y.AsInt() < 1974 || y.AsInt() > 1976 {
			t.Fatalf("ordinal %d outside range: %v", o, y)
		}
		if i > 0 {
			prev := tbl.Row(mixed[i-1])[1]
			if c := Compare(prev, y); c > 0 || (c == 0 && mixed[i-1] > o) {
				t.Fatalf("merged range out of (value, ordinal) order at %d", i)
			}
		}
		if o == tbl.Len()-1 {
			found = true
		}
	}
	if !found {
		t.Error("merged range missed the side-run row")
	}
	if tbl.MaintenanceStats().SortedIndexMerges == 0 {
		t.Error("read-time merge not counted")
	}
	// Overflow the side-run: the collapse counts as one rebuild and the
	// index stays current.
	for i := 0; i <= sortedSideRunThreshold; i++ {
		tbl.MustInsert(Row{Int(int64(20000 + i)), Int(int64(1960 + i%50)), String_("drama")})
	}
	if got := tbl.SortedIndexBuildCount(); got != builds+1 {
		t.Errorf("build count after overflow = %d, want %d (one collapse)", got, builds+1)
	}
	if !tbl.HasSortedIndex("year") {
		t.Error("index must stay current after side-run collapse")
	}
	all, err := tbl.RangeOrdinals("year", Null(), Null(), true, true)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, r := range tbl.Rows() {
		if !r[1].IsNull() {
			want++
		}
	}
	if len(all) != want {
		t.Errorf("unbounded range after collapse = %d ordinals, want %d", len(all), want)
	}
}

// TestStatsIncrementalDelta: after random inserts (NULLs, INT and FLOAT
// literals into both numeric column types, repeated values) the
// insert-maintained snapshot equals, field for field, the one a fresh
// table holding the same rows builds from scratch — whether Distinct comes
// from the summary's key set or, once a hash index exists, from the index
// — and no snapshot after the first rereads the rows.
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
	if got := tbl.MaintenanceStats().StatsIncrementalUpdates; got != 20*len(cols) {
		t.Errorf("snapshots after inserts = %d, want %d", got, 20*len(cols))
	}
}

// TestStatsConcurrentWithInsert hammers Stats and RangeOrdinals against
// concurrent Inserts — run with -race. Every snapshot served must be
// internally consistent (rows ≥ nulls, min ≤ max) even while writes land.
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
				if _, err := tbl.RangeOrdinals("year", Int(1970), Int(1990), true, true); err != nil {
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
// stats/sorted-index build; run with -race.
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
				if _, err := tbl.RangeOrdinals("year", Int(int64(1960+w)), Int(int64(1990+i)), true, true); err != nil {
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
}
