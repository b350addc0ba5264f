package relational

import (
	"fmt"
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
	if len(cs.Buckets) == 0 {
		t.Fatal("no histogram buckets")
	}
	total := 0
	for _, b := range cs.Buckets {
		total += b.Count
	}
	if total != 363 {
		t.Errorf("histogram covers %d rows, want 363 non-NULL", total)
	}
}

func TestColumnStatsMCVsOnSkew(t *testing.T) {
	tbl := statsTable(t)
	cs, err := tbl.Stats("genre")
	if err != nil {
		t.Fatal(err)
	}
	if cs.Distinct != 4 {
		t.Fatalf("distinct genres = %d, want 4", cs.Distinct)
	}
	if len(cs.MCVs) != 4 {
		t.Fatalf("MCVs = %v, want all 4 genres (every value repeats)", cs.MCVs)
	}
	// drama occurs 4/8 of the time: its MCV entry must be exact and first.
	if Compare(cs.MCVs[0].Value, String_("drama")) != 0 || cs.MCVs[0].Count != 200 {
		t.Errorf("top MCV = %v, want drama x200", cs.MCVs[0])
	}
	if got := cs.EstimateEq(String_("drama")); got != 200 {
		t.Errorf("EstimateEq(drama) = %d, want exact 200", got)
	}
	if got := cs.EstimateEq(String_("horror")); got != 0 {
		t.Errorf("EstimateEq(absent) = %d, want 0", got)
	}
}

func TestColumnStatsRangeEstimate(t *testing.T) {
	tbl := statsTable(t)
	cs, err := tbl.Stats("year")
	if err != nil {
		t.Fatal(err)
	}
	// Exact truth: 1970..1979 inclusive covers 10 of 50 year values; years
	// cycle uniformly over the non-NULL rows.
	got := cs.EstimateRange(Int(1970), Int(1979), true, true)
	want := 73 // (10/50) * 363
	if got < want/2 || got > want*2 {
		t.Errorf("EstimateRange(1970..1979) = %d, want within 2x of %d", got, want)
	}
	if got := cs.EstimateRange(Null(), Null(), true, true); got != 363 {
		t.Errorf("unbounded range = %d, want every non-NULL row (363)", got)
	}
	if got := cs.EstimateRange(Int(3000), Null(), true, true); got != 0 {
		t.Errorf("range above max = %d, want 0", got)
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

// TestStatsIncrementalDelta: within the staleness budget Stats folds the
// insert delta into the base snapshot instead of rebuilding — exact
// rows/nulls/min/max, labeled budget-stale — and a budget-exceeding burst
// forces a fresh full rebuild.
func TestStatsIncrementalDelta(t *testing.T) {
	tbl := statsTable(t)
	cs0, err := tbl.Stats("year")
	if err != nil {
		t.Fatal(err)
	}
	if cs0.Freshness != StatsFresh {
		t.Errorf("initial freshness = %q, want %q", cs0.Freshness, StatsFresh)
	}
	builds := tbl.StatsBuildCount()
	for i := 0; i < 5; i++ {
		tbl.MustInsert(Row{Int(int64(5000 + i)), Int(int64(2200 + i)), String_("scifi")})
	}
	cs, err := tbl.Stats("year")
	if err != nil {
		t.Fatal(err)
	}
	if cs.Freshness != StatsBudgetStale {
		t.Errorf("freshness = %q, want %q", cs.Freshness, StatsBudgetStale)
	}
	if tbl.StatsBuildCount() != builds {
		t.Errorf("stats builds = %d, want %d (delta fold, not rebuild)", tbl.StatsBuildCount(), builds)
	}
	if cs.Rows != cs0.Rows+5 || cs.NullCount != cs0.NullCount {
		t.Errorf("rows/nulls = %d/%d, want %d/%d", cs.Rows, cs.NullCount, cs0.Rows+5, cs0.NullCount)
	}
	if Compare(cs.Max, Int(2204)) != 0 || Compare(cs.Min, cs0.Min) != 0 {
		t.Errorf("min/max = %v/%v, want %v/2204", cs.Min, cs.Max, cs0.Min)
	}
	if cs.Distinct != cs0.Distinct+5 {
		t.Errorf("distinct = %d, want %d", cs.Distinct, cs0.Distinct+5)
	}
	if got := tbl.MaintenanceStats().StatsIncrementalUpdates; got == 0 {
		t.Error("incremental update not counted")
	}
	// Past the budget the next Stats call rebuilds from scratch.
	budget := statsStalenessInserts
	if f := int(statsStalenessFraction * float64(cs.Rows)); f > budget {
		budget = f
	}
	for i := 0; i <= budget; i++ {
		tbl.MustInsert(Row{Int(int64(6000 + i)), Int(int64(1960 + i%50)), String_("drama")})
	}
	cs2, err := tbl.Stats("year")
	if err != nil {
		t.Fatal(err)
	}
	if cs2.Freshness != StatsFresh {
		t.Errorf("post-budget freshness = %q, want %q", cs2.Freshness, StatsFresh)
	}
	if tbl.StatsBuildCount() != builds+1 {
		t.Errorf("stats builds = %d, want %d (budget exceeded forces rebuild)", tbl.StatsBuildCount(), builds+1)
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
	// After the dust settles a final snapshot must be exact on the fields
	// the delta maintains exactly.
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
	if got := tbl.StatsBuildCount(); got != 2 {
		t.Errorf("stats builds = %d, want 2 (one per column, no duplicate builds)", got)
	}
}

var _ = fmt.Sprint // keep fmt available for debugging edits
