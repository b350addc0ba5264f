package relational

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestAppendKeyMatchesKey pins the stack-buffer key encoder to Value.Key:
// index postings are keyed by Key, so any drift would make probes miss.
func TestAppendKeyMatchesKey(t *testing.T) {
	for _, v := range []Value{
		Null(),
		Int(0), Int(-42), Int(math.MinInt64), Int(math.MaxInt64),
		Float(3), Float(-7), Float(2.5), Float(-0.125), Float(1e300), Float(math.Copysign(0, -1)),
		Float(math.Inf(1)), Float(math.NaN()),
		String_(""), String_("greco"), String_(strings.Repeat("long key ", 20)),
		Bool(true), Bool(false),
	} {
		if got, want := string(v.appendKey(nil)), v.Key(); got != want {
			t.Errorf("appendKey(%v) = %q, want Key() %q", v, got, want)
		}
	}
	// Integral floats share the integer key (3 and 3.0 join), -0.0 is 0.
	if Float(3).Key() != Int(3).Key() || Float(math.Copysign(0, -1)).Key() != Int(0).Key() {
		t.Fatal("integral float keys must equal the integer keys")
	}
}

// probeDB builds cast_info with duplicate, NULL and float-typed keys.
func probeDB(t *testing.T) *Table {
	t.Helper()
	s := NewSchema()
	if err := s.AddTable(&TableSchema{
		Name: "cast_info",
		Columns: []Column{
			{Name: "cast_id", Type: TypeInt, NotNull: true},
			{Name: "movie_id", Type: TypeInt},
			{Name: "score", Type: TypeFloat},
		},
		PrimaryKey: "cast_id",
	}); err != nil {
		t.Fatal(err)
	}
	db := MustNewDatabase("probe", s)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		mid := Value(Int(int64(rng.Intn(60))))
		if rng.Intn(9) == 0 {
			mid = Null()
		}
		score := Value(Float(float64(rng.Intn(20)) / 2))
		if rng.Intn(9) == 0 {
			score = Null()
		}
		if err := db.Insert("cast_info", Row{Int(int64(i)), mid, score}); err != nil {
			t.Fatal(err)
		}
	}
	return db.Table("cast_info")
}

// bruteOrdinals is the specification of ProbeOrdinals: every ordinal whose
// column key-equals some non-NULL probe value, ascending.
func bruteOrdinals(t *Table, col int, probes []Row, probeCol int) []int {
	keys := make(map[string]bool)
	for _, p := range probes {
		if !p[probeCol].IsNull() {
			keys[p[probeCol].Key()] = true
		}
	}
	var out []int
	for i, r := range t.Rows() {
		if !r[col].IsNull() && keys[r[col].Key()] {
			out = append(out, i)
		}
	}
	return out
}

func TestProbeOrdinalsMatchesBruteForce(t *testing.T) {
	tbl := probeDB(t)
	rng := rand.New(rand.NewSource(3))
	vals := []Value{Null(), Int(5), Float(5), Float(2.5), Int(-1), Int(59), Float(9.5), String_("5")}
	for iter := 0; iter < 300; iter++ {
		probes := make([]Row, rng.Intn(12))
		for i := range probes {
			v := vals[rng.Intn(len(vals))]
			if rng.Intn(2) == 0 {
				v = Int(int64(rng.Intn(70)))
			}
			probes[i] = Row{v}
			if i > 0 && rng.Intn(4) == 0 {
				probes[i] = probes[i-1] // adjacent repeat
			}
		}
		for col := 0; col < 3; col++ { // PK, FK-style and float columns
			want := bruteOrdinals(tbl, col, probes, 0)
			got, ok := tbl.ProbeOrdinals(nil, col, probes, 0, -1)
			if !ok {
				t.Fatalf("unbounded probe gave up")
			}
			if !slices.Equal(got, want) {
				t.Fatalf("col %d probes %v:\n got  %v\n want %v", col, probes, got, want)
			}
		}
	}
}

func TestProbeOrdinalsLimit(t *testing.T) {
	tbl := probeDB(t)
	probes := []Row{{Int(1)}, {Int(2)}, {Int(3)}}
	all := bruteOrdinals(tbl, 1, probes, 0)
	if len(all) < 2 {
		t.Fatalf("fixture too sparse: %d candidates", len(all))
	}
	if _, ok := tbl.ProbeOrdinals(nil, 1, probes, 0, len(all)); ok {
		t.Fatalf("probe with exactly limit=%d candidates must give up", len(all))
	}
	got, ok := tbl.ProbeOrdinals(nil, 1, probes, 0, len(all)+1)
	if !ok || !slices.Equal(got, all) {
		t.Fatalf("probe under the limit: ok=%v got %v want %v", ok, got, all)
	}
	// Non-adjacent repeats count per occurrence but still dedupe.
	rep := []Row{{Int(1)}, {Int(2)}, {Int(1)}}
	got, ok = tbl.ProbeOrdinals(nil, 1, rep, 0, -1)
	if want := bruteOrdinals(tbl, 1, rep, 0); !ok || !slices.Equal(got, want) {
		t.Fatalf("repeated probe values: got %v want %v", got, want)
	}
}

func TestProbeOrdinalsZeroAlloc(t *testing.T) {
	tbl := probeDB(t)
	probes := []Row{{Int(4)}, {Int(4)}, {Int(17)}, {Null()}, {Float(33)}}
	dst := make([]int, 0, tbl.Len())
	tbl.ProbeOrdinals(dst, 1, probes, 0, -1) // build the movie_id index
	for _, col := range []int{0, 1} {        // PK index, equality index
		if n := testing.AllocsPerRun(100, func() {
			if _, ok := tbl.ProbeOrdinals(dst, col, probes, 0, -1); !ok {
				t.Fatal("probe gave up")
			}
		}); n != 0 {
			t.Errorf("column %d: ProbeOrdinals allocated %.1f times per run, want 0", col, n)
		}
	}
}

func TestLookupOrdinalsSharesProbeEncoding(t *testing.T) {
	tbl := probeDB(t)
	for _, v := range []Value{Int(4), Float(4), Float(2.5), Null(), Int(999)} {
		for _, col := range []string{"cast_id", "movie_id", "score"} {
			got, err := tbl.LookupOrdinals(col, v)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteOrdinals(tbl, tbl.Schema.ColumnIndex(col), []Row{{v}}, 0)
			if !slices.Equal(got, want) {
				t.Fatalf("LookupOrdinals(%s, %v) = %v, want %v", col, v, got, want)
			}
		}
	}
	if _, err := tbl.LookupOrdinals("nope", Int(1)); err == nil {
		t.Fatal("unknown column must error")
	}
}
