package sql

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/relational"
)

// linearIn is the reference semantics of a compiled literal IN conjunct:
// relational.Equal against each literal in turn, a NULL value never
// matching and NULL literals only turning FALSE into UNKNOWN (which
// rejects the row all the same).
func linearIn(v relational.Value, lits []relational.Value) bool {
	if v.IsNull() {
		return false
	}
	for _, lit := range lits {
		if !lit.IsNull() && relational.Equal(v, lit) {
			return true
		}
	}
	return false
}

// compiledIn compiles `c IN (lits...)` over a one-column relation through
// the same path a pushed scan conjunct takes.
func compiledIn(t testing.TB, lits []relational.Value) func(relational.Value) bool {
	t.Helper()
	list := make([]Expr, len(lits))
	for i, v := range lits {
		list[i] = &Literal{Value: v}
	}
	pred, ok := compileVecPred(&relation{cols: []boundCol{{binding: "t", name: "c", display: "t.c"}}},
		&InExpr{Inner: &ColumnRef{Column: "c"}, List: list})
	if !ok {
		t.Fatal("literal IN list did not compile")
	}
	return pred.fn
}

// inValuePool holds the values whose equalities are easy to get wrong: Int
// and Float of equal magnitude, ±0, NaN and the infinities, ints above 2^53
// that widen to the same float64, numeric-looking strings, booleans, NULL.
func inValuePool() []relational.Value {
	I, F, S, B := relational.Int, relational.Float, relational.String_, relational.Bool
	const p53 = int64(1) << 53
	return []relational.Value{
		relational.Null(),
		I(0), I(1), I(-1), I(3), I(p53), I(p53 + 1), I(p53 + 2), I(-p53 - 1),
		I(math.MaxInt64), I(math.MinInt64),
		F(0), F(math.Copysign(0, -1)), F(1), F(-1), F(3), F(3.5), F(float64(p53)),
		F(float64(p53) + 2), F(math.NaN()), F(math.Inf(1)), F(math.Inf(-1)), F(9.223372036854775807e18),
		S(""), S("1"), S("3"), S("a"), S("A"),
		B(true), B(false),
	}
}

// TestCompiledInMatchesLinearEqual is the property the hashed IN set must
// keep: for random literal lists over the pool (and random extra values),
// the compiled predicate answers exactly as the linear Equal loop.
func TestCompiledInMatchesLinearEqual(t *testing.T) {
	pool := inValuePool()
	rng := rand.New(rand.NewSource(7))
	randValue := func() relational.Value {
		if rng.Intn(3) > 0 {
			return pool[rng.Intn(len(pool))]
		}
		switch rng.Intn(3) {
		case 0:
			return relational.Int(rng.Int63n(9) - 4)
		case 1:
			return relational.Float(float64(rng.Intn(17)-8) / 2)
		default:
			return relational.String_(string(rune('a' + rng.Intn(4))))
		}
	}
	for iter := 0; iter < 3000; iter++ {
		lits := make([]relational.Value, rng.Intn(12))
		for i := range lits {
			lits[i] = randValue()
		}
		in := compiledIn(t, lits)
		probes := append(append([]relational.Value(nil), pool...), lits...)
		for k := 0; k < 8; k++ {
			probes = append(probes, randValue())
		}
		for _, v := range probes {
			if got, want := in(v), linearIn(v, lits); got != want {
				t.Fatalf("%v (%v) IN %v: compiled %v, Equal loop %v", v, v.Type(), lits, got, want)
			}
		}
	}
}

// TestCompiledInEdgeCases pins the individual rules the property test
// exercises at random.
func TestCompiledInEdgeCases(t *testing.T) {
	I, F, S, B := relational.Int, relational.Float, relational.String_, relational.Bool
	nan, negZero := F(math.NaN()), F(math.Copysign(0, -1))
	const p53 = int64(1) << 53
	for _, c := range []struct {
		name string
		v    relational.Value
		lits []relational.Value
		want bool
	}{
		{"int matches integral float", I(3), []relational.Value{F(3)}, true},
		{"float matches int", F(3), []relational.Value{I(3)}, true},
		{"fractional float misses int", F(3.5), []relational.Value{I(3)}, false},
		{"+0 matches -0", F(0), []relational.Value{negZero}, true},
		{"-0 matches int 0", negZero, []relational.Value{I(0)}, true},
		{"ints above 2^53 widen alike", I(p53 + 1), []relational.Value{I(p53)}, true},
		{"NaN value matches any number", nan, []relational.Value{I(42)}, true},
		{"NaN value misses strings", nan, []relational.Value{S("42")}, false},
		{"NaN literal matches every number", I(-7), []relational.Value{S("x"), nan}, true},
		{"NaN literal misses strings", S("x"), []relational.Value{nan}, false},
		{"string never matches number", S("3"), []relational.Value{I(3)}, false},
		{"number never matches string", I(3), []relational.Value{S("3")}, false},
		{"bool matches bool", B(false), []relational.Value{B(true), B(false)}, true},
		{"bool never matches int", B(true), []relational.Value{I(1)}, false},
		{"NULL value never matches", relational.Null(), []relational.Value{relational.Null(), I(1)}, false},
		{"NULL literal drops out", I(1), []relational.Value{relational.Null()}, false},
		{"empty list", I(1), nil, false},
	} {
		in := compiledIn(t, c.lits)
		if got := in(c.v); got != c.want || got != linearIn(c.v, c.lits) {
			t.Errorf("%s: compiled %v, want %v (Equal loop %v)", c.name, got, c.want, linearIn(c.v, c.lits))
		}
	}
}

// fuzzValues decodes fuzz bytes into values: a tag byte picks the kind,
// then numbers take 8 bytes (float bits reach NaN, ±0 and the infinities)
// and strings a length byte plus at most three bytes.
func fuzzValues(b []byte) []relational.Value {
	var out []relational.Value
	next8 := func() uint64 {
		var buf [8]byte
		n := copy(buf[:], b)
		b = b[n:]
		return binary.LittleEndian.Uint64(buf[:])
	}
	for len(b) > 0 {
		tag := b[0] % 6
		b = b[1:]
		switch tag {
		case 0:
			out = append(out, relational.Null())
		case 1:
			out = append(out, relational.Int(int64(next8())))
		case 2:
			out = append(out, relational.Float(math.Float64frombits(next8())))
		case 3:
			n := 0
			if len(b) > 0 {
				n = min(int(b[0]%4), len(b)-1)
				b = b[1:]
			}
			out = append(out, relational.String_(string(b[:n])))
			b = b[n:]
		case 4:
			out = append(out, relational.Bool(true))
		default:
			out = append(out, relational.Bool(false))
		}
	}
	return out
}

// FuzzCompiledIn holds the compiled IN set to the linear Equal loop on
// arbitrary value lists: every decoded value is probed against each
// suffix of the decoded list (`make fuzz-smoke`).
func FuzzCompiledIn(f *testing.F) {
	le := func(x uint64) []byte { return binary.LittleEndian.AppendUint64(nil, x) }
	seed := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	f.Add(seed([]byte{1}, le(3), []byte{2}, le(math.Float64bits(3))))
	f.Add(seed([]byte{2}, le(math.Float64bits(math.NaN())), []byte{3, 1, 'x'}))
	f.Add(seed([]byte{2}, le(math.Float64bits(math.Copysign(0, -1))), []byte{1}, le(0)))
	f.Add(seed([]byte{1}, le(1<<53+1), []byte{1}, le(1<<53)))
	f.Add(seed([]byte{0, 4, 5, 3, 0}))
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := fuzzValues(data)
		if len(vals) > 32 { // the check below is cubic in the list length
			vals = vals[:32]
		}
		for i := range vals {
			lits := vals[i:]
			in := compiledIn(t, lits)
			for _, v := range vals {
				if got, want := in(v), linearIn(v, lits); got != want {
					t.Fatalf("%v (%v) IN %v: compiled %v, Equal loop %v", v, v.Type(), lits, got, want)
				}
			}
		}
	})
}
