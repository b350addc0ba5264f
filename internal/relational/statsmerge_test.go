package relational

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
)

// buildStatsFixture returns the full table and per-shard partitions of the
// same rows, hash-routed on the PK like the shard layer routes.
func buildStatsFixture(t *testing.T, typ Type, n, shards int, gen func(rng *rand.Rand) Value) (*Table, []*Table) {
	t.Helper()
	mk := func(name string) *Table {
		return NewTable(&TableSchema{
			Name: name,
			Columns: []Column{
				{Name: "id", Type: TypeInt, NotNull: true},
				{Name: "v", Type: typ},
			},
			PrimaryKey: "id",
		})
	}
	full := mk("t")
	parts := make([]*Table, shards)
	for i := range parts {
		parts[i] = mk(fmt.Sprintf("t%d", i))
	}
	rng := rand.New(rand.NewSource(int64(7*n + shards)))
	for i := 0; i < n; i++ {
		id := Int(int64(i))
		v := gen(rng)
		row := Row{id, v}
		if err := full.Insert(row.Clone()); err != nil {
			t.Fatal(err)
		}
		h := fnv.New32a()
		h.Write([]byte(id.Key()))
		if err := parts[int(h.Sum32())%shards].Insert(row.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	return full, parts
}

// TestMergeColumnStatsProperties is the cross-shard statistics property
// suite: for randomized value distributions (skewed ints, floats, sparse strings,
// NULL-heavy columns) and shard counts, the merged ColumnStats must agree
// exactly with the unpartitioned table on row counts, NULL fraction and
// min/max, and its distinct estimate must stay inside
// [max(shard distinct), sum(shard distinct)] — which always brackets the
// true distinct count.
func TestMergeColumnStatsProperties(t *testing.T) {
	gens := map[string]struct {
		typ Type
		gen func(rng *rand.Rand) Value
	}{
		"skewed-int": {TypeInt, func(rng *rand.Rand) Value {
			if rng.Intn(10) == 0 {
				return Null()
			}
			if rng.Intn(3) == 0 {
				return Int(7) // heavy hitter shared by every shard
			}
			return Int(int64(rng.Intn(200)))
		}},
		"uniform-float": {TypeFloat, func(rng *rand.Rand) Value {
			return Float(float64(rng.Intn(5000)) / 7)
		}},
		"sparse-string": {TypeString, func(rng *rand.Rand) Value {
			if rng.Intn(4) == 0 {
				return Null()
			}
			return String_(fmt.Sprintf("w%03d", rng.Intn(60)))
		}},
		"all-null": {TypeInt, func(rng *rand.Rand) Value { return Null() }},
	}
	for name, g := range gens {
		for _, shards := range []int{1, 3, 7} {
			for _, n := range []int{0, 13, 400} {
				full, parts := buildStatsFixture(t, g.typ, n, shards, g.gen)
				want, err := full.Stats("v")
				if err != nil {
					t.Fatal(err)
				}
				partStats := make([]*ColumnStats, len(parts))
				sumDistinct, maxDistinct := 0, 0
				for i, p := range parts {
					if partStats[i], err = p.Stats("v"); err != nil {
						t.Fatal(err)
					}
					sumDistinct += partStats[i].Distinct
					if partStats[i].Distinct > maxDistinct {
						maxDistinct = partStats[i].Distinct
					}
				}
				got := MergeColumnStats(partStats)
				label := fmt.Sprintf("%s n=%d shards=%d", name, n, shards)
				if got.Rows != want.Rows || got.NullCount != want.NullCount {
					t.Errorf("%s: rows/nulls %d/%d, want %d/%d", label,
						got.Rows, got.NullCount, want.Rows, want.NullCount)
				}
				if got.NullFraction() != want.NullFraction() {
					t.Errorf("%s: null fraction %v, want %v", label, got.NullFraction(), want.NullFraction())
				}
				if Compare(got.Min, want.Min) != 0 || Compare(got.Max, want.Max) != 0 {
					t.Errorf("%s: min/max %v..%v, want %v..%v", label, got.Min, got.Max, want.Min, want.Max)
				}
				if got.Distinct < maxDistinct || got.Distinct > sumDistinct {
					t.Errorf("%s: distinct %d outside [%d, %d]", label, got.Distinct, maxDistinct, sumDistinct)
				}
				// The bracket must also contain the true distinct count, and
				// the merged estimate may never exceed the non-NULL rows.
				if want.Distinct < maxDistinct || want.Distinct > sumDistinct {
					t.Errorf("%s: true distinct %d outside partition bracket [%d, %d]",
						label, want.Distinct, maxDistinct, sumDistinct)
				}
				if got.Distinct > got.Rows-got.NullCount {
					t.Errorf("%s: distinct %d exceeds non-NULL rows %d", label,
						got.Distinct, got.Rows-got.NullCount)
				}
			}
		}
	}
}

// TestMergeColumnStatsSingle pins the single-partition fast path: one part
// merges to itself unchanged.
func TestMergeColumnStatsSingle(t *testing.T) {
	full, _ := buildStatsFixture(t, TypeInt, 50, 1, func(rng *rand.Rand) Value {
		return Int(int64(rng.Intn(9)))
	})
	cs, err := full.Stats("v")
	if err != nil {
		t.Fatal(err)
	}
	if got := MergeColumnStats([]*ColumnStats{cs}); got != cs {
		t.Fatalf("single-part merge returned a new snapshot %p, want the part %p", got, cs)
	}
	if MergeColumnStats(nil) != nil {
		t.Fatal("empty merge should return nil")
	}
}
