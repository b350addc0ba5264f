package relational

import (
	"fmt"
	"math/rand"
	"testing"
)

// propSchema builds the property-test table shape: an int PK, a nullable
// int column whose range grows under inserts, and a low-cardinality
// string column whose inserts mostly repeat existing values.
func propSchema(t *testing.T) *TableSchema {
	t.Helper()
	ts := &TableSchema{
		Name: "p",
		Columns: []Column{
			{Name: "id", Type: TypeInt, NotNull: true},
			{Name: "v", Type: TypeInt},
			{Name: "tag", Type: TypeString},
		},
		PrimaryKey: "id",
	}
	if err := ts.Validate(); err != nil {
		t.Fatal(err)
	}
	return ts
}

// propRow draws one random row: v is NULL one time in six, otherwise from
// a range that keeps extending past the current extrema; tag cycles a
// small vocabulary so most inserts repeat existing values.
func propRow(rng *rand.Rand, id int64) Row {
	v := Value(Null())
	if rng.Intn(6) > 0 {
		v = Int(int64(rng.Intn(2000)) - 1000 + id/4) // drifting range: new extrema keep appearing
	}
	return Row{Int(id), v, String_(fmt.Sprintf("tag-%d", rng.Intn(12)))}
}

// TestPropertyDeltaStatsTolerance is the maintenance correctness
// property across partitions: over randomized interleaved inserts, the
// insert-maintained statistics of 1, 3 and 7 partitions, merged by
// MergeColumnStats, equal a from-scratch build of the whole table exactly
// on Rows, NullCount, Min and Max, and keep Distinct inside the merge's
// clamp: at least the largest partition's count, at most the smaller of
// the partitions' sum and the non-NULL rows (exact for one partition).
func TestPropertyDeltaStatsTolerance(t *testing.T) {
	for _, shards := range []int{1, 3, 7} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + shards)))
			ts := propSchema(t)
			parts := make([]*Table, shards)
			for i := range parts {
				parts[i] = NewTable(ts)
			}
			var all []Row // ground truth: every row inserted anywhere
			insert := func(row Row) {
				t.Helper()
				if err := parts[len(all)%shards].Insert(row); err != nil {
					t.Fatal(err)
				}
				all = append(all, row)
			}

			nextID := int64(1)
			for i := 0; i < 600; i++ {
				insert(propRow(rng, nextID))
				nextID++
			}
			// Build every partition's summaries so the rounds below run on
			// insert-maintained statistics.
			for _, col := range []string{"v", "tag"} {
				for _, p := range parts {
					if _, err := p.Stats(col); err != nil {
						t.Fatal(err)
					}
				}
			}

			for round := 0; round < 12; round++ {
				for i := 1 + rng.Intn(40); i > 0; i-- {
					insert(propRow(rng, nextID))
					nextID++
				}
				for _, col := range []string{"v", "tag"} {
					snaps := make([]*ColumnStats, shards)
					sum, biggest := 0, 0
					for i, p := range parts {
						cs, err := p.Stats(col)
						if err != nil {
							t.Fatal(err)
						}
						snaps[i] = cs
						sum += cs.Distinct
						biggest = max(biggest, cs.Distinct)
					}
					got := MergeColumnStats(snaps)
					want := rebuildControl(t, ts, all, col)

					if got.Rows != want.Rows || got.NullCount != want.NullCount {
						t.Fatalf("round %d %s: rows/nulls = %d/%d, want exact %d/%d",
							round, col, got.Rows, got.NullCount, want.Rows, want.NullCount)
					}
					if Compare(got.Min, want.Min) != 0 || Compare(got.Max, want.Max) != 0 {
						t.Fatalf("round %d %s: min/max = %v/%v, want exact %v/%v",
							round, col, got.Min, got.Max, want.Min, want.Max)
					}
					hi := min(sum, want.Rows-want.NullCount)
					if got.Distinct < biggest || got.Distinct > hi {
						t.Fatalf("round %d %s: distinct = %d, want within [%d, %d]",
							round, col, got.Distinct, biggest, hi)
					}
					if want.Distinct < biggest || want.Distinct > hi {
						t.Fatalf("round %d %s: true distinct %d outside the clamp [%d, %d]",
							round, col, want.Distinct, biggest, hi)
					}
					if shards == 1 && got.Distinct != want.Distinct {
						t.Fatalf("round %d %s: distinct = %d, want exact %d", round, col, got.Distinct, want.Distinct)
					}
				}
			}
		})
	}
}

// rebuildControl computes the from-scratch reference: the same rows in a
// fresh table, whose first Stats call summarizes every row.
func rebuildControl(t *testing.T, ts *TableSchema, rows []Row, col string) *ColumnStats {
	t.Helper()
	ctl := NewTable(ts)
	for _, row := range rows {
		if err := ctl.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	cs, err := ctl.Stats(col)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}
