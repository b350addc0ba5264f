package shard

import (
	"testing"

	"repro/internal/relational"
	"repro/internal/sql"
)

// unreduced runs a statement the way the gather did before semi-join
// reduction: every fragment shipped whole from every shard, in shard order.
func unreduced(t *testing.T, src *ShardedSource, stmt *sql.SelectStmt) *sql.Result {
	t.Helper()
	frags, err := sql.Fragments(src.schema, stmt)
	if err != nil {
		t.Fatal(err)
	}
	tables := make([][]relational.Row, len(frags))
	for fi, f := range frags {
		for _, db := range src.dbs {
			res, err := sql.Execute(db, f.Stmt)
			if err != nil {
				t.Fatal(err)
			}
			tables[fi] = append(tables[fi], res.Rows...)
		}
	}
	res, err := sql.ExecuteRows(src.schema, stmt, tables)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSemiJoinReduction(t *testing.T) {
	db := testDB(t, 200, 60, 600)
	src := openSharded(t, db, 3)
	for _, tc := range []struct {
		q                string
		reduced, skipped uint64
		maxShipped       uint64
		prunedProbes     uint64
		wantRows, noRows bool
	}{
		// One cast row: person and movie are each reduced to its key,
		// a primary-key restriction, so each is pruned to one shard.
		{q: `SELECT person.name, movie.title FROM cast_info
				JOIN person ON person.person_id = cast_info.person_id
				JOIN movie ON movie.movie_id = cast_info.movie_id
				WHERE cast_info.cast_id = 5`,
			reduced: 2, maxShipped: 3, prunedProbes: 6, wantRows: true},
		// person pinned to one key: cast_info reduced by its person_id,
		// movie by the cast rows' movie_ids.
		{q: `SELECT person.name, movie.title FROM cast_info
				JOIN person ON person.person_id = cast_info.person_id
				JOIN movie ON movie.movie_id = cast_info.movie_id
				WHERE person.person_id = 7`,
			reduced: 2, maxShipped: 40, prunedProbes: 2, wantRows: true},
		// A refuted selection ships its own fragment and nothing else.
		{q: `SELECT person.name, movie.title FROM cast_info
				JOIN person ON person.person_id = cast_info.person_id
				JOIN movie ON movie.movie_id = cast_info.movie_id
				WHERE movie.title = 'no such title'`,
			skipped: 2, maxShipped: 0, noRows: true},
		// LEFT joins are never reduced.
		{q: `SELECT movie.title, cast_info.role FROM movie
				LEFT JOIN cast_info ON cast_info.movie_id = movie.movie_id
				WHERE movie.genre = 'noir'`,
			maxShipped: 800},
	} {
		stmt := mustParse(t, tc.q)
		want := unreduced(t, src, stmt)
		src.ResetStats()
		got, err := src.Execute(stmt)
		if err != nil {
			t.Fatal(err)
		}
		st := src.Stats()
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("%s: %d rows, want %d", tc.q, len(got.Rows), len(want.Rows))
		}
		for i := range got.Rows {
			for c := range got.Rows[i] {
				if got.Rows[i][c].Key() != want.Rows[i][c].Key() {
					t.Fatalf("%s: row %d = %v, want %v (order must match the unreduced gather)", tc.q, i, got.Rows[i], want.Rows[i])
				}
			}
		}
		if tc.wantRows && len(got.Rows) == 0 || tc.noRows && len(got.Rows) > 0 {
			t.Errorf("%s: %d rows, test expects the other case", tc.q, len(got.Rows))
		}
		if st.ReducedFragments != tc.reduced || st.SkippedFragments != tc.skipped {
			t.Errorf("%s: reduced %d skipped %d fragments, want %d and %d", tc.q,
				st.ReducedFragments, st.SkippedFragments, tc.reduced, tc.skipped)
		}
		if st.RowsShipped > tc.maxShipped {
			t.Errorf("%s: shipped %d rows, want <= %d", tc.q, st.RowsShipped, tc.maxShipped)
		}
		if st.PrunedProbes != tc.prunedProbes {
			t.Errorf("%s: pruned %d shard requests, want %d", tc.q, st.PrunedProbes, tc.prunedProbes)
		}
	}
}

func TestKeySet(t *testing.T) {
	I, S, N := relational.Int, relational.String_, relational.Null
	rows := []relational.Row{{I(3)}, {N()}, {I(1)}, {I(3)}, {S("x")}}
	keys, ok := keySet(rows, 0, 3)
	if !ok || len(keys) != 3 || keys[0] != I(3) || keys[1] != I(1) || keys[2] != S("x") {
		t.Errorf("keySet = %v %v, want [3 1 x] in first-occurrence order", keys, ok)
	}
	if _, ok := keySet(rows, 0, 2); ok {
		t.Error("keySet exceeded its limit")
	}
	if _, ok := keySet([]relational.Row{{relational.Float(1.5)}}, 0, 5); ok {
		t.Error("keySet accepted a float key, whose literal need not round-trip")
	}
	if keys, ok := keySet([]relational.Row{{N()}}, 0, 0); !ok || len(keys) != 0 {
		t.Errorf("all-NULL keys = %v %v, want an empty set", keys, ok)
	}
}
