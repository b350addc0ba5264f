package sql

import (
	"strings"
	"testing"

	"repro/internal/relational"
)

func TestFragmentsPushdownAndPruning(t *testing.T) {
	db := eqDB(t)
	stmt, err := Parse(`SELECT person.name, movie.title FROM movie
		JOIN cast_info ON cast_info.movie_id = movie.movie_id
		JOIN person ON person.person_id = cast_info.person_id
		WHERE movie.movie_id = 17 AND cast_info.role = 'actor'
			AND movie.year > cast_info.person_id`)
	if err != nil {
		t.Fatal(err)
	}
	frags, err := Fragments(db.Schema, stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 3 {
		t.Fatalf("got %d fragments, want 3", len(frags))
	}
	if got := frags[0].SQL(); !strings.Contains(got, "WHERE (movie.movie_id = 17)") {
		t.Errorf("movie fragment did not push the PK equality: %s", got)
	}
	if got := frags[1].SQL(); !strings.Contains(got, "cast_info.role = 'actor'") {
		t.Errorf("cast_info fragment did not push the role equality: %s", got)
	}
	if len(frags[2].Pushed) != 0 {
		t.Errorf("person fragment pushed %v, want none", frags[2].Pushed)
	}
	// The multi-table conjunct must stay with the coordinator.
	for _, f := range frags {
		for _, c := range f.Pushed {
			if strings.Contains(c.SQL(), "person_id") && strings.Contains(c.SQL(), "year") {
				t.Errorf("multi-table conjunct was pushed into %s", f.Ref.Table)
			}
		}
	}
	// Partition pruning: the movie fragment pins the PK to one value.
	if len(frags[0].PKValues) != 1 || frags[0].PKValues[0].AsInt() != 17 {
		t.Errorf("movie fragment PKValues = %v, want [17]", frags[0].PKValues)
	}
	if frags[1].PKValues != nil || frags[2].PKValues != nil {
		t.Errorf("unexpected PK restriction on unpinned fragments: %v %v",
			frags[1].PKValues, frags[2].PKValues)
	}
}

func TestFragmentsPKInListAndNulls(t *testing.T) {
	db := eqDB(t)
	stmt, err := Parse("SELECT title FROM movie WHERE movie_id IN (3, 9, NULL, 3)")
	if err != nil {
		t.Fatal(err)
	}
	frags, err := Fragments(db.Schema, stmt)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(frags[0].PKValues); got != 3 {
		t.Fatalf("PKValues = %v, want the 3 non-NULL members", frags[0].PKValues)
	}
	// An IN list of only NULLs can match nothing: empty but non-nil, so the
	// shard layer may skip every partition.
	stmt, err = Parse("SELECT title FROM movie WHERE movie_id IN (NULL)")
	if err != nil {
		t.Fatal(err)
	}
	frags, err = Fragments(db.Schema, stmt)
	if err != nil {
		t.Fatal(err)
	}
	if frags[0].PKValues == nil || len(frags[0].PKValues) != 0 {
		t.Fatalf("PKValues = %#v, want empty non-nil", frags[0].PKValues)
	}
}

func TestFragmentsLeftJoinLegality(t *testing.T) {
	db := eqDB(t)
	stmt, err := Parse(`SELECT movie.title FROM movie
		LEFT JOIN cast_info ON cast_info.movie_id = movie.movie_id
		WHERE cast_info.role = 'actor' AND movie.genre = 'drama'`)
	if err != nil {
		t.Fatal(err)
	}
	frags, err := Fragments(db.Schema, stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags[1].Pushed) != 0 {
		t.Errorf("conjunct on the null-extended side was pushed: %v", frags[1].Pushed)
	}
	if len(frags[0].Pushed) != 1 {
		t.Errorf("base-table conjunct was not pushed: %v", frags[0].Pushed)
	}
}

func TestInnerJoinKeys(t *testing.T) {
	db := eqDB(t)
	stmt, err := Parse(`SELECT person.name FROM movie
		JOIN cast_info ON cast_info.movie_id = movie.movie_id
		JOIN person ON cast_info.person_id = person.person_id`)
	if err != nil {
		t.Fatal(err)
	}
	edges, ok := InnerJoinKeys(db.Schema, stmt)
	if !ok {
		t.Fatal("all-inner equi-join statement was not reducible")
	}
	// movie.movie_id (0,0) = cast_info.movie_id (1,1); cast_info.person_id
	// (1,2) = person.person_id (2,0), written left-to-right or not.
	want := []KeyEdge{{A: 0, ACol: 0, B: 1, BCol: 1}, {A: 1, ACol: 2, B: 2, BCol: 0}}
	if len(edges) != len(want) {
		t.Fatalf("edges = %+v, want %+v", edges, want)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Errorf("edge %d = %+v, want %+v", i, edges[i], want[i])
		}
	}

	for _, src := range []string{
		"SELECT title FROM movie",
		`SELECT movie.title FROM movie LEFT JOIN cast_info ON cast_info.movie_id = movie.movie_id`,
		`SELECT movie.title FROM movie JOIN cast_info
			ON cast_info.movie_id = movie.movie_id AND cast_info.role = 'actor'`,
		`SELECT movie.title FROM movie JOIN cast_info ON cast_info.movie_id < movie.movie_id`,
	} {
		stmt, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := InnerJoinKeys(db.Schema, stmt); ok {
			t.Errorf("%q: reducible, want not (single table, LEFT join or ON residual)", src)
		}
	}
}

func TestFragmentRestrict(t *testing.T) {
	db := eqDB(t)
	stmt, err := Parse(`SELECT m.title FROM cast_info JOIN movie m ON m.movie_id = cast_info.movie_id
		WHERE cast_info.role = 'actor'`)
	if err != nil {
		t.Fatal(err)
	}
	frags, err := Fragments(db.Schema, stmt)
	if err != nil {
		t.Fatal(err)
	}
	keys := []relational.Value{relational.Int(4), relational.Int(9)}
	cast := frags[0].Restrict(db.Schema, 1, keys)
	if got, want := cast.SQL(), "SELECT * FROM cast_info WHERE ((cast_info.role = 'actor') AND (cast_info.movie_id IN (4, 9)))"; got != want {
		t.Errorf("restricted cast_info fragment:\n got %s\nwant %s", got, want)
	}
	if cast.PKValues != nil {
		t.Errorf("a foreign-key restriction set PKValues %v", cast.PKValues)
	}
	if len(frags[0].Pushed) != 1 || frags[0].Stmt.Where.SQL() != "(cast_info.role = 'actor')" {
		t.Error("Restrict modified the original fragment")
	}
	movie := frags[1].Restrict(db.Schema, 0, keys)
	if got, want := movie.SQL(), "SELECT * FROM movie m WHERE (m.movie_id IN (4, 9))"; got != want {
		t.Errorf("restricted movie fragment:\n got %s\nwant %s", got, want)
	}
	if len(movie.PKValues) != 2 {
		t.Errorf("primary-key restriction: PKValues = %v, want the 2 keys", movie.PKValues)
	}
	// The restricted statement round-trips and selects exactly the keys.
	res, err := Run(db, movie.SQL())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("restricted movie fragment returned %d rows, want 2", len(res.Rows))
	}
}

// TestExistsFragments pins which join statements the coordinator decides
// from join keys alone, and the key-only fragments it ships for them.
func TestExistsFragments(t *testing.T) {
	db := eqDB(t)
	stmt := mustParse(t, `SELECT DISTINCT person.name FROM movie m
		JOIN cast_info ON cast_info.movie_id = m.movie_id
		JOIN person ON cast_info.person_id = person.person_id
		WHERE m.title MATCH 'dark' AND cast_info.role = 'actor' ORDER BY person.name LIMIT 5`)
	frags, edges, ok := ExistsFragments(db.Schema, stmt)
	if !ok {
		t.Fatal("an inner equi-join tree with pushed conjuncts was refused")
	}
	for i, want := range []string{
		"SELECT m.movie_id FROM movie m WHERE (m.title MATCH 'dark')",
		"SELECT cast_info.movie_id, cast_info.person_id FROM cast_info WHERE (cast_info.role = 'actor')",
		"SELECT person.person_id FROM person",
	} {
		if got := frags[i].SQL(); got != want {
			t.Errorf("fragment %d:\n got %s\nwant %s", i, got, want)
		}
	}
	if len(edges) != 2 || frags[1].Pos(2) != 1 || frags[1].Pos(0) != -1 {
		t.Errorf("edges %+v, cast_info positions %d %d", edges, frags[1].Pos(2), frags[1].Pos(0))
	}
	restricted := frags[2].Restrict(db.Schema, 0, []relational.Value{relational.Int(3)})
	if got, want := restricted.SQL(), "SELECT person.person_id FROM person WHERE (person.person_id IN (3))"; got != want {
		t.Errorf("Restrict dropped the key columns:\n got %s\nwant %s", got, want)
	}

	const join = " FROM movie JOIN cast_info ON cast_info.movie_id = movie.movie_id"
	for _, src := range []string{
		"SELECT movie.title FROM movie WHERE movie.movie_id = 3",
		"SELECT movie.title FROM movie LEFT JOIN cast_info ON cast_info.movie_id = movie.movie_id",
		"SELECT movie.title" + join + " AND cast_info.role = 'actor'",
		"SELECT movie.title" + join + " AND cast_info.cast_id = movie.movie_id",
		"SELECT movie.title" + join + " WHERE cast_info.cast_id < movie.movie_id",
		"SELECT movie.title" + join + " WHERE 1 = 1",
		"SELECT movie.title = 'x'" + join,
		"SELECT COUNT(*)" + join,
		"SELECT movie.title" + join + " GROUP BY movie.title",
		"SELECT movie.title" + join + " ORDER BY COUNT(*)",
		"SELECT movie.title" + join + " OFFSET 1",
		"SELECT movie.title" + join + " LIMIT 0",
		"SELECT movie.nosuch" + join,
	} {
		if _, _, ok := ExistsFragments(db.Schema, mustParse(t, src)); ok {
			t.Errorf("%s: accepted, want the LIMIT 1 fallback", src)
		}
	}
}

// TestExecuteRowsMatchesReference feeds ExecuteRows the tables' own rows and
// checks it reproduces the reference interpreter byte for byte — the
// coordinator half must be a drop-in finish for gathered fragments.
func TestExecuteRowsMatchesReference(t *testing.T) {
	db := eqDB(t)
	for _, src := range []string{
		"SELECT title FROM movie WHERE year BETWEEN 1975 AND 1990 ORDER BY movie_id",
		`SELECT person.name, cast_info.role FROM person
			JOIN cast_info ON cast_info.person_id = person.person_id
			WHERE cast_info.role = 'director' ORDER BY cast_info.cast_id LIMIT 7 OFFSET 2`,
		`SELECT movie.title, cast_info.role FROM movie
			LEFT JOIN cast_info ON cast_info.movie_id = movie.movie_id
			WHERE cast_info.role IS NULL ORDER BY movie.movie_id`,
		`SELECT cast_info.role, COUNT(*) FROM movie
			JOIN cast_info ON cast_info.movie_id = movie.movie_id
			GROUP BY cast_info.role ORDER BY cast_info.role`,
		"SELECT DISTINCT genre FROM movie ORDER BY genre",
	} {
		stmt, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		var tables [][]relational.Row
		for _, tr := range stmt.Tables() {
			tables = append(tables, db.Table(tr.Table).Rows())
		}
		got, err := ExecuteRows(db.Schema, stmt, tables)
		if err != nil {
			t.Fatalf("ExecuteRows(%q): %v", src, err)
		}
		want, err := ExecuteFullScan(db, stmt)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(got.Columns, ",") != strings.Join(want.Columns, ",") {
			t.Errorf("%q: columns %v vs %v", src, got.Columns, want.Columns)
		}
		g, w := rowMultiset(got), rowMultiset(want)
		if len(g) != len(w) {
			t.Fatalf("%q: %d rows vs %d", src, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Errorf("%q: row divergence %s vs %s", src, g[i], w[i])
			}
		}
	}
}
