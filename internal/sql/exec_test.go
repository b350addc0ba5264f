package sql

import (
	"strings"
	"testing"

	"repro/internal/relational"
)

// testDB builds a small movie database exercised by every executor test.
func testDB(t testing.TB) *relational.Database {
	t.Helper()
	s := relational.NewSchema()
	add := func(ts *relational.TableSchema) {
		t.Helper()
		if err := s.AddTable(ts); err != nil {
			t.Fatal(err)
		}
	}
	add(&relational.TableSchema{
		Name: "movie",
		Columns: []relational.Column{
			{Name: "movie_id", Type: relational.TypeInt, NotNull: true},
			{Name: "title", Type: relational.TypeString, NotNull: true},
			{Name: "year", Type: relational.TypeInt},
			{Name: "rating", Type: relational.TypeFloat},
		},
		PrimaryKey: "movie_id",
	})
	add(&relational.TableSchema{
		Name: "person",
		Columns: []relational.Column{
			{Name: "person_id", Type: relational.TypeInt, NotNull: true},
			{Name: "name", Type: relational.TypeString, NotNull: true},
		},
		PrimaryKey: "person_id",
	})
	add(&relational.TableSchema{
		Name: "cast_info",
		Columns: []relational.Column{
			{Name: "cast_id", Type: relational.TypeInt, NotNull: true},
			{Name: "movie_id", Type: relational.TypeInt, NotNull: true},
			{Name: "person_id", Type: relational.TypeInt, NotNull: true},
			{Name: "role", Type: relational.TypeString},
		},
		PrimaryKey: "cast_id",
		ForeignKeys: []relational.ForeignKey{
			{Column: "movie_id", RefTable: "movie", RefColumn: "movie_id"},
			{Column: "person_id", RefTable: "person", RefColumn: "person_id"},
		},
	})
	db := relational.MustNewDatabase("test", s)
	ins := func(table string, rows ...relational.Row) {
		t.Helper()
		for _, r := range rows {
			if err := db.Insert(table, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	I, F, S := relational.Int, relational.Float, relational.String_
	ins("movie",
		relational.Row{I(1), S("the dark night"), I(2008), F(8.5)},
		relational.Row{I(2), S("silent river"), I(1994), F(7.0)},
		relational.Row{I(3), S("dark river"), I(2001), F(6.5)},
		relational.Row{I(4), S("golden storm"), relational.Null(), F(5.5)},
	)
	ins("person",
		relational.Row{I(1), S("alice smith")},
		relational.Row{I(2), S("bob jones")},
		relational.Row{I(3), S("carol dark")},
	)
	ins("cast_info",
		relational.Row{I(1), I(1), I(1), S("actor")},
		relational.Row{I(2), I(1), I(2), S("director")},
		relational.Row{I(3), I(2), I(1), S("actor")},
		relational.Row{I(4), I(3), I(3), S("actor")},
	)
	return db
}

func runQuery(t *testing.T, db *relational.Database, src string) *Result {
	t.Helper()
	res, err := Run(db, src)
	if err != nil {
		t.Fatalf("Run(%q): %v", src, err)
	}
	return res
}

func TestSelectStar(t *testing.T) {
	db := testDB(t)
	res := runQuery(t, db, "SELECT * FROM movie")
	if len(res.Rows) != 4 || len(res.Columns) != 4 {
		t.Fatalf("got %dx%d", len(res.Rows), len(res.Columns))
	}
	if res.Columns[1] != "movie.title" {
		t.Errorf("column name = %q", res.Columns[1])
	}
}

func TestWhereFilter(t *testing.T) {
	db := testDB(t)
	res := runQuery(t, db, "SELECT title FROM movie WHERE year > 2000")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (NULL year must not pass)", len(res.Rows))
	}
}

func TestWhereNullComparison(t *testing.T) {
	db := testDB(t)
	// year = NULL never matches; IS NULL does.
	res := runQuery(t, db, "SELECT title FROM movie WHERE year = NULL")
	if len(res.Rows) != 0 {
		t.Fatalf("= NULL matched %d rows", len(res.Rows))
	}
	res = runQuery(t, db, "SELECT title FROM movie WHERE year IS NULL")
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "golden storm" {
		t.Fatalf("IS NULL gave %v", res.Rows)
	}
	res = runQuery(t, db, "SELECT title FROM movie WHERE year IS NOT NULL")
	if len(res.Rows) != 3 {
		t.Fatalf("IS NOT NULL gave %d rows", len(res.Rows))
	}
}

func TestHashJoin(t *testing.T) {
	db := testDB(t)
	res := runQuery(t, db, `SELECT person.name, movie.title FROM person
		JOIN cast_info ON cast_info.person_id = person.person_id
		JOIN movie ON movie.movie_id = cast_info.movie_id
		ORDER BY person.name, movie.title`)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	if res.Rows[0][0].AsString() != "alice smith" || res.Rows[0][1].AsString() != "silent river" {
		t.Fatalf("first row = %v", res.Rows[0])
	}
}

func TestJoinWithAliases(t *testing.T) {
	db := testDB(t)
	res := runQuery(t, db, `SELECT p.name FROM person p
		JOIN cast_info c ON c.person_id = p.person_id
		WHERE c.role = 'director'`)
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "bob jones" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestLeftJoin(t *testing.T) {
	db := testDB(t)
	res := runQuery(t, db, `SELECT movie.title, cast_info.role FROM movie
		LEFT JOIN cast_info ON cast_info.movie_id = movie.movie_id
		ORDER BY movie.movie_id`)
	// movie 4 has no cast: must still appear with NULL role.
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	last := res.Rows[len(res.Rows)-1]
	if last[0].AsString() != "golden storm" || !last[1].IsNull() {
		t.Fatalf("left-join row = %v", last)
	}
}

func TestNonEquiJoinFallsBackToNestedLoop(t *testing.T) {
	db := testDB(t)
	res := runQuery(t, db, `SELECT m1.title, m2.title FROM movie m1
		JOIN movie m2 ON m1.year < m2.year`)
	// Pairs with both years non-NULL and strictly increasing:
	// (1994,2001), (1994,2008), (2001,2008) = 3 rows.
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
}

func TestSelfJoinDisambiguation(t *testing.T) {
	db := testDB(t)
	res := runQuery(t, db, `SELECT m1.title FROM movie m1
		JOIN movie m2 ON m1.movie_id = m2.movie_id WHERE m2.year = 1994`)
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "silent river" {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Ambiguous unqualified reference must error.
	if _, err := Run(db, "SELECT title FROM movie m1 JOIN movie m2 ON m1.movie_id = m2.movie_id"); err == nil {
		t.Fatal("ambiguous column must fail")
	}
}

func TestOrderByMultipleKeys(t *testing.T) {
	db := testDB(t)
	res := runQuery(t, db, "SELECT title, year FROM movie WHERE year IS NOT NULL ORDER BY year DESC, title ASC")
	years := []int64{2008, 2001, 1994}
	for i, y := range years {
		if res.Rows[i][1].AsInt() != y {
			t.Fatalf("row %d year = %v, want %d", i, res.Rows[i][1], y)
		}
	}
}

func TestLimitOffset(t *testing.T) {
	db := testDB(t)
	res := runQuery(t, db, "SELECT movie_id FROM movie ORDER BY movie_id LIMIT 2 OFFSET 1")
	if len(res.Rows) != 2 || res.Rows[0][0].AsInt() != 2 || res.Rows[1][0].AsInt() != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = runQuery(t, db, "SELECT movie_id FROM movie LIMIT 0")
	if len(res.Rows) != 0 {
		t.Fatalf("LIMIT 0 gave %d rows", len(res.Rows))
	}
	res = runQuery(t, db, "SELECT movie_id FROM movie OFFSET 100")
	if len(res.Rows) != 0 {
		t.Fatalf("big OFFSET gave %d rows", len(res.Rows))
	}
}

func TestDistinct(t *testing.T) {
	db := testDB(t)
	res := runQuery(t, db, "SELECT DISTINCT role FROM cast_info")
	if len(res.Rows) != 2 {
		t.Fatalf("distinct roles = %d, want 2", len(res.Rows))
	}
}

func TestAggregatesGlobal(t *testing.T) {
	db := testDB(t)
	res := runQuery(t, db, "SELECT COUNT(*), COUNT(year), MIN(year), MAX(year), AVG(rating), SUM(year) FROM movie")
	row := res.Rows[0]
	if row[0].AsInt() != 4 {
		t.Errorf("COUNT(*) = %v", row[0])
	}
	if row[1].AsInt() != 3 {
		t.Errorf("COUNT(year) = %v (NULLs must not count)", row[1])
	}
	if row[2].AsInt() != 1994 || row[3].AsInt() != 2008 {
		t.Errorf("MIN/MAX = %v/%v", row[2], row[3])
	}
	wantAvg := (8.5 + 7.0 + 6.5 + 5.5) / 4
	if got := row[4].AsFloat(); got < wantAvg-1e-9 || got > wantAvg+1e-9 {
		t.Errorf("AVG(rating) = %v, want %v", got, wantAvg)
	}
	if row[5].AsInt() != 1994+2001+2008 {
		t.Errorf("SUM(year) = %v", row[5])
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	db := testDB(t)
	res := runQuery(t, db, "SELECT COUNT(*), MIN(year) FROM movie WHERE year = 1800")
	if len(res.Rows) != 1 {
		t.Fatalf("aggregate over empty input must yield one row, got %d", len(res.Rows))
	}
	if res.Rows[0][0].AsInt() != 0 || !res.Rows[0][1].IsNull() {
		t.Fatalf("row = %v, want [0 NULL]", res.Rows[0])
	}
}

func TestGroupByHaving(t *testing.T) {
	db := testDB(t)
	res := runQuery(t, db, `SELECT role, COUNT(*) AS n FROM cast_info
		GROUP BY role HAVING COUNT(*) > 1 ORDER BY n DESC`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].AsString() != "actor" || res.Rows[0][1].AsInt() != 3 {
		t.Fatalf("row = %v", res.Rows[0])
	}
}

func TestGroupByJoin(t *testing.T) {
	db := testDB(t)
	res := runQuery(t, db, `SELECT person.name, COUNT(*) AS movies FROM person
		JOIN cast_info ON cast_info.person_id = person.person_id
		GROUP BY person.name ORDER BY movies DESC, person.name`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].AsString() != "alice smith" || res.Rows[0][1].AsInt() != 2 {
		t.Fatalf("top = %v", res.Rows[0])
	}
}

func TestLikeOperator(t *testing.T) {
	db := testDB(t)
	tests := []struct {
		pattern string
		want    int
	}{
		{"%dark%", 2},
		{"dark%", 1},
		{"%river", 2},
		{"silent river", 1},
		{"s_lent river", 1},
		{"%zzz%", 0},
		{"%", 4},
	}
	for _, tt := range tests {
		res := runQuery(t, db, "SELECT title FROM movie WHERE title LIKE '"+tt.pattern+"'")
		if len(res.Rows) != tt.want {
			t.Errorf("LIKE %q = %d rows, want %d", tt.pattern, len(res.Rows), tt.want)
		}
	}
}

func TestMatchOperator(t *testing.T) {
	db := testDB(t)
	tests := []struct {
		kw   string
		want int
	}{
		{"dark", 2},
		{"river", 2},
		{"dark river", 1},   // both tokens required
		{"RIVER", 2},        // case-insensitive
		{"riv", 0},          // token containment, not substring
		{"the dark", 1},     // stop-wordless conjunctive match
		{"night dark", 1},   // order-independent
		{"golden storm", 1}, //
	}
	for _, tt := range tests {
		res := runQuery(t, db, "SELECT title FROM movie WHERE title MATCH '"+tt.kw+"'")
		if len(res.Rows) != tt.want {
			t.Errorf("MATCH %q = %d rows, want %d", tt.kw, len(res.Rows), tt.want)
		}
	}
}

func TestInAndBetween(t *testing.T) {
	db := testDB(t)
	res := runQuery(t, db, "SELECT title FROM movie WHERE year IN (1994, 2008)")
	if len(res.Rows) != 2 {
		t.Fatalf("IN rows = %d", len(res.Rows))
	}
	res = runQuery(t, db, "SELECT title FROM movie WHERE year NOT IN (1994)")
	if len(res.Rows) != 2 { // NULL year row excluded by NULL semantics
		t.Fatalf("NOT IN rows = %d", len(res.Rows))
	}
	res = runQuery(t, db, "SELECT title FROM movie WHERE year BETWEEN 1994 AND 2001")
	if len(res.Rows) != 2 {
		t.Fatalf("BETWEEN rows = %d", len(res.Rows))
	}
}

func TestArithmeticInProjection(t *testing.T) {
	db := testDB(t)
	res := runQuery(t, db, "SELECT year + 1, rating * 2 FROM movie WHERE movie_id = 1")
	if res.Rows[0][0].AsInt() != 2009 {
		t.Errorf("year+1 = %v", res.Rows[0][0])
	}
	if res.Rows[0][1].AsFloat() != 17.0 {
		t.Errorf("rating*2 = %v", res.Rows[0][1])
	}
	// Division by zero yields NULL, not an error.
	res = runQuery(t, db, "SELECT rating / 0 FROM movie WHERE movie_id = 1")
	if !res.Rows[0][0].IsNull() {
		t.Errorf("x/0 = %v, want NULL", res.Rows[0][0])
	}
}

func TestStringConcatViaPlus(t *testing.T) {
	db := testDB(t)
	res := runQuery(t, db, "SELECT title + '!' FROM movie WHERE movie_id = 2")
	if res.Rows[0][0].AsString() != "silent river!" {
		t.Errorf("concat = %v", res.Rows[0][0])
	}
}

func TestExecErrors(t *testing.T) {
	db := testDB(t)
	for _, src := range []string{
		"SELECT * FROM nope",
		"SELECT nope FROM movie",
		"SELECT m.title FROM movie",                     // unknown binding
		"SELECT title FROM movie ORDER BY nope",         // unknown order key
		"SELECT * FROM movie GROUP BY year",             // * with grouping
		"SELECT COUNT(*) FROM movie WHERE COUNT(*) > 1", // aggregate in WHERE
	} {
		if _, err := Run(db, src); err == nil {
			t.Errorf("Run(%q) should fail", src)
		}
	}
}

func TestResultString(t *testing.T) {
	db := testDB(t)
	res := runQuery(t, db, "SELECT movie_id, title FROM movie WHERE movie_id = 1")
	s := res.String()
	for _, frag := range []string{"movie_id", "title", "the dark night", "1"} {
		if !strings.Contains(s, frag) {
			t.Errorf("result table missing %q:\n%s", frag, s)
		}
	}
}

func TestThreeValuedLogic(t *testing.T) {
	db := testDB(t)
	// NULL OR true = true; NULL AND true = NULL (filtered out).
	res := runQuery(t, db, "SELECT title FROM movie WHERE year > 2000 OR movie_id = 4")
	if len(res.Rows) != 3 {
		t.Fatalf("OR with NULL year: rows = %d, want 3", len(res.Rows))
	}
	res = runQuery(t, db, "SELECT title FROM movie WHERE year > 1000 AND rating > 5")
	if len(res.Rows) != 3 { // NULL year row drops out
		t.Fatalf("AND with NULL year: rows = %d, want 3", len(res.Rows))
	}
	// NOT NULL is NULL -> excluded.
	res = runQuery(t, db, "SELECT title FROM movie WHERE NOT (year > 1000)")
	if len(res.Rows) != 0 {
		t.Fatalf("NOT over NULL: rows = %d, want 0", len(res.Rows))
	}
}

func TestOrderByExpressionNotInProjection(t *testing.T) {
	db := testDB(t)
	res := runQuery(t, db, "SELECT title FROM movie WHERE year IS NOT NULL ORDER BY rating DESC")
	if res.Rows[0][0].AsString() != "the dark night" {
		t.Fatalf("rows = %v", res.Rows)
	}
}
