package relational_test

import (
	"fmt"
	"testing"

	"repro/internal/relational"
	"repro/internal/sql"
)

// rangeDB returns a database with one table m(id, year, genre) of n rows;
// every eleventh year is NULL. n is above sql.LazyIndexThreshold, the size
// from which the planner builds indexes on demand.
func rangeDB(t *testing.T, n int) *relational.Database {
	t.Helper()
	s := relational.NewSchema()
	if err := s.AddTable(&relational.TableSchema{
		Name: "m",
		Columns: []relational.Column{
			{Name: "id", Type: relational.TypeInt, NotNull: true},
			{Name: "year", Type: relational.TypeInt},
			{Name: "genre", Type: relational.TypeString},
		},
		PrimaryKey: "id",
	}); err != nil {
		t.Fatal(err)
	}
	db := relational.MustNewDatabase("range", s)
	genres := []string{"drama", "drama", "comedy", "noir"}
	for i := 0; i < n; i++ {
		insertYear(t, db, i, 1960+i%50, genres[i%len(genres)])
	}
	return db
}

// insertYear inserts row (id, year, genre), with a NULL year when id is a
// multiple of 11.
func insertYear(t *testing.T, db *relational.Database, id, year int, genre string) {
	t.Helper()
	y := relational.Value(relational.Int(int64(year)))
	if id%11 == 0 {
		y = relational.Null()
	}
	if err := db.Insert("m", relational.Row{relational.Int(int64(id)), y, relational.String_(genre)}); err != nil {
		t.Fatal(err)
	}
}

// sameAsReference runs src through the planner and through the reference
// interpreter and fails unless both return the same rows in the same
// order. It returns the rows.
func sameAsReference(t *testing.T, db *relational.Database, src string) []relational.Row {
	t.Helper()
	stmt, err := sql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sql.Execute(db, stmt)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	want, err := sql.ExecuteFullScan(db, stmt)
	if err != nil {
		t.Fatalf("%s: reference: %v", src, err)
	}
	if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
		t.Fatalf("%s: planned rows\n  %v\nwant, in the reference order,\n  %v", src, got.Rows, want.Rows)
	}
	return got.Rows
}

// TestRangeOrdinals: range predicates are filters, so a range statement
// returns what the reference interpreter returns, row for row and in
// storage order — inclusive and strict bounds, either side unbounded,
// redundant bounds, empty and inverted intervals, the literal written
// first, and a range riding on an equality probe. NULL years never
// qualify, and an unknown column errors.
func TestRangeOrdinals(t *testing.T) {
	db := rangeDB(t, 400)
	for _, tc := range []struct {
		where string
		rows  int
	}{
		{"year BETWEEN 1970 AND 1972", 22},
		{"year >= 1970 AND year <= 1972", 22},
		{"year > 1970 AND year < 1972", 7},
		{"year >= 2000", 72},
		{"year < 1965", 36},
		{"1965 > year", 36},
		{"year > 1960 AND year > 1990 AND year <= 2100", 137},
		{"year >= 1900", 363},
		{"year > 3000", 0},
		{"year BETWEEN 1990 AND 1970", 0},
		{"genre = 'noir' AND year <= 1975", 29},
	} {
		rows := sameAsReference(t, db, "SELECT id, year FROM m WHERE "+tc.where)
		if len(rows) != tc.rows {
			t.Errorf("%s: %d rows, want %d", tc.where, len(rows), tc.rows)
		}
		for _, r := range rows {
			if r[1].IsNull() {
				t.Errorf("%s: NULL year %v qualified", tc.where, r)
			}
		}
	}
	stmt, err := sql.Parse("SELECT id FROM m WHERE nope > 1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sql.Execute(db, stmt); err == nil {
		t.Error("a range on an unknown column must error")
	}
}

// TestSortedIndexSideRun: a range statement sees every row inserted after
// the first read — NULL years, years inside the interval, beyond the old
// maximum and below the old minimum — read after read, and still matches
// the reference interpreter row for row.
func TestSortedIndexSideRun(t *testing.T) {
	db := rangeDB(t, 300)
	stmts := []string{
		"SELECT id, year FROM m WHERE year BETWEEN 1974 AND 1976",
		"SELECT id, year FROM m WHERE year >= 2100",
		"SELECT id, year FROM m WHERE year < 1900",
		"SELECT id FROM m WHERE genre = 'scifi' AND year > 1975",
	}
	before := make([]int, len(stmts))
	for i, src := range stmts {
		before[i] = len(sameAsReference(t, db, src))
	}
	if before[1] != 0 || before[2] != 0 {
		t.Fatalf("precondition: no year outside 1960..2009, got %d and %d rows", before[1], before[2])
	}
	years := []int{1975, 2150, 1850, 1990}
	added := make([]int, len(stmts))
	for i := 0; i < 300; i++ {
		id := 1000 + i
		year := years[i%len(years)]
		insertYear(t, db, id, year, "scifi")
		if id%11 != 0 {
			switch year {
			case 1975:
				added[0]++
			case 2150:
				added[1]++
				added[3]++
			case 1850:
				added[2]++
			case 1990:
				added[3]++
			}
		}
		if i%37 == 0 || i == 299 {
			for si, src := range stmts {
				if got := len(sameAsReference(t, db, src)); got != before[si]+added[si] {
					t.Fatalf("after %d inserts, %s: %d rows, want %d", i+1, src, got, before[si]+added[si])
				}
			}
		}
	}
}
