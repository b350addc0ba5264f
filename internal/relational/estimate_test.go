package relational_test

import (
	"testing"

	"repro/internal/relational"
	"repro/internal/sql"
)

// TestColumnStatsRangeEstimate pins that column statistics carry no range
// information: a range conjunct, always a pushed filter, is costed at
// the planner's default one-third selectivity wherever its bound lies —
// inside the column's values, below them or above them, written either
// way round.
func TestColumnStatsRangeEstimate(t *testing.T) {
	s := relational.NewSchema()
	if err := s.AddTable(&relational.TableSchema{
		Name: "m",
		Columns: []relational.Column{
			{Name: "id", Type: relational.TypeInt, NotNull: true},
			{Name: "year", Type: relational.TypeInt},
		},
		PrimaryKey: "id",
	}); err != nil {
		t.Fatal(err)
	}
	db := relational.MustNewDatabase("range", s)
	// The range conjunct filters a full scan and is estimated, not probed.
	const rows = 240
	for i := 0; i < rows; i++ {
		year := relational.Value(relational.Int(int64(1960 + i%50)))
		if i%11 == 0 {
			year = relational.Null()
		}
		if err := db.Insert("m", relational.Row{relational.Int(int64(i)), year}); err != nil {
			t.Fatal(err)
		}
	}
	for _, where := range []string{"year > 1990", "year <= 1970", "year >= 3000", "year < 1000", "1970 < year"} {
		stmt, err := sql.Parse("SELECT id FROM m WHERE " + where)
		if err != nil {
			t.Fatal(err)
		}
		qp, err := sql.Plan(db, stmt)
		if err != nil {
			t.Fatal(err)
		}
		sp := qp.Scans[0]
		if sp.Access != sql.AccessFullScan {
			t.Fatalf("%s: access %v, want a full scan", where, sp.Access)
		}
		if sp.EstRows != rows/3 {
			t.Errorf("%s: est %d rows, want %d (one third of %d)", where, sp.EstRows, rows/3, rows)
		}
	}
}
