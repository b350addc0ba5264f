package sql

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/relational"
)

func TestExplainHashJoin(t *testing.T) {
	db := testDB(t)
	plan, err := ExplainQuery(db, `SELECT person.name FROM person
		JOIN cast_info ON cast_info.person_id = person.person_id
		WHERE cast_info.role = 'actor' ORDER BY person.name LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		"LIMIT 5",
		"SORT BY person.name ASC",
		"PROJECT person.name",
		"FILTER",
		"HASH JOIN cast_info",
		"SCAN person",
	} {
		if !strings.Contains(plan, frag) {
			t.Errorf("plan missing %q:\n%s", frag, plan)
		}
	}
}

func TestExplainNestedLoop(t *testing.T) {
	db := testDB(t)
	plan, err := ExplainQuery(db, `SELECT m1.title FROM movie m1 JOIN movie m2 ON m1.year < m2.year`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "NESTED LOOP JOIN movie AS m2") {
		t.Errorf("plan missing nested loop:\n%s", plan)
	}
}

func TestExplainLeftJoin(t *testing.T) {
	db := testDB(t)
	plan, err := ExplainQuery(db, `SELECT movie.title FROM movie
		LEFT JOIN cast_info ON cast_info.movie_id = movie.movie_id`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "LEFT HASH JOIN cast_info") {
		t.Errorf("plan missing left hash join:\n%s", plan)
	}
}

func TestExplainAggregate(t *testing.T) {
	db := testDB(t)
	plan, err := ExplainQuery(db, `SELECT role, COUNT(*) FROM cast_info
		GROUP BY role HAVING COUNT(*) > 1`)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"AGGREGATE GROUP BY role", "HAVING"} {
		if !strings.Contains(plan, frag) {
			t.Errorf("plan missing %q:\n%s", frag, plan)
		}
	}
	// Global aggregate.
	plan, err = ExplainQuery(db, "SELECT COUNT(*) FROM movie")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "AGGREGATE (single group)") {
		t.Errorf("plan missing global aggregate:\n%s", plan)
	}
}

func TestExplainResidualPredicate(t *testing.T) {
	db := testDB(t)
	plan, err := ExplainQuery(db, `SELECT person.name FROM person
		JOIN cast_info ON cast_info.person_id = person.person_id AND cast_info.role = 'actor'`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "residual") {
		t.Errorf("plan missing residual predicate:\n%s", plan)
	}
}

func TestExplainErrors(t *testing.T) {
	db := testDB(t)
	if _, err := ExplainQuery(db, "SELECT * FROM nope"); err == nil {
		t.Fatal("unknown table must error")
	}
	if _, err := ExplainQuery(db, "not sql at all"); err == nil {
		t.Fatal("parse error must propagate")
	}
}

func TestExplainRowCounts(t *testing.T) {
	db := testDB(t)
	plan, err := ExplainQuery(db, "SELECT * FROM movie")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "SCAN movie (4 rows)") {
		t.Errorf("plan missing row count:\n%s", plan)
	}
}

// TestExplainAnalyzeStatsFreshness pins the estimate-provenance rendering:
// a scan costed from freshly built statistics is annotated fresh, a scan
// costed after an in-budget insert is annotated budget-stale (the delta
// path served the estimate), and a scan over a sampled rebuild says so.
func TestExplainAnalyzeStatsFreshness(t *testing.T) {
	db := testDB(t)
	// No index serves <>, so the scan stays full and is costed from the
	// column's statistics at every table size.
	stmt, err := Parse("SELECT title FROM movie WHERE year <> 1990")
	if err != nil {
		t.Fatal(err)
	}
	analyze := func() string {
		t.Helper()
		plan, err := ExplainAnalyze(db, stmt)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}

	if plan := analyze(); !strings.Contains(plan, "[stats: fresh]") {
		t.Errorf("first analyze should cost from fresh statistics:\n%s", plan)
	}

	// One in-budget insert: the next plan re-consults statistics (the
	// table version moved), the delta path serves them, and the scan
	// reports the estimate as budget-stale.
	I, F, S := relational.Int, relational.Float, relational.String_
	if err := db.Insert("movie", relational.Row{I(99), S("delta movie"), I(2020), F(6.0)}); err != nil {
		t.Fatal(err)
	}
	if plan := analyze(); !strings.Contains(plan, "[stats: budget-stale]") {
		t.Errorf("post-insert analyze should report budget-stale statistics:\n%s", plan)
	}

	// Grow the table to the size past which relational samples its
	// statistics (65 536 rows), so the rebuild triggered by dropping the
	// cached state is a sampled one.
	for id := int64(100); db.Table("movie").Len() < 1<<16; id++ {
		if err := db.Insert("movie", relational.Row{I(id), S("filler"), I(1980 + id%40), F(5.0)}); err != nil {
			t.Fatal(err)
		}
	}
	db.Table("movie").DropIndexes()
	if plan := analyze(); !strings.Contains(plan, "[stats: sampled]") {
		t.Errorf("analyze over a sampled rebuild should say so:\n%s", plan)
	}
}

// TestExplainAnalyzeNarrowedScan pins the narrowed-scan annotation: the
// base scan of cast_info, narrowed by the two selected person rows, says
// so next to its actual row count, while plain EXPLAIN of the same
// statement carries no execution-time annotation and is unchanged by the
// analyzed run.
func TestExplainAnalyzeNarrowedScan(t *testing.T) {
	db := eqDB(t)
	stmt, err := Parse(`SELECT person.name, cast_info.role FROM cast_info
		JOIN person ON person.person_id = cast_info.person_id
		WHERE person.person_id IN (3, 5)`)
	if err != nil {
		t.Fatal(err)
	}
	before, err := Explain(db, stmt)
	if err != nil {
		t.Fatal(err)
	}
	analyzed, err := ExplainAnalyze(db, stmt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(db, stmt)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("SCAN cast_info (800 rows) (%d actual rows) [narrowed via person_id index]", res.Plan.Scans[0].ActualRows)
	if !strings.Contains(analyzed, want) {
		t.Errorf("analyze missing %q:\n%s", want, analyzed)
	}
	after, err := Explain(db, stmt)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(before, "narrowed") || before != after {
		t.Errorf("plain EXPLAIN must not change or mention narrowing:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	// A LEFT join preserves every base row: no narrowing, although the
	// 120 person keys select only 120 of the 800 cast_info rows.
	left, err := Parse(`SELECT person.name, cast_info.role FROM cast_info
		LEFT JOIN person ON person.person_id = cast_info.cast_id`)
	if err != nil {
		t.Fatal(err)
	}
	if plan, err := ExplainAnalyze(db, left); err != nil || strings.Contains(plan, "narrowed") {
		t.Errorf("LEFT JOIN base scan must read in full (err %v):\n%s", err, plan)
	}
}
