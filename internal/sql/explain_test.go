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

// TestExplainAnalyzeStatsFreshness pins that the estimates ExplainAnalyze
// reports follow inserts exactly: after rows land in a table whose
// statistics are already built, the analyzed plan — scan and join
// estimates included — is the one a database that held those rows before
// any statistics were built renders, and the movie scan's estimate moves
// with the new NULLs and repeated values.
func TestExplainAnalyzeStatsFreshness(t *testing.T) {
	// No index serves <>, so the movie scan stays full and is costed from
	// the year column's statistics.
	stmt, err := Parse(`SELECT movie.title, cast_info.role FROM movie
		JOIN cast_info ON movie.movie_id = cast_info.movie_id WHERE movie.year <> 1990`)
	if err != nil {
		t.Fatal(err)
	}
	analyze := func(db *relational.Database) (string, int) {
		t.Helper()
		text, err := ExplainAnalyze(db, stmt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Execute(db, stmt)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range res.Plan.Scans {
			if sp.Table == "movie" {
				return text, sp.EstRows
			}
		}
		t.Fatalf("no movie scan in\n%s", text)
		return "", 0
	}
	I, S := relational.Int, relational.String_
	added := []relational.Row{
		{I(5), S("repeat one"), I(1990), relational.Null()},
		{I(6), S("no year"), relational.Null(), relational.Null()},
		{I(7), S("repeat two"), I(1990), relational.Null()},
	}

	db := testDB(t)
	if _, est := analyze(db); est != 3 {
		// 4 rows, 1 NULL year, 1990 below every year: 4 * (1 - 1/4).
		t.Errorf("movie estimate before the inserts = %d, want 3", est)
	}
	for _, r := range added {
		if err := db.Insert("movie", r); err != nil {
			t.Fatal(err)
		}
	}
	got, est := analyze(db)
	// 7 rows, 2 NULL years, 1990 one of 4 years over 5 rows: 7 * (1 - 2/7 - 1/7).
	if est != 4 {
		t.Errorf("movie estimate after the inserts = %d, want 4", est)
	}

	scratch := testDB(t)
	for _, r := range added {
		if err := scratch.Insert("movie", r); err != nil {
			t.Fatal(err)
		}
	}
	if want, _ := analyze(scratch); got != want {
		t.Errorf("analyzed plan after inserts:\n%s\nwant, as built from scratch:\n%s", got, want)
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
