package sql

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/relational"
)

func planFor(t *testing.T, db *relational.Database, src string) *QueryPlan {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	qp, err := Plan(db, stmt)
	if err != nil {
		t.Fatalf("Plan(%q): %v", src, err)
	}
	return qp
}

// TestPlanIndexVsFullScan is the core introspection contract: an equality
// predicate on a declared key column routes through the hash index, while
// an equality predicate on a non-indexed column of a small table falls
// back to a filtered full scan.
func TestPlanIndexVsFullScan(t *testing.T) {
	db := testDB(t)

	qp := planFor(t, db, "SELECT title FROM movie WHERE movie_id = 2")
	if qp.Scans[0].Access != AccessIndexEq {
		t.Fatalf("PK equality access = %q, want %q (plan %+v)", qp.Scans[0].Access, AccessIndexEq, qp)
	}
	if qp.Scans[0].IndexColumn != "movie_id" || qp.Scans[0].EstRows != 1 {
		t.Errorf("index scan = %+v, want movie_id probe with 1 row", qp.Scans[0])
	}
	if len(qp.Scans[0].Pushed) != 0 {
		t.Errorf("index-served predicate must not be re-evaluated: pushed = %v", qp.Scans[0].Pushed)
	}

	qp = planFor(t, db, "SELECT title FROM movie WHERE title = 'dark river'")
	if qp.Scans[0].Access != AccessFullScan {
		t.Fatalf("non-indexed equality access = %q, want %q", qp.Scans[0].Access, AccessFullScan)
	}
	if len(qp.Scans[0].Pushed) != 1 {
		t.Errorf("full scan must keep the predicate: pushed = %v", qp.Scans[0].Pushed)
	}

	// FK columns are index-worthy even on small tables.
	qp = planFor(t, db, "SELECT cast_id FROM cast_info WHERE person_id = 1")
	if qp.Scans[0].Access != AccessIndexEq || qp.Scans[0].IndexColumn != "person_id" {
		t.Errorf("FK equality = %+v, want person_id index probe", qp.Scans[0])
	}
}

// TestPlanPredicatePushdown checks that single-table WHERE conjuncts drop
// below the join into the owning scan, leaving no top-level filter.
func TestPlanPredicatePushdown(t *testing.T) {
	db := testDB(t)
	qp := planFor(t, db, `SELECT person.name FROM person
		JOIN cast_info ON cast_info.person_id = person.person_id
		WHERE cast_info.role = 'actor' AND person.name LIKE 'a%'`)
	if len(qp.Filter) != 0 {
		t.Errorf("top-level filter should be empty after pushdown: %v", qp.Filter)
	}
	if got := strings.Join(qp.Scans[0].Pushed, ";"); !strings.Contains(got, "LIKE") {
		t.Errorf("person scan should carry the LIKE predicate, got %q", got)
	}
	if got := strings.Join(qp.Scans[1].Pushed, ";"); !strings.Contains(got, "role") {
		t.Errorf("cast_info scan should carry the role predicate, got %q", got)
	}
	if qp.Joins[0].Strategy != StrategyHash {
		t.Errorf("join strategy = %q, want hash", qp.Joins[0].Strategy)
	}
}

// TestPlanLeftJoinBlocksPushdown: a WHERE predicate on the null-extended
// side of a LEFT JOIN must stay above the join (pushing it below would
// resurrect rows the predicate filters out).
func TestPlanLeftJoinBlocksPushdown(t *testing.T) {
	db := testDB(t)
	qp := planFor(t, db, `SELECT movie.title FROM movie
		LEFT JOIN cast_info ON cast_info.movie_id = movie.movie_id
		WHERE cast_info.role = 'actor'`)
	if len(qp.Scans[1].Pushed) != 0 || qp.Scans[1].Access != AccessFullScan {
		t.Errorf("predicate was pushed below a LEFT JOIN: %+v", qp.Scans[1])
	}
	if len(qp.Joins[0].Filter) != 1 {
		t.Errorf("predicate should sit right after the join: %+v", qp.Joins[0])
	}
	if !qp.Joins[0].Outer {
		t.Errorf("join not marked outer: %+v", qp.Joins[0])
	}
}

// TestPlanBuildSideSelection: when an index probe makes the left side
// provably smaller, the hash join builds on the left and probes with the
// right table. LEFT joins must never swap (they track unmatched left
// rows).
func TestPlanBuildSideSelection(t *testing.T) {
	db := testDB(t)
	qp := planFor(t, db, `SELECT person.name FROM person
		JOIN cast_info ON cast_info.person_id = person.person_id
		WHERE person.person_id = 1`)
	if qp.Scans[0].Access != AccessIndexEq {
		t.Fatalf("left scan = %+v, want index probe", qp.Scans[0])
	}
	if !qp.Joins[0].BuildLeft {
		t.Errorf("1-row left side should be the build side: %+v", qp.Joins[0])
	}

	qp = planFor(t, db, `SELECT movie.title FROM movie
		LEFT JOIN cast_info ON cast_info.movie_id = movie.movie_id`)
	if qp.Joins[0].BuildLeft {
		t.Errorf("LEFT JOIN must not build on the left: %+v", qp.Joins[0])
	}
}

// TestPlanAggregateStaysOnTop: aggregate conjuncts cannot be pushed; they
// remain in the final filter so the per-row error surfaces exactly like
// the un-planned interpreter.
func TestPlanAggregateStaysOnTop(t *testing.T) {
	db := testDB(t)
	qp := planFor(t, db, "SELECT COUNT(*) FROM movie WHERE COUNT(*) > 1")
	if len(qp.Filter) != 1 {
		t.Errorf("aggregate conjunct should be a final filter: %+v", qp)
	}
	if _, err := Run(db, "SELECT COUNT(*) FROM movie WHERE COUNT(*) > 1"); err == nil {
		t.Error("aggregate in WHERE must still fail at execution")
	}
}

// TestPlanCache: identical statements against unchanged data reuse the
// cached plan; any table mutation changes the database version and makes
// the cached entry unreachable.
func TestPlanCache(t *testing.T) {
	db := testDB(t)
	stmt, err := Parse("SELECT title FROM movie WHERE movie_id = 1")
	if err != nil {
		t.Fatal(err)
	}
	p1, err := planSelect(db, stmt)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := planSelect(db, stmt)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("unchanged data: second plan should be the cached pointer")
	}
	if err := db.Insert("movie", relational.Row{
		relational.Int(99), relational.String_("new movie"), relational.Int(2020), relational.Float(5.0),
	}); err != nil {
		t.Fatal(err)
	}
	p3, err := planSelect(db, stmt)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Error("table mutation must invalidate the cached plan")
	}
}

// TestResultCarriesPlan: Execute attaches the plan it ran.
func TestResultCarriesPlan(t *testing.T) {
	db := testDB(t)
	res, err := Run(db, "SELECT title FROM movie WHERE movie_id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil || res.Plan.Scans[0].Access != AccessIndexEq {
		t.Errorf("Result.Plan = %+v, want attached index-scan plan", res.Plan)
	}
	full, err := ExecuteFullScan(db, mustParse(t, "SELECT title FROM movie WHERE movie_id = 1"))
	if err != nil {
		t.Fatal(err)
	}
	if full.Plan != nil {
		t.Error("full-scan reference path must not claim a plan")
	}
}

// TestExists covers the existence fast path against materialized truth.
func TestExists(t *testing.T) {
	db := testDB(t)
	cases := []struct {
		src  string
		want bool
	}{
		{"SELECT * FROM movie WHERE movie_id = 1", true},
		{"SELECT * FROM movie WHERE movie_id = 999", false},
		{"SELECT * FROM movie WHERE year IS NULL", true},
		{"SELECT * FROM movie WHERE year = 1800", false},
		{"SELECT * FROM movie LIMIT 0", false},
		{"SELECT * FROM movie ORDER BY title OFFSET 3", true},
		{"SELECT * FROM movie OFFSET 4", false},
		{`SELECT person.name FROM person
			JOIN cast_info ON cast_info.person_id = person.person_id
			WHERE cast_info.role = 'director'`, true},
		{`SELECT person.name FROM person
			JOIN cast_info ON cast_info.person_id = person.person_id
			WHERE cast_info.role = 'producer'`, false},
		// Aggregation fallback: a global aggregate always yields one row.
		{"SELECT COUNT(*) FROM movie WHERE year = 1800", true},
		{"SELECT role, COUNT(*) FROM cast_info GROUP BY role HAVING COUNT(*) > 5", false},
		{"SELECT DISTINCT role FROM cast_info OFFSET 1", true},
		{"SELECT DISTINCT role FROM cast_info OFFSET 2", false},
	}
	for _, c := range cases {
		stmt := mustParse(t, c.src)
		got, err := Exists(db, stmt)
		if err != nil {
			t.Errorf("Exists(%q): %v", c.src, err)
			continue
		}
		if got != c.want {
			t.Errorf("Exists(%q) = %v, want %v", c.src, got, c.want)
		}
		// Cross-check against full materialization.
		res, err := ExecuteFullScan(db, stmt)
		if err != nil {
			t.Fatalf("reference Execute(%q): %v", c.src, err)
		}
		if (len(res.Rows) > 0) != c.want {
			t.Errorf("reference disagrees for %q: %d rows", c.src, len(res.Rows))
		}
	}
}

func mustParse(t *testing.T, src string) *SelectStmt {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return stmt
}

// bigDB scales testDB's shape past LazyIndexThreshold with skew: one movie
// year dominates, cast_info is 10x movie, and person is small — the layout
// where written-order joins and halving-based estimates fall over.
func bigDB(t testing.TB) *relational.Database {
	s := relational.NewSchema()
	add := func(ts *relational.TableSchema) {
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
			{Name: "genre", Type: relational.TypeString},
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
		},
		PrimaryKey: "cast_id",
		ForeignKeys: []relational.ForeignKey{
			{Column: "movie_id", RefTable: "movie", RefColumn: "movie_id"},
			{Column: "person_id", RefTable: "person", RefColumn: "person_id"},
		},
	})
	db := relational.MustNewDatabase("big", s)
	I, S := relational.Int, relational.String_
	genres := []string{"drama", "drama", "drama", "comedy", "noir"}
	for i := 1; i <= 600; i++ {
		year := 1950 + i%70
		if i%3 != 0 {
			year = 2000 // skew: two thirds of all movies share one year
		}
		db.Insert("movie", relational.Row{
			I(int64(i)), S(fmt.Sprintf("title %d", i)), I(int64(year)), S(genres[i%len(genres)]),
		})
	}
	for i := 1; i <= 40; i++ {
		db.Insert("person", relational.Row{I(int64(i)), S(fmt.Sprintf("person %d", i))})
	}
	for i := 1; i <= 6000; i++ {
		db.Insert("cast_info", relational.Row{I(int64(i)), I(int64(1 + i%600)), I(int64(1 + i%40))})
	}
	return db
}

// TestPlanRangeScan: BETWEEN and bare inequalities route through the
// sorted index, combining every bound on the chosen column, and the probe
// conjuncts are not re-evaluated.
func TestPlanRangeScan(t *testing.T) {
	db := bigDB(t)
	qp := planFor(t, db, "SELECT title FROM movie WHERE year BETWEEN 1960 AND 1965")
	if qp.Scans[0].Access != AccessIndexRange || qp.Scans[0].IndexColumn != "year" {
		t.Fatalf("BETWEEN access = %+v, want range scan on year", qp.Scans[0])
	}
	if len(qp.Scans[0].Pushed) != 0 {
		t.Errorf("range-served conjuncts must leave the pushed list: %v", qp.Scans[0].Pushed)
	}
	res, err := Run(db, "SELECT title FROM movie WHERE year BETWEEN 1960 AND 1965")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ExecuteFullScan(db, mustParse(t, "SELECT title FROM movie WHERE year BETWEEN 1960 AND 1965"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(ref.Rows) || len(res.Rows) == 0 {
		t.Errorf("range scan rows = %d, reference = %d", len(res.Rows), len(ref.Rows))
	}
	// Strict + redundant bounds combine into one probe.
	qp = planFor(t, db, "SELECT title FROM movie WHERE year > 1960 AND year > 1962 AND year <= 1965")
	if qp.Scans[0].Access != AccessIndexRange {
		t.Fatalf("multi-bound access = %+v, want range scan", qp.Scans[0])
	}
	if got := qp.Scans[0].Lookup; got != "> 1962 AND <= 1965" {
		t.Errorf("combined bounds = %q, want the tightest interval", got)
	}
}

// TestPlanInListScan: IN over literals unions hash postings; NULLs in the
// list are ignored (they cannot turn a row TRUE).
func TestPlanInListScan(t *testing.T) {
	db := bigDB(t)
	src := "SELECT title FROM movie WHERE movie_id IN (3, 5, NULL, 5, 999999)"
	qp := planFor(t, db, src)
	if qp.Scans[0].Access != AccessIndexIn || qp.Scans[0].IndexColumn != "movie_id" {
		t.Fatalf("IN access = %+v, want index-in on movie_id", qp.Scans[0])
	}
	if qp.Scans[0].EstRows != 2 {
		t.Errorf("IN est = %d, want 2 (dedup + absent id)", qp.Scans[0].EstRows)
	}
	res, err := Run(db, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("IN rows = %d, want 2", len(res.Rows))
	}
	// Non-literal list members stay on the interpreted path.
	qp = planFor(t, db, "SELECT title FROM movie WHERE movie_id IN (3, movie_id)")
	if qp.Scans[0].Access == AccessIndexIn {
		t.Errorf("non-literal IN list must not probe: %+v", qp.Scans[0])
	}
}

// TestPlanMatchPostings: MATCH on a large table scans only posting rows.
func TestPlanMatchPostings(t *testing.T) {
	db := bigDB(t)
	src := "SELECT title FROM movie WHERE title MATCH '77'"
	qp := planFor(t, db, src)
	if qp.Scans[0].Access != AccessMatchPostings {
		t.Fatalf("MATCH access = %+v, want match-postings", qp.Scans[0])
	}
	res, err := Run(db, src)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ExecuteFullScan(db, mustParse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(ref.Rows) || len(res.Rows) == 0 {
		t.Errorf("match postings rows = %d, reference = %d", len(res.Rows), len(ref.Rows))
	}
	// Small tables keep filtering the scan (index build would not pay off).
	small := testDB(t)
	qp = planFor(t, small, "SELECT title FROM movie WHERE title MATCH 'dark'")
	if qp.Scans[0].Access != AccessFullScan {
		t.Errorf("small-table MATCH = %+v, want full scan", qp.Scans[0])
	}
}

// TestPlanStatsEstimates: the estimator must see skew — the dominant year
// estimates high (MCV hit), a rare year low, and both far from the old
// halving heuristic's len/2.
func TestPlanStatsEstimates(t *testing.T) {
	db := bigDB(t)
	hot := planFor(t, db, "SELECT title FROM movie WHERE year = 2000")
	cold := planFor(t, db, "SELECT title FROM movie WHERE year = 1967")
	if hot.Scans[0].Access != AccessIndexEq {
		t.Fatalf("year equality on a large table should probe, got %+v", hot.Scans[0])
	}
	if hot.Scans[0].EstRows < 300 {
		t.Errorf("hot-year est = %d, want the skewed majority (~400)", hot.Scans[0].EstRows)
	}
	if cold.Scans[0].EstRows > 20 {
		t.Errorf("cold-year est = %d, want a handful", cold.Scans[0].EstRows)
	}
	// Full-scan estimate on a non-indexed-worthy predicate shape: genre MATCH
	// keeps the scan but the estimate comes from the pattern default, and a
	// pushed genre equality consults the MCV list.
	qp := planFor(t, db, "SELECT title FROM movie WHERE genre = 'noir' AND title LIKE '%x%'")
	est := qp.Scans[0].EstRows
	if est == 0 || est > 300 {
		t.Errorf("noir+LIKE est = %d, want a statistics-scaled fraction (noir is 1/5 of rows)", est)
	}
}

// TestPlanJoinReorder: on a skewed 3-way join written fact-table-first, the
// enumerator must start from the selective relation, and the reordered plan
// must return exactly the reference rows.
func TestPlanJoinReorder(t *testing.T) {
	db := bigDB(t)
	src := `SELECT person.name, movie.title FROM cast_info
		JOIN movie ON movie.movie_id = cast_info.movie_id
		JOIN person ON person.person_id = cast_info.person_id
		WHERE person.person_id = 7`
	qp := planFor(t, db, src)
	if !qp.Reordered {
		t.Fatalf("skewed join not reordered: order %v", qp.JoinOrder)
	}
	if qp.JoinOrder[len(qp.JoinOrder)-1] == "person" {
		t.Errorf("selective relation joined last: %v", qp.JoinOrder)
	}
	if err := checkEquivalent(db, src); err != nil {
		t.Error(err)
	}

	// LEFT joins keep the written order: their order is semantics.
	qp = planFor(t, db, `SELECT movie.title FROM movie
		LEFT JOIN cast_info ON cast_info.movie_id = movie.movie_id
		LEFT JOIN person ON person.person_id = cast_info.person_id`)
	if qp.Reordered {
		t.Errorf("LEFT JOIN chain must not reorder: %v", qp.JoinOrder)
	}
	// SELECT * pins the written order (output column order is the contract).
	qp = planFor(t, db, `SELECT * FROM cast_info
		JOIN movie ON movie.movie_id = cast_info.movie_id
		JOIN person ON person.person_id = cast_info.person_id
		WHERE person.person_id = 7`)
	if qp.Reordered {
		t.Errorf("SELECT * must not reorder: %v", qp.JoinOrder)
	}
}

// TestPlanActualRows: Execute annotates the plan with observed
// cardinalities; Plan (no execution) reports -1.
func TestPlanActualRows(t *testing.T) {
	db := bigDB(t)
	src := "SELECT title FROM movie WHERE year BETWEEN 1960 AND 1965"
	qp := planFor(t, db, src)
	if qp.Scans[0].ActualRows != -1 {
		t.Errorf("unexecuted plan actual = %d, want -1", qp.Scans[0].ActualRows)
	}
	res, err := Run(db, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Scans[0].ActualRows != len(res.Rows) {
		t.Errorf("actual = %d, want %d emitted rows", res.Plan.Scans[0].ActualRows, len(res.Rows))
	}
	// The shared cached plan must stay unannotated (concurrent executions
	// each get their own copy).
	qp2 := planFor(t, db, src)
	if qp2.Scans[0].ActualRows != -1 {
		t.Error("execution leaked actuals into the shared cached plan")
	}
	// Joins too.
	jres, err := Run(db, `SELECT person.name FROM cast_info
		JOIN person ON person.person_id = cast_info.person_id
		WHERE person.person_id = 7`)
	if err != nil {
		t.Fatal(err)
	}
	last := jres.Plan.Joins[len(jres.Plan.Joins)-1]
	if last.ActualRows != len(jres.Rows) {
		t.Errorf("join actual = %d, want %d", last.ActualRows, len(jres.Rows))
	}
}

// TestPlanReorderStaysFreshAfterInsert: captured probe ordinals and join
// orders key on the data version; inserting rows between plans must
// re-plan with fresh statistics rather than serve stale ordinals.
func TestPlanReorderStaysFreshAfterInsert(t *testing.T) {
	db := bigDB(t)
	src := "SELECT title FROM movie WHERE year BETWEEN 2100 AND 2200"
	res, err := Run(db, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("precondition: no future movies, got %d", len(res.Rows))
	}
	if err := db.Insert("movie", relational.Row{
		relational.Int(100001), relational.String_("future"), relational.Int(2150), relational.String_("scifi"),
	}); err != nil {
		t.Fatal(err)
	}
	res, err = Run(db, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("post-insert range rows = %d, want the new row (stale index served?)", len(res.Rows))
	}
}

// TestReorderForwardOnReferenceErrorParity: an ON conjunct referencing a
// table joined later fails in the written-order reference interpreter; the
// join-order search must not silently legalize it — both must error.
func TestReorderForwardOnReferenceErrorParity(t *testing.T) {
	db := bigDB(t)
	stmt, err := Parse(`SELECT person.name FROM movie
		JOIN cast_info ON cast_info.movie_id = person.person_id
		JOIN person ON person.person_id = cast_info.person_id`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(db, stmt); err == nil {
		t.Error("forward ON reference must error in the planned executor")
	}
	if _, err := ExecuteFullScan(db, stmt); err == nil {
		t.Error("forward ON reference must error in the reference interpreter")
	}
}
