package wrapper

import (
	"testing"

	"repro/internal/ontology"
	"repro/internal/relational"
	"repro/internal/sql"
)

// TestExecuteExistsDoesNotMutateStatement pins the fallback probe's clone
// semantics: a source without an existence mode is probed through a LIMIT 1
// rewrite, and the caller's statement — which the engine caches and reuses
// across searches — must come back exactly as it went in, so a later
// Execute of the same statement still honors its ORDER BY and LIMIT.
func TestExecuteExistsDoesNotMutateStatement(t *testing.T) {
	db := fixtureDB(t)
	// MetadataSource does not implement ExistsExecutor, so ExecuteExists
	// takes the fallback path under test.
	src := NewMetadataSource("hidden", db.Schema, ontology.NewThesaurus(),
		func(stmt *sql.SelectStmt) (*sql.Result, error) { return sql.Execute(db, stmt) })
	if _, ok := interface{}(src).(ExistsExecutor); ok {
		t.Fatal("MetadataSource grew an existence mode; this test no longer covers the fallback")
	}

	stmt, err := sql.Parse("SELECT title FROM movie ORDER BY year DESC LIMIT 2 OFFSET 1")
	if err != nil {
		t.Fatal(err)
	}
	before := stmt.SQL()
	run := func() *sql.Result {
		t.Helper()
		res, err := src.Execute(stmt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run()

	ok, err := ExecuteExists(src, stmt)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("ExecuteExists = false for a non-empty result")
	}
	if after := stmt.SQL(); after != before {
		t.Fatalf("ExecuteExists mutated the statement:\n before %s\n after  %s", before, after)
	}
	if len(stmt.OrderBy) != 1 || stmt.Limit != 2 || stmt.Offset != 1 {
		t.Fatalf("clause fields changed: order-by=%d limit=%d offset=%d",
			len(stmt.OrderBy), stmt.Limit, stmt.Offset)
	}

	// Reuse across Execute/Exists: the second execution must reproduce the
	// first, row for row.
	second := run()
	if len(first.Rows) != len(second.Rows) {
		t.Fatalf("re-executed statement returned %d rows, want %d", len(second.Rows), len(first.Rows))
	}
	for i := range first.Rows {
		for j := range first.Rows[i] {
			if relational.Compare(first.Rows[i][j], second.Rows[i][j]) != 0 {
				t.Fatalf("row %d diverged after ExecuteExists: %v vs %v", i, second.Rows[i], first.Rows[i])
			}
		}
	}
}
