package conformance

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/datasets"
	"repro/internal/relational"
	"repro/internal/shard"
	"repro/internal/sql"
)

// TestStatementTailIMDB holds every entry point of the statement tail to
// Execute on the candidate golden's statements, each run unlimited, under
// LIMIT 20 and under OFFSET 3 LIMIT 5: ExecuteStream emits exactly
// Execute's rows in Execute's order, Exists equals non-emptiness, and
// ExecuteRows over a 3-shard gather returns as many rows.
func TestStatementTailIMDB(t *testing.T) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 4})
	parts, err := shard.Partition(db, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, stmt := range candidateStatements(t) {
		tables, _ := gatherFragments(t, parts, stmt)
		for _, v := range []struct{ limit, offset int }{{-1, 0}, {20, 0}, {5, 3}} {
			variant := *stmt
			variant.Limit, variant.Offset = v.limit, v.offset
			if err := checkTail(db, parts[0].Schema, &variant, tables); err != nil {
				t.Fatalf("%s: %v", variant.SQL(), err)
			}
		}
	}
}

// checkTail compares ExecuteStream, Exists and ExecuteRows over tables
// with Execute on one statement.
func checkTail(db *relational.Database, schema *relational.Schema, stmt *sql.SelectStmt, tables [][]relational.Row) error {
	want, err := sql.Execute(db, stmt)
	if err != nil {
		return err
	}
	var got []relational.Row
	err = sql.ExecuteStream(db, stmt, func([]string) error { return nil },
		func(r relational.Row) error { got = append(got, r); return nil })
	if err != nil {
		return fmt.Errorf("ExecuteStream: %v", err)
	}
	if len(got) != len(want.Rows) {
		return fmt.Errorf("ExecuteStream emitted %d rows, Execute %d", len(got), len(want.Rows))
	}
	for i := range got {
		if !bytes.Equal(sql.AppendRow(nil, got[i]), sql.AppendRow(nil, want.Rows[i])) {
			return fmt.Errorf("ExecuteStream row %d is %v, Execute's %v", i, got[i], want.Rows[i])
		}
	}
	if ok, err := sql.Exists(db, stmt); err != nil || ok != (len(want.Rows) > 0) {
		return fmt.Errorf("Exists = %v (%v) for %d rows", ok, err, len(want.Rows))
	}
	gathered, err := sql.ExecuteRows(schema, stmt, tables)
	if err != nil {
		return fmt.Errorf("ExecuteRows: %v", err)
	}
	if len(gathered.Rows) != len(want.Rows) {
		return fmt.Errorf("ExecuteRows returned %d rows, Execute %d", len(gathered.Rows), len(want.Rows))
	}
	return nil
}
