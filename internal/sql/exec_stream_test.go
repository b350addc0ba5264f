package sql

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/relational"
)

// streamAll collects ExecuteStream's output for parity checks.
func streamAll(t *testing.T, db *relational.Database, src string) ([]string, []relational.Row, error) {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	var cols []string
	var rows []relational.Row
	starts := 0
	err = ExecuteStream(db, stmt,
		func(c []string) error { starts++; cols = c; return nil },
		func(r relational.Row) error { rows = append(rows, r); return nil })
	if err == nil && starts != 1 {
		t.Fatalf("start called %d times for %q", starts, src)
	}
	return cols, rows, err
}

// TestExecuteStreamParity replays a spread of query shapes — streamable
// pipelines, the materialized fallbacks, LIMIT/OFFSET edges, vectorizable
// and non-vectorizable filters — and demands the exact Execute result.
func TestExecuteStreamParity(t *testing.T) {
	db := testDB(t)
	queries := []string{
		"SELECT * FROM movie",
		"SELECT title FROM movie WHERE year > 2000",
		"SELECT title FROM movie WHERE year = NULL",
		"SELECT title FROM movie WHERE year IS NULL",
		"SELECT title FROM movie WHERE year IS NOT NULL AND rating >= 6.5",
		"SELECT title FROM movie WHERE title LIKE '%river%'",
		"SELECT title FROM movie WHERE year IN (1994, 2008, NULL)",
		"SELECT title FROM movie WHERE 2000 < year",
		"SELECT title FROM movie WHERE year + 0 > 2000", // not vectorizable
		"SELECT title FROM movie LIMIT 2",
		"SELECT title FROM movie LIMIT 0",
		"SELECT title FROM movie LIMIT 2 OFFSET 1",
		"SELECT title FROM movie LIMIT 10 OFFSET 3",
		"SELECT title FROM movie ORDER BY year DESC LIMIT 2",
		"SELECT DISTINCT role FROM cast_info",
		"SELECT COUNT(*) FROM cast_info",
		`SELECT person.name, movie.title FROM person
			JOIN cast_info ON cast_info.person_id = person.person_id
			JOIN movie ON movie.movie_id = cast_info.movie_id`,
		`SELECT movie.title, cast_info.role FROM movie
			LEFT JOIN cast_info ON cast_info.movie_id = movie.movie_id
			WHERE movie.year IS NOT NULL`,
		`SELECT person.name FROM person
			JOIN cast_info ON cast_info.person_id = person.person_id
			WHERE cast_info.role = 'actor' LIMIT 1`,
	}
	for _, q := range queries {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("Parse(%q): %v", q, err)
		}
		want, werr := Execute(db, stmt)
		cols, rows, gerr := streamAll(t, db, q)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%q: Execute err=%v, ExecuteStream err=%v", q, werr, gerr)
		}
		if werr != nil {
			continue
		}
		if len(cols) != len(want.Columns) {
			t.Fatalf("%q: columns %v, want %v", q, cols, want.Columns)
		}
		for i := range cols {
			if cols[i] != want.Columns[i] {
				t.Fatalf("%q: columns %v, want %v", q, cols, want.Columns)
			}
		}
		if len(rows) != len(want.Rows) {
			t.Fatalf("%q: %d rows, want %d", q, len(rows), len(want.Rows))
		}
		for i := range rows {
			if !bytes.Equal(AppendRow(nil, rows[i]), AppendRow(nil, want.Rows[i])) {
				t.Fatalf("%q row %d: got %v want %v", q, i, rows[i], want.Rows[i])
			}
		}
	}
}

func TestExecuteStreamSinkErrorAborts(t *testing.T) {
	db := testDB(t)
	stmt, err := Parse("SELECT title FROM movie")
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("sink full")
	emitted := 0
	err = ExecuteStream(db, stmt,
		func([]string) error { return nil },
		func(relational.Row) error {
			emitted++
			if emitted == 2 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want sink error", err)
	}
	if emitted != 2 {
		t.Fatalf("emit called %d times after abort", emitted)
	}

	err = ExecuteStream(db, stmt,
		func([]string) error { return boom },
		func(relational.Row) error { t.Fatal("emit after failed start"); return nil })
	if !errors.Is(err, boom) {
		t.Fatalf("start err = %v, want sink error", err)
	}
}

// TestExecuteStreamBareStarEmitsStoredRows pins the zero-copy path: a bare
// single-table SELECT * streams the table's stored rows themselves (same
// rows as Execute, in the same order), while any other projection — and a
// SELECT * over a join — emits rows of its own.
func TestExecuteStreamBareStarEmitsStoredRows(t *testing.T) {
	db := testDB(t)
	movie := db.Table("movie")
	stored := make(map[*relational.Value]bool, movie.Len())
	for _, r := range movie.Rows() {
		stored[&r[0]] = true
	}
	for _, c := range []struct {
		q       string
		aliased bool
	}{
		{"SELECT * FROM movie", true},
		{"SELECT * FROM movie WHERE movie_id > 1 LIMIT 2 OFFSET 1", true},
		{"SELECT * FROM movie m WHERE m.movie_id IN (3, 1, 7)", true},
		{"SELECT movie_id, title, year, rating FROM movie", false},
		{"SELECT *, title FROM movie", false},
		{"SELECT * FROM movie JOIN cast_info ON cast_info.movie_id = movie.movie_id", false},
	} {
		_, rows, err := streamAll(t, db, c.q)
		if err != nil {
			t.Fatalf("%q: %v", c.q, err)
		}
		if len(rows) == 0 {
			t.Fatalf("%q: no rows", c.q)
		}
		for i, r := range rows {
			if got := stored[&r[0]]; got != c.aliased {
				t.Fatalf("%q row %d: aliases stored row = %v, want %v", c.q, i, got, c.aliased)
			}
		}
	}
}

// TestDistinctLimitShortCircuits: under DISTINCT, LIMIT still stops the
// pipeline once OFFSET+LIMIT distinct rows survived — on Execute,
// ExecuteStream and ExecuteRows alike, one LimitShortCircuits each — and
// the rows are the unlimited result's first distinct rows.
func TestDistinctLimitShortCircuits(t *testing.T) {
	db := testDB(t)
	const join = " FROM cast_info JOIN movie ON movie.movie_id = cast_info.movie_id"
	for _, src := range []string{
		"SELECT DISTINCT movie.title" + join,
		"SELECT DISTINCT cast_info.role" + join,
		"SELECT DISTINCT title FROM movie",
	} {
		all, err := Execute(db, mustParse(t, src))
		if err != nil {
			t.Fatal(err)
		}
		stmt := mustParse(t, src+" LIMIT 2")
		tables := make([][]relational.Row, len(stmt.Tables()))
		for i, tr := range stmt.Tables() {
			tables[i] = db.Table(tr.Table).Rows()
		}
		for name, run := range map[string]func() ([]relational.Row, error){
			"Execute": func() ([]relational.Row, error) {
				res, err := Execute(db, stmt)
				if err != nil {
					return nil, err
				}
				return res.Rows, nil
			},
			"ExecuteStream": func() ([]relational.Row, error) {
				_, rows, err := streamAll(t, db, stmt.SQL())
				return rows, err
			},
			"ExecuteRows": func() ([]relational.Row, error) {
				res, err := ExecuteRows(db.Schema, stmt, tables)
				if err != nil {
					return nil, err
				}
				return res.Rows, nil
			},
		} {
			before := Stats().LimitShortCircuits
			rows, err := run()
			if err != nil {
				t.Fatalf("%s %q: %v", name, stmt.SQL(), err)
			}
			if got := Stats().LimitShortCircuits - before; got != 1 {
				t.Errorf("%s %q: LimitShortCircuits rose by %d, want 1", name, stmt.SQL(), got)
			}
			if len(rows) != 2 {
				t.Fatalf("%s %q: %d rows, want 2", name, stmt.SQL(), len(rows))
			}
			if name == "ExecuteRows" {
				continue // the written join order; Execute's may differ
			}
			for i, r := range rows {
				if !bytes.Equal(AppendRow(nil, r), AppendRow(nil, all.Rows[i])) {
					t.Errorf("%s %q row %d: %v, want %v", name, stmt.SQL(), i, r, all.Rows[i])
				}
			}
		}
	}
}
