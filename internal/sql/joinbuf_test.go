package sql

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/relational"
)

// joinDB is a four-table movie database whose joins take every path of the
// planned pipeline: genre (5 rows) ← movie (300) ← cast_info (1 500) →
// person (60). Every seventh movie has no cast, so LEFT joins null-extend.
func joinDB(t testing.TB) *relational.Database {
	t.Helper()
	s := relational.NewSchema()
	add := func(ts *relational.TableSchema) {
		t.Helper()
		if err := s.AddTable(ts); err != nil {
			t.Fatal(err)
		}
	}
	add(&relational.TableSchema{
		Name: "genre",
		Columns: []relational.Column{
			{Name: "genre_id", Type: relational.TypeInt, NotNull: true},
			{Name: "label", Type: relational.TypeString, NotNull: true},
		},
		PrimaryKey: "genre_id",
	})
	add(&relational.TableSchema{
		Name: "movie",
		Columns: []relational.Column{
			{Name: "movie_id", Type: relational.TypeInt, NotNull: true},
			{Name: "title", Type: relational.TypeString, NotNull: true},
			{Name: "year", Type: relational.TypeInt},
			{Name: "genre_id", Type: relational.TypeInt},
		},
		PrimaryKey:  "movie_id",
		ForeignKeys: []relational.ForeignKey{{Column: "genre_id", RefTable: "genre", RefColumn: "genre_id"}},
	})
	add(&relational.TableSchema{
		Name: "person",
		Columns: []relational.Column{
			{Name: "person_id", Type: relational.TypeInt, NotNull: true},
			{Name: "name", Type: relational.TypeString, NotNull: true},
			{Name: "born", Type: relational.TypeInt},
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
	db := relational.MustNewDatabase("joinbuf", s)
	ins := func(table string, row relational.Row) {
		t.Helper()
		if err := db.Insert(table, row); err != nil {
			t.Fatal(err)
		}
	}
	I, S := relational.Int, relational.String_
	for g, label := range []string{"drama", "comedy", "noir", "western", "musical"} {
		ins("genre", relational.Row{I(int64(g + 1)), S(label)})
	}
	for m := 1; m <= 300; m++ {
		ins("movie", relational.Row{I(int64(m)), S(fmt.Sprintf("title %03d", m)), I(int64(1950 + m%60)), I(int64(1 + m%5))})
	}
	for p := 1; p <= 60; p++ {
		ins("person", relational.Row{I(int64(p)), S(fmt.Sprintf("person %02d", p)), I(int64(1900 + p))})
	}
	roles := []string{"actor", "director", "writer"}
	for c, m := 1, 1; c <= 1500; m = m%300 + 1 {
		if m%7 == 0 {
			continue
		}
		ins("cast_info", relational.Row{I(int64(c)), I(int64(m)), I(int64(1 + (c*7)%60)), S(roles[c%3])})
		c++
	}
	return db
}

// stepWhere reports whether some join step of qp satisfies ok.
func stepWhere(ok func(JoinPlan) bool) func(*QueryPlan) bool {
	return func(qp *QueryPlan) bool {
		return slices.ContainsFunc(qp.Joins, ok)
	}
}

// TestJoinedRowBufferAliasing holds the planned pipeline's row-lifetime
// rule: a joined row is the step's one buffer, valid until emit returns, so
// the build-left side of a later step and the collecting arm of GROUP BY,
// aggregates and ORDER BY copy what they keep. Each statement takes the
// named path (checked on its plan), gives the reference interpreter's rows
// through Execute, and the rows an ExecuteStream caller keeps without
// copying equal Execute's in order. Every case carries a kept joined row
// through a build-left step past the first or through the collecting arm,
// so dropping either copy breaks it.
func TestJoinedRowBufferAliasing(t *testing.T) {
	db := joinDB(t)
	buildLeftLater := func(qp *QueryPlan) bool {
		return slices.ContainsFunc(qp.Joins[1:], func(j JoinPlan) bool { return j.BuildLeft })
	}
	cases := []struct {
		name string
		src  string
		path func(*QueryPlan) bool
	}{
		{"build-left at a later step", `SELECT person.name, movie.title, cast_info.role, genre.label FROM person
			JOIN cast_info ON cast_info.person_id = person.person_id
			JOIN movie ON movie.movie_id = cast_info.movie_id
			JOIN genre ON genre.genre_id = movie.genre_id
			WHERE person.person_id = 3`, buildLeftLater},
		{"build-right", `SELECT cast_info.cast_id, movie.title, person.name FROM cast_info
			JOIN movie ON movie.movie_id = cast_info.movie_id
			JOIN person ON person.person_id = cast_info.person_id
			WHERE cast_info.role = 'writer'
			ORDER BY movie.title, cast_info.cast_id`,
			stepWhere(func(j JoinPlan) bool { return j.Strategy == StrategyHash && !j.BuildLeft && !j.Outer })},
		{"nested loop", `SELECT genre.label, movie.title, person.name FROM genre
			JOIN movie ON movie.genre_id = genre.genre_id
			JOIN person ON person.born + 45 < movie.year
			WHERE genre.genre_id = 2 AND movie.year < 1960
			ORDER BY movie.title, person.name`,
			stepWhere(func(j JoinPlan) bool { return j.Strategy == StrategyNestedLoop })},
		{"LEFT JOIN, matched and unmatched", `SELECT movie.title, cast_info.role, person.name FROM movie
			LEFT JOIN cast_info ON cast_info.movie_id = movie.movie_id
			LEFT JOIN person ON person.person_id = cast_info.person_id
			WHERE movie.movie_id < 30
			ORDER BY movie.movie_id, cast_info.cast_id`,
			stepWhere(func(j JoinPlan) bool { return j.Outer })},
		{"SELECT * over a join", `SELECT * FROM genre
			JOIN movie ON movie.genre_id = genre.genre_id
			JOIN cast_info ON cast_info.movie_id = movie.movie_id
			WHERE genre.genre_id = 4 AND movie.year = 1953
			ORDER BY cast_info.cast_id`,
			func(qp *QueryPlan) bool { return len(qp.Joins) == 2 }},
		{"DISTINCT", `SELECT DISTINCT genre.label, cast_info.role FROM person
			JOIN cast_info ON cast_info.person_id = person.person_id
			JOIN movie ON movie.movie_id = cast_info.movie_id
			JOIN genre ON genre.genre_id = movie.genre_id
			WHERE person.person_id = 5`, buildLeftLater},
		{"GROUP BY", `SELECT genre.label, COUNT(*), MIN(person.name) FROM cast_info
			JOIN movie ON movie.movie_id = cast_info.movie_id
			JOIN genre ON genre.genre_id = movie.genre_id
			JOIN person ON person.person_id = cast_info.person_id
			WHERE person.born < 1920
			GROUP BY genre.label`,
			func(qp *QueryPlan) bool { return len(qp.Joins) == 3 }},
		{"ORDER BY", `SELECT person.name, movie.title FROM person
			JOIN cast_info ON cast_info.person_id = person.person_id
			JOIN movie ON movie.movie_id = cast_info.movie_id
			WHERE person.person_id = 9
			ORDER BY movie.title DESC`, buildLeftLater},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stmt := mustParse(t, tc.src)
			if qp, err := Plan(db, stmt); err != nil {
				t.Fatal(err)
			} else if !tc.path(qp) {
				t.Fatalf("plan does not take the %s path:\n%s", tc.name, renderPlan(db, stmt, qp))
			}
			if err := checkEquivalent(db, tc.src); err != nil {
				t.Fatal(err)
			}
			res, err := Execute(db, stmt)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) < 2 {
				t.Fatalf("%d rows: too few to show aliasing", len(res.Rows))
			}
			_, kept, err := streamAll(t, db, tc.src)
			if err != nil {
				t.Fatal(err)
			}
			if want, got := orderedRows(res), orderedRows(&Result{Rows: kept}); !slices.Equal(want, got) {
				t.Fatalf("kept stream rows differ from Execute's:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// TestJoinedPlanConcurrentExecute runs one joined statement from many
// goroutines, which share its cached plan: a buffer kept on the plan
// instead of in the execution's frame would mix their rows.
func TestJoinedPlanConcurrentExecute(t *testing.T) {
	db := joinDB(t)
	src := `SELECT person.name, movie.title, genre.label FROM person
		JOIN cast_info ON cast_info.person_id = person.person_id
		JOIN movie ON movie.movie_id = cast_info.movie_id
		JOIN genre ON genre.genre_id = movie.genre_id
		WHERE person.born < 1910`
	stmt := mustParse(t, src)
	serial, err := Execute(db, stmt)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join(orderedRows(serial), "\n")
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				res, err := Execute(db, stmt)
				if err != nil {
					errs <- err
					return
				}
				if got := strings.Join(orderedRows(res), "\n"); got != want {
					errs <- fmt.Errorf("concurrent Execute diverged from the serial result")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// candidateDB has parents 1..10 and fanout children per parent; only the
// last child of each parent has keep = 1.
func candidateDB(t testing.TB, fanout int) *relational.Database {
	t.Helper()
	s := relational.NewSchema()
	for _, ts := range []*relational.TableSchema{
		{
			Name: "parent",
			Columns: []relational.Column{
				{Name: "pid", Type: relational.TypeInt, NotNull: true},
				{Name: "cap", Type: relational.TypeInt},
			},
			PrimaryKey: "pid",
		},
		{
			Name: "child",
			Columns: []relational.Column{
				{Name: "cid", Type: relational.TypeInt, NotNull: true},
				{Name: "pid", Type: relational.TypeInt, NotNull: true},
				{Name: "keep", Type: relational.TypeInt},
			},
			PrimaryKey:  "cid",
			ForeignKeys: []relational.ForeignKey{{Column: "pid", RefTable: "parent", RefColumn: "pid"}},
		},
	} {
		if err := s.AddTable(ts); err != nil {
			t.Fatal(err)
		}
	}
	db := relational.MustNewDatabase(fmt.Sprintf("candidates%d", fanout), s)
	I := relational.Int
	for p := 1; p <= 10; p++ {
		if err := db.Insert("parent", relational.Row{I(int64(p)), I(0)}); err != nil {
			t.Fatal(err)
		}
	}
	cid := 0
	for k := 1; k <= fanout; k++ {
		for p := 1; p <= 10; p++ {
			cid++
			keep := 0
			if k == fanout {
				keep = 1
			}
			if err := db.Insert("child", relational.Row{I(int64(cid)), I(int64(p)), I(int64(keep))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// TestJoinAllocsIndependentOfCandidates pins the pipeline's allocations to
// one per execution and step: a LIMIT'd join whose placed WHERE conjunct
// discards every candidate pair but the last ten allocates alike whether
// the join makes 100 or 1 000 candidates.
func TestJoinAllocsIndependentOfCandidates(t *testing.T) {
	stmt := mustParse(t, `SELECT child.cid, parent.pid FROM child
		JOIN parent ON parent.pid = child.pid
		WHERE child.keep > parent.cap LIMIT 5`)
	allocs := func(fanout int) float64 {
		db := candidateDB(t, fanout)
		res, err := Execute(db, stmt)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 5 {
			t.Fatalf("fanout %d: %d rows, want 5", fanout, len(res.Rows))
		}
		if qp := res.Plan; len(qp.Joins) != 1 || len(qp.Joins[0].Filter) != 1 {
			t.Fatalf("fanout %d: the WHERE conjunct is not placed on the join:\n%s", fanout, renderPlan(db, stmt, qp))
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := Execute(db, stmt); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(10), allocs(100)
	t.Logf("allocations per Execute: %v for 100 candidates, %v for 1 000", few, many)
	if many-few > 8 {
		t.Errorf("allocations grow with candidate pairs: %v for 100 candidates, %v for 1 000", few, many)
	}
}
