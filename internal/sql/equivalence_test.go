package sql

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/relational"
)

// eqDB builds a database sized to exercise every planner path: movie is
// past LazyIndexThreshold (on-demand index builds on non-key columns),
// person is small, and cast_info carries NULL foreign keys — the rows that
// must never match an equi-join but must survive LEFT JOIN null-extension.
func eqDB(t testing.TB) *relational.Database {
	t.Helper()
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
			{Name: "rating", Type: relational.TypeFloat},
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
			{Name: "movie_id", Type: relational.TypeInt}, // nullable FK
			{Name: "person_id", Type: relational.TypeInt},
			{Name: "role", Type: relational.TypeString},
		},
		PrimaryKey: "cast_id",
		ForeignKeys: []relational.ForeignKey{
			{Column: "movie_id", RefTable: "movie", RefColumn: "movie_id"},
			{Column: "person_id", RefTable: "person", RefColumn: "person_id"},
		},
	})
	db := relational.MustNewDatabase("equiv", s)
	rng := rand.New(rand.NewSource(11))
	genres := []string{"drama", "comedy", "thriller", "noir"}
	words := []string{"dark", "river", "storm", "night", "golden", "silent", "iron", "last"}
	I, F, S, N := relational.Int, relational.Float, relational.String_, relational.Null
	for i := 1; i <= 350; i++ {
		title := words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))]
		year := relational.Value(I(int64(1960 + rng.Intn(60))))
		if rng.Intn(10) == 0 {
			year = N()
		}
		db.Insert("movie", relational.Row{
			I(int64(i)), S(title), year, F(float64(rng.Intn(100)) / 10), S(genres[rng.Intn(len(genres))]),
		})
	}
	for i := 1; i <= 120; i++ {
		db.Insert("person", relational.Row{I(int64(i)), S(fmt.Sprintf("p%d %s", i, words[rng.Intn(len(words))]))})
	}
	roles := []string{"actor", "director", "writer"}
	for i := 1; i <= 800; i++ {
		mid := relational.Value(I(int64(1 + rng.Intn(350))))
		pid := relational.Value(I(int64(1 + rng.Intn(120))))
		role := relational.Value(S(roles[rng.Intn(len(roles))]))
		// NULL-key rows: must not match any equi-join.
		if rng.Intn(8) == 0 {
			mid = N()
		}
		if rng.Intn(8) == 0 {
			pid = N()
		}
		if rng.Intn(10) == 0 {
			role = N()
		}
		db.Insert("cast_info", relational.Row{I(int64(i)), mid, pid, role})
	}
	return db
}

// rowMultiset renders a result as a sorted multiset of value keys, the
// order-insensitive comparison both execution paths must agree on (the
// planner may legally reorder rows of un-ORDERed results via build-side
// swaps).
func rowMultiset(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		var b strings.Builder
		for _, v := range r {
			b.WriteString(v.Key())
			b.WriteByte('|')
		}
		out[i] = b.String()
	}
	sort.Strings(out)
	return out
}

// checkEquivalent runs src through the planned executor and the full-scan
// reference and reports any divergence. Queries with LIMIT/OFFSET but no
// total order compare row counts and existence only (which rows are kept
// is legitimately order-dependent). It is goroutine-safe so the generated
// suite can fan out.
func checkEquivalent(db *relational.Database, src string) error {
	stmt, err := Parse(src)
	if err != nil {
		return fmt.Errorf("Parse(%q): %v", src, err)
	}
	planned, perr := Execute(db, stmt)
	reference, rerr := ExecuteFullScan(db, stmt)
	if (perr != nil) != (rerr != nil) {
		return fmt.Errorf("error divergence for %q: planned=%v reference=%v", src, perr, rerr)
	}
	if perr != nil {
		return nil
	}
	if strings.Join(planned.Columns, ",") != strings.Join(reference.Columns, ",") {
		return fmt.Errorf("column divergence for %q: %v vs %v", src, planned.Columns, reference.Columns)
	}
	if len(planned.Rows) != len(reference.Rows) {
		return fmt.Errorf("row-count divergence for %q: planned=%d reference=%d", src, len(planned.Rows), len(reference.Rows))
	}

	// The existence mode must agree with materialized emptiness.
	exists, err := Exists(db, stmt)
	if err != nil {
		return fmt.Errorf("Exists(%q): %v", src, err)
	}
	if exists != (len(reference.Rows) > 0) {
		return fmt.Errorf("Exists divergence for %q: %v vs %d rows", src, exists, len(reference.Rows))
	}
	if stmt.Limit >= 0 || stmt.Offset > 0 {
		return nil
	}
	p, r := rowMultiset(planned), rowMultiset(reference)
	for i := range p {
		if p[i] != r[i] {
			return fmt.Errorf("row divergence for %q:\n  planned   %s\n  reference %s", src, p[i], r[i])
		}
	}
	return nil
}

// TestPlannerEquivalenceTableDriven pins the cases that motivated the
// planner rules, NULL-key join rows and LEFT JOIN pushdown legality above
// all.
func TestPlannerEquivalenceTableDriven(t *testing.T) {
	db := eqDB(t)
	for _, src := range []string{
		"SELECT * FROM movie",
		"SELECT * FROM movie WHERE movie_id = 17",
		"SELECT * FROM movie WHERE movie_id = -5",
		"SELECT title FROM movie WHERE genre = 'noir'",
		"SELECT title FROM movie WHERE title = 'dark river'",
		"SELECT title FROM movie WHERE year IS NULL",
		"SELECT title FROM movie WHERE year IS NOT NULL AND genre = 'drama'",
		"SELECT title FROM movie WHERE year = NULL",
		"SELECT title FROM movie WHERE year IN (1970, 1980, 1990)",
		"SELECT title FROM movie WHERE NOT (year > 1980)",
		"SELECT title FROM movie WHERE year > 1980 OR rating > 8",
		"SELECT title FROM movie WHERE title MATCH 'dark'",
		"SELECT title FROM movie WHERE title LIKE '%storm%'",
		// NULL-key rows must not join.
		`SELECT movie.title, cast_info.role FROM movie
			JOIN cast_info ON cast_info.movie_id = movie.movie_id`,
		`SELECT person.name, movie.title FROM person
			JOIN cast_info ON cast_info.person_id = person.person_id
			JOIN movie ON movie.movie_id = cast_info.movie_id
			WHERE cast_info.role = 'director'`,
		// LEFT JOIN: null-extension must survive pushdown decisions.
		`SELECT movie.title, cast_info.role FROM movie
			LEFT JOIN cast_info ON cast_info.movie_id = movie.movie_id`,
		`SELECT movie.title, cast_info.role FROM movie
			LEFT JOIN cast_info ON cast_info.movie_id = movie.movie_id
			WHERE cast_info.role = 'actor'`,
		`SELECT movie.title FROM movie
			LEFT JOIN cast_info ON cast_info.movie_id = movie.movie_id
			WHERE cast_info.role IS NULL`,
		// Build-side swap territory: tiny filtered left side.
		`SELECT person.name, cast_info.role FROM person
			JOIN cast_info ON cast_info.person_id = person.person_id
			WHERE person.person_id = 3`,
		// Range predicates as pushed filters (NULL years must never
		// qualify).
		"SELECT title FROM movie WHERE year BETWEEN 1970 AND 1980",
		"SELECT title FROM movie WHERE year > 1990 AND year <= 2005 AND rating > 5",
		"SELECT title FROM movie WHERE 1985 <= year",
		"SELECT title FROM movie WHERE year BETWEEN 1990 AND 1970",
		// IN lists through unioned postings (duplicates, NULLs, misses).
		"SELECT title FROM movie WHERE movie_id IN (3, 3, 700, NULL, 42)",
		"SELECT title FROM movie WHERE genre IN ('noir', 'comedy')",
		"SELECT cast_id FROM cast_info WHERE person_id IN (1, 2, 3)",
		// Reordered 3-table join with a selective tail predicate: the
		// written order is the worst order.
		`SELECT movie.title, person.name FROM cast_info
			JOIN movie ON movie.movie_id = cast_info.movie_id
			JOIN person ON person.person_id = cast_info.person_id
			WHERE person.person_id = 11`,
		// 4-relation join (self-join on movie) exercising the enumerator
		// with range + IN predicates in the pool.
		`SELECT person.name, m2.title FROM person
			JOIN cast_info ON cast_info.person_id = person.person_id
			JOIN movie ON movie.movie_id = cast_info.movie_id
			JOIN movie m2 ON m2.movie_id = cast_info.movie_id
			WHERE movie.year BETWEEN 1980 AND 1995 AND person.person_id IN (5, 9, 13)`,
		// Residual ON conjunct plus pushdown.
		`SELECT person.name FROM person
			JOIN cast_info ON cast_info.person_id = person.person_id AND cast_info.cast_id > 100
			WHERE person.name LIKE 'p1%'`,
		// Multi-table WHERE conjunct placed after its covering join.
		`SELECT movie.title FROM movie
			JOIN cast_info ON cast_info.movie_id = movie.movie_id
			WHERE movie.movie_id + 1 > cast_info.person_id AND movie.genre = 'drama'`,
		// Non-equi join: nested loop with pushdown.
		`SELECT m1.title FROM movie m1
			JOIN movie m2 ON m1.year < m2.year
			WHERE m1.movie_id = 9 AND m2.genre = 'comedy'`,
		// Aggregation over planned joins.
		`SELECT cast_info.role, COUNT(*) FROM movie
			JOIN cast_info ON cast_info.movie_id = movie.movie_id
			WHERE movie.genre = 'drama' GROUP BY cast_info.role`,
		"SELECT COUNT(*), MIN(year), MAX(year) FROM movie WHERE genre = 'noir'",
		"SELECT DISTINCT genre FROM movie WHERE year > 1990",
		// DISTINCT under OFFSET/LIMIT: both count distinct rows, and the
		// tail stops once OFFSET+LIMIT of them survived.
		"SELECT DISTINCT genre FROM movie LIMIT 2 OFFSET 1",
		"SELECT DISTINCT genre FROM movie LIMIT 50 OFFSET 2",
		"SELECT DISTINCT genre FROM movie LIMIT 0",
		"SELECT DISTINCT year FROM movie WHERE genre = 'drama' OFFSET 3",
		"SELECT DISTINCT genre FROM movie OFFSET 1000",
		`SELECT DISTINCT cast_info.role FROM movie
			JOIN cast_info ON cast_info.movie_id = movie.movie_id LIMIT 1 OFFSET 1`,
		`SELECT DISTINCT movie.title FROM cast_info
			JOIN movie ON movie.movie_id = cast_info.movie_id
			JOIN person ON person.person_id = cast_info.person_id
			WHERE person.person_id IN (5, 9, 13) LIMIT 4 OFFSET 2`,
		`SELECT DISTINCT person.name, movie.genre FROM person
			LEFT JOIN cast_info ON cast_info.person_id = person.person_id
			LEFT JOIN movie ON movie.movie_id = cast_info.movie_id LIMIT 7 OFFSET 5`,
		"SELECT title FROM movie WHERE genre = 'drama' ORDER BY movie_id LIMIT 5",
		"SELECT title FROM movie ORDER BY year DESC, title, movie_id",
		// Index-narrowed scans: a small filtered left side narrows the
		// probe scan of movie (build-left; cast_info carries NULL keys),
		// and a small right side narrows the base scan of cast_info.
		`SELECT movie.title, cast_info.role FROM cast_info
			JOIN movie ON movie.movie_id = cast_info.movie_id
			WHERE cast_info.cast_id < 40`,
		`SELECT person.name, cast_info.role FROM cast_info
			JOIN person ON person.person_id = cast_info.person_id
			WHERE person.person_id IN (3, 5, 8)`,
		`SELECT movie.title FROM movie
			JOIN cast_info ON cast_info.movie_id = movie.movie_id
			WHERE cast_info.cast_id < 60 AND movie.title LIKE '%river%'`,
	} {
		if err := checkEquivalent(db, src); err != nil {
			t.Error(err)
		}
	}
}

// TestPlannerEquivalenceGenerated is the lightweight fuzz layer: seeded
// random SELECTs over every FROM shape and predicate kind, executed
// concurrently so the plan cache and lazy index builds also run under the
// race detector (make race).
func TestPlannerEquivalenceGenerated(t *testing.T) {
	db := eqDB(t)
	fromShapes := []string{
		"FROM movie",
		"FROM movie JOIN cast_info ON cast_info.movie_id = movie.movie_id",
		"FROM movie LEFT JOIN cast_info ON cast_info.movie_id = movie.movie_id",
		`FROM person JOIN cast_info ON cast_info.person_id = person.person_id
			JOIN movie ON movie.movie_id = cast_info.movie_id`,
		`FROM person LEFT JOIN cast_info ON cast_info.person_id = person.person_id
			LEFT JOIN movie ON movie.movie_id = cast_info.movie_id`,
		// ≥3-table inner shapes written in join-enumerator-hostile order
		// (fact table first) so reordered plans are continuously pinned
		// against the reference.
		`FROM cast_info JOIN movie ON movie.movie_id = cast_info.movie_id
			JOIN person ON person.person_id = cast_info.person_id`,
		`FROM cast_info JOIN person ON person.person_id = cast_info.person_id
			JOIN movie ON movie.movie_id = cast_info.movie_id
			JOIN movie m2 ON m2.movie_id = cast_info.movie_id`,
	}
	moviePreds := []string{
		"movie.movie_id = %d",
		"movie.genre = 'drama'",
		"movie.genre = 'noir'",
		"movie.year > %d",
		"movie.year IS NULL",
		"movie.year IS NOT NULL",
		"movie.title MATCH 'river'",
		"movie.title LIKE '%%storm%%'",
		"movie.year IN (1971, 1984, 2002)",
		"(movie.year > %d OR movie.rating > 5)",
		// Range shapes: BETWEEN, combined bounds, literal-first spelling,
		// empty and inverted intervals.
		"movie.year BETWEEN 1975 AND 1995",
		"movie.year BETWEEN %d AND 2005",
		"movie.year > %d",
		"movie.year >= 1980 AND movie.year < 1990",
		"1990 <= movie.year",
		"movie.rating > 7.5",
		"movie.year BETWEEN 2002 AND 1999",
		// IN shapes: strings, duplicates, NULL members, misses.
		"movie.genre IN ('drama', 'noir')",
		"movie.movie_id IN (%d, %d, NULL)",
		"movie.year IN (1981, 1981, 1993)",
	}
	castPreds := []string{
		"cast_info.role = 'actor'",
		"cast_info.role IS NULL",
		"cast_info.cast_id = %d",
		"cast_info.person_id = %d",
		"movie.movie_id = cast_info.person_id",
		"cast_info.cast_id BETWEEN %d AND 600",
		"cast_info.person_id IN (%d, %d)",
		"cast_info.role IN ('actor', 'writer', NULL)",
	}
	rng := rand.New(rand.NewSource(23))
	queries := make([]string, 0, 240)
	for i := 0; i < 240; i++ {
		shape := fromShapes[rng.Intn(len(fromShapes))]
		var preds []string
		for n := rng.Intn(4); n > 0; n-- {
			pool := moviePreds
			if strings.Contains(shape, "cast_info") && rng.Intn(2) == 0 {
				pool = castPreds
			}
			if !strings.Contains(shape, "FROM movie") && !strings.Contains(shape, "JOIN movie") && pool[0][:5] == "movie" {
				continue
			}
			p := pool[rng.Intn(len(pool))]
			if n := strings.Count(p, "%d"); n > 0 {
				args := make([]interface{}, n)
				for ai := range args {
					args[ai] = rng.Intn(420)
				}
				p = fmt.Sprintf(p, args...)
			}
			preds = append(preds, p)
		}
		sel := "SELECT movie.title, movie.year"
		if strings.Contains(shape, "cast_info") {
			sel += ", cast_info.role"
		}
		if !strings.Contains(shape, "movie") {
			sel = "SELECT person.name"
		}
		q := sel + " " + shape
		if len(preds) > 0 {
			q += " WHERE " + strings.Join(preds, " AND ")
		}
		switch rng.Intn(5) {
		case 0:
			q += " ORDER BY movie.movie_id"
		case 1:
			q = strings.Replace(q, "SELECT ", "SELECT DISTINCT ", 1)
		}
		queries = append(queries, q)
	}
	longIn := longInQueries()
	served, residual := 0, 0
	for _, q := range longIn {
		qp, err := Plan(db, mustParse(t, q))
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range qp.Scans {
			if sp.Access == AccessIndexIn {
				served++
			}
			for _, p := range sp.Pushed {
				if strings.Contains(p, " IN (") {
					residual++
				}
			}
		}
	}
	if served == 0 || residual == 0 {
		t.Fatalf("long IN lists: %d index-served, %d residual scans; want both", served, residual)
	}
	queries = append(queries, longIn...)

	var wg sync.WaitGroup
	const workers = 4
	errc := make(chan error, len(queries))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(queries); i += workers {
				if err := checkEquivalent(db, queries[i]); err != nil {
					errc <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// longInQueries generates the IN-list shapes semi-join reduction ships:
// lists of 1 to 1 100 literals, some served by the index (the scan's
// first IN conjunct) and some residual (behind an equality probe, a second
// IN, or on the small person table's non-key column), so both the probe
// union and the compiled membership test run against the reference. The
// literals mix ints around the column's domain with integral and
// fractional floats, NULLs and numeric-looking strings that never match.
func longInQueries() []string {
	rng := rand.New(rand.NewSource(29))
	list := func(col string, lo, hi int) string {
		parts := make([]string, 1+rng.Intn(1100))
		for i := range parts {
			x := lo + rng.Intn(hi-lo+1)
			switch rng.Intn(10) {
			case 0:
				parts[i] = "NULL"
			case 1:
				parts[i] = fmt.Sprintf("%d.0", x)
			case 2:
				parts[i] = fmt.Sprintf("%d.5", x)
			case 3:
				parts[i] = fmt.Sprintf("'%d'", x)
			default:
				parts[i] = fmt.Sprint(x)
			}
		}
		return col + " IN (" + strings.Join(parts, ", ") + ")"
	}
	names := func() string {
		parts := make([]string, 1+rng.Intn(1100))
		for i := range parts {
			parts[i] = fmt.Sprintf("'p%d %s'", rng.Intn(140), []string{"dark", "river", "storm", "night"}[rng.Intn(4)])
		}
		return "person.name IN (" + strings.Join(parts, ", ") + ")"
	}
	shapes := []func() string{
		func() string { return "SELECT * FROM movie WHERE " + list("movie.movie_id", -5, 420) },
		func() string {
			return "SELECT movie.title, movie.year FROM movie WHERE " + list("movie.movie_id", 1, 360) +
				" AND " + list("movie.year", 1955, 2025)
		},
		func() string {
			return fmt.Sprintf("SELECT movie.title FROM movie WHERE movie.genre = 'drama' AND %s", list("movie.rating", 0, 10))
		},
		func() string {
			return `SELECT movie.title, cast_info.role FROM movie
				JOIN cast_info ON cast_info.movie_id = movie.movie_id WHERE ` + list("cast_info.movie_id", 1, 360)
		},
		func() string {
			return `SELECT movie.title, cast_info.role FROM movie
				LEFT JOIN cast_info ON cast_info.movie_id = movie.movie_id WHERE ` + list("movie.year", 1955, 2025)
		},
		func() string {
			return `SELECT person.name, cast_info.role FROM person
				JOIN cast_info ON cast_info.person_id = person.person_id WHERE ` + names() +
				" AND " + list("cast_info.cast_id", 1, 820)
		},
	}
	out := make([]string, 0, 36)
	for i := 0; i < 36; i++ {
		q := shapes[i%len(shapes)]()
		if rng.Intn(3) == 0 {
			q = strings.Replace(q, "SELECT ", "SELECT DISTINCT ", 1)
		}
		out = append(out, q)
	}
	return out
}

// narrowDB builds the fixture for index-narrowed scans. fact (400 rows,
// narrowing limit 100) has grp groups of exactly 50, 49 and 51 rows for
// values 0, 1 and 2, so probe sets land just under, exactly at and over
// the limit; dim (40 rows, below LazyIndexThreshold and so never narrowed
// itself) repeats its k values, has NULL ks, and carries f as an integral
// FLOAT for even ids and a fractional one for odd ids.
func narrowDB(t testing.TB) *relational.Database {
	t.Helper()
	s := relational.NewSchema()
	for _, ts := range []*relational.TableSchema{
		{
			Name: "dim",
			Columns: []relational.Column{
				{Name: "id", Type: relational.TypeInt, NotNull: true},
				{Name: "k", Type: relational.TypeInt},
				{Name: "f", Type: relational.TypeFloat},
				{Name: "name", Type: relational.TypeString, NotNull: true},
			},
			PrimaryKey: "id",
		},
		{
			Name: "fact",
			Columns: []relational.Column{
				{Name: "id", Type: relational.TypeInt, NotNull: true},
				{Name: "dim_id", Type: relational.TypeInt},
				{Name: "grp", Type: relational.TypeInt},
				{Name: "score", Type: relational.TypeFloat},
				{Name: "note", Type: relational.TypeString},
			},
			PrimaryKey:  "id",
			ForeignKeys: []relational.ForeignKey{{Column: "dim_id", RefTable: "dim", RefColumn: "id"}},
		},
	} {
		if err := s.AddTable(ts); err != nil {
			t.Fatal(err)
		}
	}
	db := relational.MustNewDatabase("narrow", s)
	I, F, S, N := relational.Int, relational.Float, relational.String_, relational.Null
	for i := 1; i <= 40; i++ {
		k := relational.Value(I(int64((i - 1) % 12)))
		f := relational.Value(F(float64((i-1)%12) + 0.5))
		if i%2 == 0 {
			f = F(float64((i - 1) % 12))
		}
		if i%7 == 0 {
			k, f = N(), N()
		}
		if err := db.Insert("dim", relational.Row{I(int64(i)), k, f, S(fmt.Sprintf("d%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 400; i++ {
		var grp relational.Value
		switch {
		case i < 50:
			grp = I(0)
		case i < 99:
			grp = I(1)
		case i < 150:
			grp = I(2)
		case i%13 == 0:
			grp = N()
		default:
			grp = I(int64(3 + i%9))
		}
		dimID := relational.Value(I(int64(1 + i%40)))
		if i%11 == 0 {
			dimID = N()
		}
		row := relational.Row{I(int64(i)), dimID, grp, F(float64(i % 15)), S(fmt.Sprintf("n%d", i%5))}
		if err := db.Insert("fact", row); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// executeWide runs stmt through the planned executor with narrowing off:
// the row sequence a narrowed execution must reproduce exactly.
func executeWide(db *relational.Database, stmt *SelectStmt) (*Result, error) {
	p, err := planSelect(db, stmt)
	if err != nil {
		return nil, err
	}
	rc := p.newRunCounts()
	rc.noNarrow = true
	return collect(&relation{cols: p.outCols}, stmt, func(yield func(relational.Row) error) error {
		return p.run(db, rc, yield)
	}, len(p.steps) > 0)
}

// orderedRows renders a result's rows in emission order.
func orderedRows(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		var b strings.Builder
		for _, v := range r {
			b.WriteString(v.Key())
			b.WriteByte('|')
		}
		out[i] = b.String()
	}
	return out
}

// narrowedScans lists "table.column" for every scan an execution narrowed.
func narrowedScans(res *Result) []string {
	var out []string
	for _, sp := range res.Plan.Scans {
		if sp.NarrowedVia != "" {
			out = append(out, sp.Table+"."+sp.NarrowedVia)
		}
	}
	return out
}

// TestPlannerEquivalenceNarrowed pins index-narrowed scans on both sides
// of the hash join and at their edges. Each statement must narrow exactly
// the expected scan, emit exactly the row sequence of the same plan run
// without narrowing (so LIMIT, OFFSET and Exists see the same prefix), and
// agree with the full-scan reference interpreter.
func TestPlannerEquivalenceNarrowed(t *testing.T) {
	db := narrowDB(t)
	for _, tc := range []struct {
		src    string
		narrow string // "table.column" narrowed, "" for a full read
	}{
		// (b) build-right at step 0: the small right side narrows the base scan.
		{`SELECT fact.id, dim.name FROM fact JOIN dim ON dim.k = fact.grp WHERE dim.id IN (1, 2)`, "fact.grp"},     // 99 candidates
		{`SELECT fact.id, dim.name FROM fact JOIN dim ON dim.k = fact.grp WHERE dim.id IN (2, 3)`, ""},             // 100: at the limit
		{`SELECT fact.id, dim.name FROM fact JOIN dim ON dim.k = fact.grp WHERE dim.id IN (1, 13)`, "fact.grp"},    // duplicate build keys
		{`SELECT fact.id, dim.name FROM fact JOIN dim ON dim.k = fact.grp WHERE dim.id IN (1, 2, 13)`, ""},         // repeat counted twice
		{`SELECT fact.id, dim.name FROM fact JOIN dim ON dim.k = fact.grp WHERE dim.id IN (1, 7, 14)`, "fact.grp"}, // NULL build keys
		{`SELECT fact.id FROM fact JOIN dim ON dim.k = fact.grp WHERE dim.id IN (7, 14)`, "fact.grp"},              // only NULLs: empty
		{`SELECT fact.id, dim.f FROM fact JOIN dim ON dim.f = fact.grp WHERE dim.id IN (2, 4)`, "fact.grp"},        // INT vs integral FLOAT
		{`SELECT fact.id FROM fact JOIN dim ON dim.f = fact.grp WHERE dim.id IN (3, 5)`, "fact.grp"},               // fractional FLOAT: no match
		{`SELECT fact.id, dim.name FROM fact JOIN dim ON dim.k = fact.grp AND dim.id = fact.dim_id
			WHERE dim.id IN (1, 2)`, "fact.grp"}, // multi-column: narrowed on the first key only
		{`SELECT fact.id, dim.name FROM fact JOIN dim ON dim.id = fact.dim_id AND dim.k = fact.grp
			WHERE dim.id IN (1, 2, 13)`, "fact.dim_id"},
		{`SELECT fact.id FROM fact JOIN dim ON dim.k = fact.grp
			WHERE dim.id IN (1, 2) AND fact.note LIKE 'n1%' AND fact.note <> 'n3'`, "fact.grp"}, // pushed on narrowed side
		{`SELECT fact.id FROM fact JOIN dim ON dim.k = fact.grp
			WHERE dim.id IN (1, 2) AND fact.score + 1 > 3`, ""}, // interpreted pushed conjunct: read in full
		{`SELECT fact.id, dim.name FROM fact LEFT JOIN dim ON dim.k = fact.grp AND dim.id IN (1, 2)`, ""}, // LEFT: preserved side
		{`SELECT fact.id, dim.name FROM fact LEFT JOIN dim ON dim.k = fact.grp WHERE dim.id IN (1, 2)`, ""},
		{`SELECT fact.id, dim.name FROM fact LEFT JOIN dim ON dim.id = fact.id`, ""}, // inner would narrow: 40 candidates
		{`SELECT fact.id, dim.name FROM fact JOIN dim ON dim.id = fact.id`, "fact.id"},
		// (a) build-left: the small left side narrows the right probe scan.
		{`SELECT dim.name, fact.id FROM dim JOIN fact ON fact.grp = dim.k WHERE dim.id IN (1, 2)`, "fact.grp"},
		{`SELECT dim.name, fact.id FROM dim JOIN fact ON fact.grp = dim.k WHERE dim.id IN (2, 3)`, ""},
		{`SELECT dim.name, fact.id FROM dim JOIN fact ON fact.grp = dim.k WHERE dim.id IN (1, 7, 13)`, "fact.grp"},
		{`SELECT dim.name, fact.id FROM dim JOIN fact ON fact.score = dim.k WHERE dim.id IN (2, 5)`, "fact.score"}, // FLOAT column, INT keys
		{`SELECT dim.name, fact.id FROM dim JOIN fact ON fact.grp = dim.k
			WHERE dim.id IN (1, 2) AND fact.note IS NOT NULL AND fact.note LIKE '%2'`, "fact.grp"},
		{`SELECT dim.name, fact.id FROM dim JOIN fact ON fact.grp = dim.k AND fact.dim_id = dim.id
			WHERE dim.id IN (1, 2)`, "fact.grp"},
		// Reordered three-way join: the IN-selected dim drives, fact is
		// probed build-left through its FK index.
		{`SELECT d.name, fact.id, d2.name FROM fact JOIN dim d ON d.id = fact.dim_id
			JOIN dim d2 ON d2.k = fact.grp WHERE d.id IN (3, 4)`, "fact.dim_id"},
	} {
		for _, suffix := range []string{"", " LIMIT 3", " LIMIT 2 OFFSET 4", " LIMIT 5 OFFSET 1000"} {
			src := tc.src + suffix
			if err := checkEquivalent(db, src); err != nil {
				t.Error(err)
				continue
			}
			stmt, err := Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Execute(db, stmt)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			want, err := executeWide(db, stmt)
			if err != nil {
				t.Fatalf("%s (wide): %v", src, err)
			}
			if g, w := orderedRows(got), orderedRows(want); strings.Join(g, "\n") != strings.Join(w, "\n") {
				t.Errorf("%s: narrowed rows differ from the full read:\n  got  %v\n  want %v", src, g, w)
			}
			exists, err := Exists(db, stmt)
			if err != nil {
				t.Fatal(err)
			}
			if exists != (len(want.Rows) > 0) {
				t.Errorf("%s: Exists=%v over %d rows", src, exists, len(want.Rows))
			}
			if n := strings.Join(narrowedScans(got), ","); n != tc.narrow {
				t.Errorf("%s: narrowed %q, want %q\n%s", src, n, tc.narrow, renderPlan(db, stmt, got.Plan))
			}
		}
	}
}

// TestNarrowedScanProperty checks streamNarrowed against its definition
// over random keys (INT, integral and fractional FLOAT, NULL) on both
// sides: a narrowed scan emits exactly the table's rows, in ordinal order,
// whose key column key-equals some probe value; a scan that falls back
// emits every row, and a scan must fall back once the distinct candidates
// alone reach the limit.
func TestNarrowedScanProperty(t *testing.T) {
	s := relational.NewSchema()
	if err := s.AddTable(&relational.TableSchema{
		Name:       "t",
		Columns:    []relational.Column{{Name: "id", Type: relational.TypeInt, NotNull: true}, {Name: "k", Type: relational.TypeFloat}},
		PrimaryKey: "id",
	}); err != nil {
		t.Fatal(err)
	}
	db := relational.MustNewDatabase("prop", s)
	rng := rand.New(rand.NewSource(5))
	randKey := func() relational.Value {
		switch rng.Intn(6) {
		case 0:
			return relational.Null()
		case 1:
			return relational.Float(float64(rng.Intn(40)) + 0.5)
		case 2:
			return relational.Float(float64(rng.Intn(40)))
		}
		return relational.Int(int64(rng.Intn(40)))
	}
	for i := 0; i < 600; i++ {
		if err := db.Insert("t", relational.Row{relational.Int(int64(i)), randKey()}); err != nil {
			t.Fatal(err)
		}
	}
	tbl := db.Table("t")
	n := &scanNode{access: AccessFullScan, vecOK: true}
	p := &plannedQuery{base: n}
	for iter := 0; iter < 200; iter++ {
		probes := make([]relational.Row, rng.Intn(30))
		keys := make(map[string]bool)
		for i := range probes {
			probes[i] = relational.Row{randKey()}
			if !probes[i][0].IsNull() {
				keys[probes[i][0].Key()] = true
			}
		}
		var want []relational.Row
		for _, r := range tbl.Rows() {
			if !r[1].IsNull() && keys[r[1].Key()] {
				want = append(want, r)
			}
		}
		rc := &runCounts{scans: make([]int, 1), narrowed: make([]string, 1)}
		var got []relational.Row
		if err := p.streamNarrowed(0, n, tbl, 1, probes, 0, rc, func(r relational.Row) error {
			got = append(got, r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if rc.narrowed[0] == "" {
			want = tbl.Rows()
		} else if len(want) >= tbl.Len()/narrowDivisor {
			t.Fatalf("narrowed with %d distinct candidates, limit %d", len(want), tbl.Len()/narrowDivisor)
		}
		if len(got) != len(want) {
			t.Fatalf("probes %v: %d rows, want %d", probes, len(got), len(want))
		}
		for i := range got {
			if got[i][0] != want[i][0] {
				t.Fatalf("probes %v: row %d is id %v, want %v", probes, i, got[i][0], want[i][0])
			}
		}
	}
}
