package core

import (
	"strings"
	"testing"
)

// buildFor runs the backward module and builder for a configuration against
// the standard fixture engine.
func buildFor(t *testing.T, e *Engine, c *Configuration) *Explanation {
	t.Helper()
	ins, err := e.Backward().TopK(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) == 0 {
		t.Fatal("no interpretation")
	}
	qb := NewQueryBuilder(e.Source().Schema())
	stmt, err := qb.Build(ins[0])
	if err != nil {
		t.Fatal(err)
	}
	return &Explanation{Config: c, Interpretation: ins[0], Stmt: stmt, SQL: stmt.SQL()}
}

func TestBuilderTwoKeywordsSameAttribute(t *testing.T) {
	e := fixtureEngine(t)
	c := &Configuration{
		Keywords: []string{"dark", "night"},
		Terms: []Term{
			{Kind: KindDomain, Table: "movie", Column: "title"},
			{Kind: KindDomain, Table: "movie", Column: "title"},
		},
		Score: 1,
	}
	ex := buildFor(t, e, c)
	// Both keywords must be ANDed on the same attribute.
	if !strings.Contains(ex.SQL, "MATCH 'dark'") || !strings.Contains(ex.SQL, "MATCH 'night'") {
		t.Fatalf("missing predicates: %s", ex.SQL)
	}
	if !strings.Contains(ex.SQL, "AND") {
		t.Fatalf("predicates not conjoined: %s", ex.SQL)
	}
	res, err := e.Execute(ex)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || !strings.Contains(res.Rows[0][0].AsString(), "dark night") {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestBuilderTableTermOnly(t *testing.T) {
	e := fixtureEngine(t)
	c := &Configuration{
		Keywords: []string{"film"},
		Terms:    []Term{{Kind: KindTable, Table: "movie"}},
		Score:    1,
	}
	ex := buildFor(t, e, c)
	// No WHERE clause: a table keyword selects structure, not values.
	if strings.Contains(ex.SQL, "WHERE") {
		t.Fatalf("table-only config must not have predicates: %s", ex.SQL)
	}
	if !strings.Contains(ex.SQL, "FROM movie") {
		t.Fatalf("wrong FROM: %s", ex.SQL)
	}
	res, err := e.Execute(ex)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("table scan returned nothing")
	}
}

func TestBuilderAttributeTermProjectsColumn(t *testing.T) {
	e := fixtureEngine(t)
	c := &Configuration{
		Keywords: []string{"title"},
		Terms:    []Term{{Kind: KindAttribute, Table: "movie", Column: "title"}},
		Score:    1,
	}
	ex := buildFor(t, e, c)
	if !strings.Contains(ex.SQL, "movie.title") {
		t.Fatalf("attribute term must be projected: %s", ex.SQL)
	}
	if strings.Contains(ex.SQL, "WHERE") {
		t.Fatalf("attribute term must not filter: %s", ex.SQL)
	}
}

func TestBuilderPhraseKeywordQuoting(t *testing.T) {
	e := fixtureEngine(t)
	c := &Configuration{
		Keywords: []string{"dark night"},
		Terms:    []Term{{Kind: KindDomain, Table: "movie", Column: "title"}},
		Score:    1,
	}
	ex := buildFor(t, e, c)
	if !strings.Contains(ex.SQL, "MATCH 'dark night'") {
		t.Fatalf("phrase keyword mangled: %s", ex.SQL)
	}
	res, err := e.Execute(ex)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("phrase match rows = %d", len(res.Rows))
	}
}

func TestBuilderDistinctAlwaysSet(t *testing.T) {
	e := fixtureEngine(t)
	c := &Configuration{
		Keywords: []string{"drama"},
		Terms:    []Term{{Kind: KindDomain, Table: "movie", Column: "genre"}},
		Score:    1,
	}
	ex := buildFor(t, e, c)
	if !strings.HasPrefix(ex.SQL, "SELECT DISTINCT") {
		t.Fatalf("generated SQL must deduplicate: %s", ex.SQL)
	}
}

func TestBuilderJoinOrderRootFirst(t *testing.T) {
	e := fixtureEngine(t)
	c := &Configuration{
		Keywords: []string{"spielberg", "drama"},
		Terms: []Term{
			{Kind: KindDomain, Table: "person", Column: "name"},
			{Kind: KindDomain, Table: "movie", Column: "genre"},
		},
		Score: 1,
	}
	ex := buildFor(t, e, c)
	// Every JOIN must reference a previously bound table (executability is
	// the real check, but also assert the shape).
	if _, err := e.Execute(ex); err != nil {
		t.Fatalf("join order broken: %v\n%s", err, ex.SQL)
	}
	if !strings.Contains(ex.SQL, "JOIN") {
		t.Fatalf("cross-table config must join: %s", ex.SQL)
	}
}
