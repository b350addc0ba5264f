package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/relational"
	"repro/internal/sql"
)

// Explanation is QUEST's final output unit: a configuration (keyword →
// term mapping), an interpretation (join path), the combined Dempster–
// Shafer belief, and the SQL query the pair denotes.
//
// Belief is the caller's own. Config, Interpretation and Stmt are shared
// with the engine's query cache, and so with every later search that hits
// it, so they are read-only: a caller that wants a changed statement (a
// LIMIT, say) runs a Stmt.Clone().
type Explanation struct {
	Config         *Configuration
	Interpretation *Interpretation
	Belief         float64
	Stmt           *sql.SelectStmt
	SQL            string
}

// ID identifies the explanation (same identity as its interpretation:
// configuration + join tree).
func (e *Explanation) ID() string { return e.Interpretation.ID() }

// QueryBuilder renders (configuration, interpretation) pairs into SQL.
type QueryBuilder struct {
	schema *relational.Schema
	// UseLike switches value predicates from MATCH to LIKE '%kw%' for
	// engines without full-text support.
	UseLike bool
}

// NewQueryBuilder returns a builder over the given schema.
func NewQueryBuilder(schema *relational.Schema) *QueryBuilder {
	return &QueryBuilder{schema: schema}
}

// Build renders one explanation's SQL statement:
//
//   - FROM/JOIN follows the interpretation tree's FK edges (a walk rooted
//     at the tree root's table, adding one JOIN per edge);
//   - WHERE gets one `attr MATCH 'kw'` predicate per domain-mapped keyword
//     (LIKE when UseLike);
//   - SELECT projects the keyword-bound attributes plus the primary key of
//     every joined table, deduplicated, in deterministic order.
func (qb *QueryBuilder) Build(in *Interpretation) (*sql.SelectStmt, error) {
	c := in.Config

	// Tables spanned by the tree, plus tables of terms (a single-table
	// configuration may have an empty tree).
	tableSet := make(map[string]bool)
	for _, t := range in.Tables() {
		tableSet[strings.ToLower(t)] = true
	}
	for _, t := range c.Terms {
		tableSet[strings.ToLower(t.Table)] = true
	}
	if len(tableSet) == 0 {
		return nil, fmt.Errorf("core: explanation touches no tables")
	}

	// Root table: table of the tree root vertex when present, else the
	// first term's table.
	var rootTable string
	if in.Tree != nil && in.Graph != nil {
		name := in.Graph.Name(in.Tree.Root)
		if i := strings.IndexByte(name, '.'); i > 0 {
			rootTable = name[:i]
		}
	}
	if rootTable == "" {
		rootTable = strings.ToLower(c.Terms[0].Table)
	}

	stmt := &sql.SelectStmt{Limit: -1, Distinct: true}
	stmt.From = sql.TableRef{Table: qb.canonicalTable(rootTable)}

	// Order join steps as a BFS from the root table over the tree's FK
	// edges so every JOIN references an already-bound table.
	joined := map[string]bool{strings.ToLower(rootTable): true}
	steps := in.JoinSteps()
	remaining := append([][4]string(nil), steps...)
	for len(remaining) > 0 {
		progress := false
		var next [][4]string
		for _, s := range remaining {
			ft, fc, tt, tc := strings.ToLower(s[0]), s[1], strings.ToLower(s[2]), s[3]
			switch {
			case joined[ft] && !joined[tt]:
				stmt.Joins = append(stmt.Joins, qb.joinClause(tt, tc, ft, fc))
				joined[tt] = true
				progress = true
			case joined[tt] && !joined[ft]:
				stmt.Joins = append(stmt.Joins, qb.joinClause(ft, fc, tt, tc))
				joined[ft] = true
				progress = true
			case joined[ft] && joined[tt]:
				// Both already joined (tree edge closing within visited
				// set cannot happen in a tree; ignore defensively).
			default:
				next = append(next, s)
			}
		}
		if !progress {
			return nil, fmt.Errorf("core: interpretation tree is not connected to root %s", rootTable)
		}
		remaining = next
	}

	// WHERE: one predicate per domain-mapped keyword.
	var where sql.Expr
	for i, t := range c.Terms {
		if t.Kind != KindDomain || i >= len(c.Keywords) {
			continue
		}
		pred := qb.valuePredicate(t, c.Keywords[i])
		if where == nil {
			where = pred
		} else {
			where = &sql.BinaryExpr{Op: sql.OpAnd, Left: where, Right: pred}
		}
	}
	stmt.Where = where

	// SELECT list: keyword-bound attributes first, then PKs of joined
	// tables; deduplicated.
	type colref struct{ table, column string }
	var sel []colref
	seen := make(map[string]bool)
	add := func(table, column string) {
		key := strings.ToLower(table) + "." + strings.ToLower(column)
		if seen[key] {
			return
		}
		seen[key] = true
		sel = append(sel, colref{table: table, column: column})
	}
	for _, t := range c.Terms {
		if t.Kind == KindTable {
			continue
		}
		add(t.Table, t.Column)
	}
	var tables []string
	for t := range joined {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	for _, t := range tables {
		ts := qb.schema.Table(t)
		if ts == nil {
			continue
		}
		if ts.PrimaryKey != "" {
			add(ts.Name, ts.PrimaryKey)
		}
		// Add a representative label column so results are readable: the
		// first string attribute, if any.
		for _, col := range ts.Columns {
			if col.Type == relational.TypeString {
				add(ts.Name, col.Name)
				break
			}
		}
	}
	for _, cr := range sel {
		ts := qb.schema.Table(cr.table)
		name := cr.column
		if ts != nil {
			if col := ts.Column(cr.column); col != nil {
				name = col.Name
			}
		}
		stmt.Items = append(stmt.Items, sql.SelectItem{
			Expr: &sql.ColumnRef{Table: qb.canonicalTable(cr.table), Column: name},
		})
	}
	if len(stmt.Items) == 0 {
		stmt.Items = []sql.SelectItem{{Star: true}}
	}
	return stmt, nil
}

func (qb *QueryBuilder) canonicalTable(name string) string {
	if ts := qb.schema.Table(name); ts != nil {
		return ts.Name
	}
	return name
}

func (qb *QueryBuilder) canonicalColumn(table, column string) string {
	if ts := qb.schema.Table(table); ts != nil {
		if c := ts.Column(column); c != nil {
			return c.Name
		}
	}
	return column
}

func (qb *QueryBuilder) joinClause(newTable, newCol, boundTable, boundCol string) sql.JoinClause {
	return sql.JoinClause{
		Table: sql.TableRef{Table: qb.canonicalTable(newTable)},
		On: &sql.BinaryExpr{
			Op: sql.OpEq,
			Left: &sql.ColumnRef{
				Table:  qb.canonicalTable(newTable),
				Column: qb.canonicalColumn(newTable, newCol),
			},
			Right: &sql.ColumnRef{
				Table:  qb.canonicalTable(boundTable),
				Column: qb.canonicalColumn(boundTable, boundCol),
			},
		},
	}
}

func (qb *QueryBuilder) valuePredicate(t Term, keyword string) sql.Expr {
	col := &sql.ColumnRef{
		Table:  qb.canonicalTable(t.Table),
		Column: qb.canonicalColumn(t.Table, t.Column),
	}
	// Numeric columns get equality when the keyword parses as a number.
	if ts := qb.schema.Table(t.Table); ts != nil {
		if c := ts.Column(t.Column); c != nil && (c.Type == relational.TypeInt || c.Type == relational.TypeFloat) {
			if v, err := relational.Coerce(relational.String_(keyword), c.Type); err == nil {
				return &sql.BinaryExpr{Op: sql.OpEq, Left: col, Right: &sql.Literal{Value: v}}
			}
		}
	}
	if qb.UseLike {
		return &sql.BinaryExpr{
			Op:    sql.OpLike,
			Left:  col,
			Right: &sql.Literal{Value: relational.String_("%" + keyword + "%")},
		}
	}
	return &sql.BinaryExpr{
		Op:    sql.OpMatch,
		Left:  col,
		Right: &sql.Literal{Value: relational.String_(keyword)},
	}
}

// RenderTree draws the portion of the database touched by an explanation as
// an ASCII graph: tables as boxes listing their bound attributes, joins as
// arrows — the "graphical representation of the portion of the database
// involved by the query" of the paper's fifth demonstration message.
func RenderTree(e *Explanation) string {
	in := e.Interpretation
	var b strings.Builder
	kwByAttr := make(map[string][]string)
	for i, t := range e.Config.Terms {
		if i >= len(e.Config.Keywords) {
			continue
		}
		key := strings.ToLower(t.Table) + "." + strings.ToLower(t.Column)
		if t.Kind == KindTable {
			key = strings.ToLower(t.Table)
		}
		kwByAttr[key] = append(kwByAttr[key], fmt.Sprintf("%q(%s)", e.Config.Keywords[i], t.Kind))
	}
	tables := in.Tables()
	if len(tables) == 0 {
		tables = e.Config.Tables()
	}
	for _, t := range tables {
		fmt.Fprintf(&b, "[%s]", t)
		if kws := kwByAttr[strings.ToLower(t)]; len(kws) > 0 {
			fmt.Fprintf(&b, " <= %s", strings.Join(kws, ", "))
		}
		b.WriteString("\n")
		verts := attrVerticesOf(in, t)
		for _, v := range verts {
			col := v[strings.IndexByte(v, '.')+1:]
			fmt.Fprintf(&b, "  .%s", col)
			if kws := kwByAttr[v]; len(kws) > 0 {
				fmt.Fprintf(&b, " <= %s", strings.Join(kws, ", "))
			}
			b.WriteString("\n")
		}
	}
	for _, s := range in.JoinSteps() {
		fmt.Fprintf(&b, "(%s.%s) ==JOIN== (%s.%s)\n", s[0], s[1], s[2], s[3])
	}
	return b.String()
}

func attrVerticesOf(in *Interpretation, table string) []string {
	var out []string
	seen := make(map[string]bool)
	collect := func(v int) {
		name := in.Graph.Name(v)
		if strings.HasPrefix(name, strings.ToLower(table)+".") && !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	if in.Tree != nil {
		for _, v := range in.Tree.Vertices() {
			collect(v)
		}
	}
	sort.Strings(out)
	return out
}
