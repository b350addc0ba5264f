package sql

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/relational"
)

// TableFragment is the per-table unit of distributed execution: the part of
// a statement a remote backend can run entirely on its own rows. The
// coordinator ships Stmt — `SELECT * FROM <table> [WHERE <pushed
// conjuncts>]`, or only the table's join-key columns for an existence
// probe (ExistsFragments) — to every backend holding a partition of the
// table, gathers the (already filtered) rows, and finishes joins, residual
// predicates, projection, ordering and limits itself (ExecuteRows), or
// decides existence with one semi-join pass (SemiJoinExists). Stmt.SQL()
// is the fragment's wire form; any engine that can answer a single-table
// SELECT can serve it.
type TableFragment struct {
	// Ref is the FROM/JOIN table reference the fragment covers, alias
	// included so pushed conjuncts resolve on the backend exactly as they
	// did in the original statement.
	Ref TableRef
	// Cols lists the schema ordinals of the columns the fragment ships, in
	// shipped order; nil ships every column (`SELECT *`). Pos maps an
	// ordinal to its position in a shipped row.
	Cols []int
	// Stmt is the executable fragment: Cols (or *) over Ref with the
	// pushed conjuncts as its WHERE. It is freshly built per Fragments
	// call and owned by the caller.
	Stmt *SelectStmt
	// Pushed lists the WHERE conjuncts the fragment evaluates remotely,
	// followed by any semi-join restriction (Restrict). Conjuncts not
	// claimed by any fragment (multi-table, aggregate, unresolvable,
	// constant) remain the coordinator's responsibility.
	Pushed []Expr
	// PKValues is the partition-pruning hint: when the pushed conjuncts pin
	// the table's primary key to an equality literal or an IN list, these
	// are the only PK values any qualifying row can carry, so a
	// hash-partitioned deployment needs to consult only the shards those
	// values route to. nil means no restriction (consult every shard); an
	// empty non-nil slice means no row can qualify at all (an IN list of
	// NULLs) and every shard may be skipped.
	PKValues []relational.Value
}

// SQL renders the fragment's executable statement (the serialized form the
// coordinator ships to a backend).
func (f *TableFragment) SQL() string { return f.Stmt.SQL() }

// Pos returns the position, in a row the fragment ships, of the column at
// schema ordinal col: col itself for `SELECT *`, its index in Cols
// otherwise (-1 when the fragment does not ship it).
func (f *TableFragment) Pos(col int) int {
	if f.Cols == nil {
		return col
	}
	return slices.Index(f.Cols, col)
}

// ColumnRefs returns every column reference inside an expression, in
// traversal order. Exported for coordinators (internal/shard) that must
// apply the same resolution rules as the planner — one walker, not a
// drifting copy per consumer.
func ColumnRefs(e Expr) []*ColumnRef {
	var out []*ColumnRef
	collectRefs(e, &out)
	return out
}

// ContainsAggregate reports whether the expression contains an aggregate
// call (exported for the same reason as ColumnRefs).
func ContainsAggregate(e Expr) bool { return containsAgg(e) }

// fragmentRelation builds the resolver relation for one table reference
// from schema metadata alone (no row access — Fragments must work on a
// coordinator that holds no data).
func fragmentRelation(schema *relational.Schema, tr TableRef) (*relation, error) {
	ts := schema.Table(tr.Table)
	if ts == nil {
		return nil, fmt.Errorf("sql: unknown table %s", tr.Table)
	}
	binding := strings.ToLower(tr.Binding())
	rel := &relation{}
	for _, c := range ts.Columns {
		rel.cols = append(rel.cols, boundCol{
			binding: binding,
			name:    strings.ToLower(c.Name),
			display: tr.Binding() + "." + c.Name,
		})
	}
	return rel, nil
}

// Fragments splits a statement into its per-table pushdown fragments under
// the same legality rules the single-node planner applies: a WHERE conjunct
// is pushed into the fragment of the one table it references unless that
// table is null-extended by a LEFT join (evaluating the conjunct below the
// join would resurrect rows it must remove); aggregate, multi-table,
// constant and unresolvable conjuncts are left for the coordinator, which
// re-checks the full WHERE over the joined rows anyway — a pushed conjunct
// is a bandwidth optimization, never the only evaluation.
//
// Fragments come back in clause order (FROM first, then each JOIN), one per
// table reference, so the result aligns with stmt.Tables() and with the
// tables argument of ExecuteRows. Each is `SELECT *` (Cols nil);
// ExistsFragments narrows them to join-key columns.
func Fragments(schema *relational.Schema, stmt *SelectStmt) ([]TableFragment, error) {
	refs := stmt.Tables()
	frags := make([]TableFragment, len(refs))
	locals := make([]*relation, len(refs))
	full := &relation{}
	// nodeStart[i] is the ordinal in full.cols where table i's columns
	// begin; table i>0 was introduced by join i-1.
	nodeStart := make([]int, len(refs))
	for i, tr := range refs {
		local, err := fragmentRelation(schema, tr)
		if err != nil {
			return nil, err
		}
		locals[i] = local
		nodeStart[i] = len(full.cols)
		full.cols = append(full.cols, local.cols...)
		frags[i] = TableFragment{Ref: tr}
	}
	ownerNode := func(ord int) int {
		for i := len(nodeStart) - 1; i >= 0; i-- {
			if ord >= nodeStart[i] {
				return i
			}
		}
		return 0
	}

	if stmt.Where != nil {
		for _, c := range splitAnd(stmt.Where) {
			if containsAgg(c) {
				continue
			}
			var crefs []*ColumnRef
			collectRefs(c, &crefs)
			involved := map[int]bool{}
			resolvable := true
			for _, r := range crefs {
				ord, err := full.resolve(r)
				if err != nil {
					resolvable = false
					break
				}
				involved[ownerNode(ord)] = true
			}
			if !resolvable || len(involved) != 1 {
				continue
			}
			var single int
			for ni := range involved {
				single = ni
			}
			// LEFT-join legality: conjuncts on a null-extended table must
			// run above its join, i.e. at the coordinator.
			if single > 0 && stmt.Joins[single-1].Left {
				continue
			}
			frags[single].Pushed = append(frags[single].Pushed, c)
		}
	}

	for i := range frags {
		frags[i].Stmt = fragmentStmt(schema, &frags[i])
		frags[i].PKValues = pkRestriction(schema, locals[i], &frags[i])
	}
	return frags, nil
}

// fragmentStmt builds a fragment's executable statement: its Cols as plain
// column items (or * when Cols is nil) over the reference, with the pushed
// conjuncts as its WHERE.
func fragmentStmt(schema *relational.Schema, f *TableFragment) *SelectStmt {
	var where Expr
	if len(f.Pushed) > 0 {
		where = andAll(f.Pushed)
	}
	items := []SelectItem{{Star: true}}
	if f.Cols != nil {
		ts := schema.Table(f.Ref.Table)
		items = make([]SelectItem, len(f.Cols))
		for i, c := range f.Cols {
			items[i] = SelectItem{Expr: &ColumnRef{Table: f.Ref.Binding(), Column: ts.Columns[c].Name}}
		}
	}
	return &SelectStmt{
		Items: items,
		From:  f.Ref,
		Where: where,
		Limit: -1,
	}
}

// KeyEdge is one equi-join key between two table references of a
// statement: the column at schema ordinal ACol of stmt.Tables()[A] equals
// the column at ordinal BCol of stmt.Tables()[B].
type KeyEdge struct {
	A, ACol int
	B, BCol int
}

// InnerJoinKeys returns the equi-join keys linking a statement's table
// references when semi-join reduction of its fragments is sound: every
// join is inner, and every ON conjunct is a column equality that
// ExecuteRows' hash join takes as a join key. Then a gathered row can only
// reach the result through rows of every other table that key-equal it on
// each edge, and no ON residual is ever evaluated on a row the join would
// drop — so removing, from one fragment, the rows whose key matches no row
// of an adjacent fragment changes neither the result, its order, nor the
// errors raised. ok is false for single-table statements, LEFT joins, and
// ONs with any other conjunct.
//
// The classification is the one ExecuteRows applies: each ON is split
// against the relation accumulated by the joins before it, exactly as the
// reference interpreter's join does.
func InnerJoinKeys(schema *relational.Schema, stmt *SelectStmt) (edges []KeyEdge, ok bool) {
	if len(stmt.Joins) == 0 {
		return nil, false
	}
	accum, err := fragmentRelation(schema, stmt.From)
	if err != nil {
		return nil, false
	}
	starts := []int{0}
	for i, j := range stmt.Joins {
		if j.Left {
			return nil, false
		}
		right, err := fragmentRelation(schema, j.Table)
		if err != nil {
			return nil, false
		}
		lk, rk, residual := equiJoinKeys(accum, right, j.On)
		if len(residual) > 0 || len(lk) == 0 {
			return nil, false
		}
		for k := range lk {
			owner := len(starts) - 1
			for lk[k] < starts[owner] {
				owner--
			}
			edges = append(edges, KeyEdge{A: owner, ACol: lk[k] - starts[owner], B: i + 1, BCol: rk[k]})
		}
		starts = append(starts, len(accum.cols))
		accum.cols = append(accum.cols, right.cols...)
	}
	return edges, true
}

// ExistsFragments returns the fragments and join keys that decide a join
// statement's existence from its join-key columns alone, when that is
// exact: InnerJoinKeys vouches for the statement with one key per join
// (each join then links its table to one earlier table, so the keys form
// a spanning tree of the table references; composite keys are refused),
// every WHERE conjunct is pushed into a fragment, every select item is a
// star or a column of the joined tables, and neither an aggregate, GROUP
// BY, HAVING, OFFSET nor LIMIT 0 bears on the answer. Each fragment ships
// only its table's join-key columns (Cols, ascending ordinals), with no
// DISTINCT, and SemiJoinExists over the gathered rows answers what Exists
// answers over the union of the partitions. ORDER BY and a positive LIMIT
// do not change whether a row exists. ok is false for every other shape.
func ExistsFragments(schema *relational.Schema, stmt *SelectStmt) (frags []TableFragment, edges []KeyEdge, ok bool) {
	if len(stmt.GroupBy) > 0 || stmt.Having != nil || stmt.Offset != 0 || stmt.Limit == 0 {
		return nil, nil, false
	}
	for _, o := range stmt.OrderBy {
		if containsAgg(o.Expr) {
			return nil, nil, false
		}
	}
	edges, ok = InnerJoinKeys(schema, stmt)
	if !ok || len(edges) != len(stmt.Joins) {
		return nil, nil, false
	}
	frags, err := Fragments(schema, stmt)
	if err != nil {
		return nil, nil, false
	}
	full := &relation{}
	pushed := 0
	for i := range frags {
		local, _ := fragmentRelation(schema, frags[i].Ref) // resolved by Fragments
		full.cols = append(full.cols, local.cols...)
		pushed += len(frags[i].Pushed)
	}
	if stmt.Where != nil && pushed != len(splitAnd(stmt.Where)) {
		return nil, nil, false
	}
	for _, it := range stmt.Items {
		if it.Star {
			continue
		}
		cr, col := it.Expr.(*ColumnRef)
		if !col {
			return nil, nil, false
		}
		if _, err := full.resolve(cr); err != nil {
			return nil, nil, false
		}
	}
	for _, e := range edges {
		frags[e.A].Cols = append(frags[e.A].Cols, e.ACol)
		frags[e.B].Cols = append(frags[e.B].Cols, e.BCol)
	}
	for i := range frags {
		slices.Sort(frags[i].Cols)
		frags[i].Cols = slices.Compact(frags[i].Cols)
		frags[i].Stmt = fragmentStmt(schema, &frags[i])
	}
	return frags, edges, true
}

// SemiJoinExists decides whether the inner join described by
// ExistsFragments' fragments and edges has a row, given tables[i], the
// rows fragment i shipped. It roots the join tree at fragment 0 and makes
// one bottom-up semi-join pass (Yannakakis, VLDB 1981): each child's
// surviving rows are indexed on its key, and a parent row survives iff it
// has a partner in every child, so the join is non-empty iff a root row
// survives. Rows are paired exactly as ExecuteRows' hash join pairs them
// (equal joinKey hashes, then joinKeysEqual): a NULL key never matches,
// and INT, FLOAT and NaN keys match as they do in the join. The pass
// compacts each table's slice in place, so the caller's tables hold only
// surviving rows afterwards.
func SemiJoinExists(frags []TableFragment, edges []KeyEdge, tables [][]relational.Row) bool {
	// edges[j] links fragment j+1 (B) to its parent, an earlier fragment
	// (A), so walking the edges backwards reduces every child before its
	// parent.
	for j := len(edges) - 1; j >= 0; j-- {
		e := edges[j]
		pk, ck := []int{frags[e.A].Pos(e.ACol)}, []int{frags[e.B].Pos(e.BCol)}
		children := tables[e.B]
		index := buildIndex(children, ck)
		kept := tables[e.A][:0]
		for _, row := range tables[e.A] {
			h, null := joinKey(row, pk)
			if null {
				continue
			}
			for ci := index.first(h); ci >= 0; ci = index.next[ci] {
				if joinKeysEqual(row, pk, children[ci], ck) {
					kept = append(kept, row)
					break
				}
			}
		}
		if len(kept) == 0 {
			return false
		}
		tables[e.A] = kept
	}
	return len(tables[0]) > 0
}

// Restrict returns a copy of the fragment that also pushes `<col> IN
// (keys)`, col being a schema column ordinal of the fragment's table — the
// coordinator's semi-join reduction. The copy ships the same Cols. keys must be non-empty literals. When
// col is the primary key and the fragment had no tighter pin, keys become
// its PKValues, so partition pruning applies to the reduced fragment.
func (f TableFragment) Restrict(schema *relational.Schema, col int, keys []relational.Value) TableFragment {
	ts := schema.Table(f.Ref.Table)
	list := make([]Expr, len(keys))
	for i, k := range keys {
		list[i] = &Literal{Value: k}
	}
	in := &InExpr{
		Inner: &ColumnRef{Table: f.Ref.Binding(), Column: ts.Columns[col].Name},
		List:  list,
	}
	out := f
	out.Pushed = append(append(make([]Expr, 0, len(f.Pushed)+1), f.Pushed...), in)
	out.Stmt = fragmentStmt(schema, &out)
	if col == ts.ColumnIndex(ts.PrimaryKey) && (f.PKValues == nil || len(keys) < len(f.PKValues)) {
		out.PKValues = keys
	}
	return out
}

// pkRestriction inspects a fragment's pushed conjuncts for an equality or
// IN-list restriction on the table's primary key and returns the admissible
// PK values (see TableFragment.PKValues). The restriction is sound because
// pushed conjuncts are ANDed: any qualifying row satisfies all of them.
func pkRestriction(schema *relational.Schema, local *relation, f *TableFragment) []relational.Value {
	ts := schema.Table(f.Ref.Table)
	if ts == nil || ts.PrimaryKey == "" {
		return nil
	}
	pkOrd := ts.ColumnIndex(ts.PrimaryKey)
	for _, c := range f.Pushed {
		if ord, v, ok := localEqLiteral(local, c); ok && ord == pkOrd {
			return []relational.Value{v}
		}
		in, ok := c.(*InExpr)
		if !ok {
			continue
		}
		cr, ok := in.Inner.(*ColumnRef)
		if !ok {
			continue
		}
		if ord, err := local.resolve(cr); err != nil || ord != pkOrd {
			continue
		}
		vals := make([]relational.Value, 0, len(in.List))
		allLits := true
		for _, item := range in.List {
			l, isLit := item.(*Literal)
			if !isLit {
				allLits = false
				break
			}
			if l.Value.IsNull() {
				continue // NULL never equals the PK; contributes no shard
			}
			vals = append(vals, l.Value)
		}
		if allLits {
			return vals
		}
	}
	return nil
}

// ExecuteRows runs a statement over externally supplied base-table row
// sets — the coordinator half of distributed execution. tables[i] holds the
// rows standing in for stmt.Tables()[i] (positionally aligned with that
// table's schema columns, exactly what the matching TableFragment ships
// back); joins and the full WHERE run here with the reference
// interpreter's semantics and the statement tail as in Execute, so
// re-evaluating already-pushed conjuncts is redundant but harmless and the
// result is multiset-identical to single-node execution over the union of
// the partitions.
func ExecuteRows(schema *relational.Schema, stmt *SelectStmt, tables [][]relational.Row) (*Result, error) {
	refs := stmt.Tables()
	if len(tables) != len(refs) {
		return nil, fmt.Errorf("sql: ExecuteRows got %d row sets for %d tables", len(tables), len(refs))
	}
	rel, err := fragmentRelation(schema, refs[0])
	if err != nil {
		return nil, err
	}
	rel.rows = tables[0]
	for i, j := range stmt.Joins {
		right, err := fragmentRelation(schema, j.Table)
		if err != nil {
			return nil, err
		}
		right.rows = tables[i+1]
		rel, err = join(rel, right, j)
		if err != nil {
			return nil, err
		}
	}
	return collect(rel, stmt, func(yield func(relational.Row) error) error {
		for _, row := range rel.rows {
			if stmt.Where != nil {
				v, err := eval(rel, row, stmt.Where)
				if err != nil {
					return err
				}
				if !v.AsBool() {
					continue
				}
			}
			if err := yield(row); err != nil {
				return err
			}
		}
		return nil
	}, false)
}
