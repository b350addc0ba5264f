package sql

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"sort"
	"strings"

	"repro/internal/relational"
)

// Result is a materialized query result. Plan records the execution plan
// the planner chose (access paths, join strategies, predicate placement)
// annotated with the cardinalities this execution actually observed next
// to the planner's estimates; it is nil for results produced by
// ExecuteFullScan. Rows are read-only: a bare single-table SELECT * holds
// the table's stored rows themselves.
type Result struct {
	Columns []string
	Rows    []relational.Row
	Plan    *QueryPlan
}

// String renders the result as an aligned text table (CLI output).
func (r *Result) String() string {
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	for i, c := range r.Columns {
		if i > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], c)
	}
	b.WriteString("\n")
	for i, w := range widths {
		if i > 0 {
			b.WriteString("-+-")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, row := range cells {
		for i, s := range row {
			if i > 0 {
				b.WriteString(" | ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], s)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// boundCol identifies one column of the working relation by its binding
// (table alias) and column name, both lower-cased.
type boundCol struct {
	binding string
	name    string
	display string
}

// relation is the executor's working set: bound columns plus rows.
type relation struct {
	cols []boundCol
	rows []relational.Row
}

func (r *relation) resolve(ref *ColumnRef) (int, error) {
	tbl := strings.ToLower(ref.Table)
	col := strings.ToLower(ref.Column)
	found := -1
	for i, c := range r.cols {
		if c.name != col {
			continue
		}
		if tbl != "" && c.binding != tbl {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("sql: ambiguous column reference %s", ref.SQL())
		}
		found = i
	}
	if found < 0 {
		return 0, fmt.Errorf("sql: unknown column %s", ref.SQL())
	}
	return found, nil
}

// Execute runs a parsed SELECT against the database and materializes the
// result. It is the single entry point the wrapper module uses. The FROM/
// WHERE part runs through the cost-aware planner (secondary-index access,
// predicate pushdown, build-side selection); the statement tail runs over
// the planned relation (see ExecuteStream).
func Execute(db *relational.Database, stmt *SelectStmt) (*Result, error) {
	p, err := planSelect(db, stmt)
	if err != nil {
		return nil, err
	}
	rc := p.newRunCounts()
	res, err := collect(&relation{cols: p.outCols}, stmt, func(yield func(relational.Row) error) error {
		return p.run(db, rc, yield)
	}, len(p.steps) > 0)
	if err != nil {
		return nil, err
	}
	res.Plan = p.describeActual(rc)
	return res, nil
}

// ExecuteFullScan runs the statement through the pre-planner interpreter:
// full scans, WHERE evaluated per joined row, build-right hash joins. It
// is retained as the reference implementation — the planner/interpreter
// equivalence suite and the benchmarks compare against it.
func ExecuteFullScan(db *relational.Database, stmt *SelectStmt) (*Result, error) {
	rel, err := buildFrom(db, stmt)
	if err != nil {
		return nil, err
	}
	if stmt.Where != nil {
		rel, err = filter(rel, stmt.Where)
		if err != nil {
			return nil, err
		}
	}
	return finish(rel, stmt)
}

// anyAgg reports whether any projection item aggregates.
func anyAgg(stmt *SelectStmt) bool {
	for _, it := range stmt.Items {
		if !it.Star && containsAgg(it.Expr) {
			return true
		}
	}
	return false
}

// finish applies projection, aggregation, DISTINCT, ordering and limits to
// the joined-and-filtered working relation.
func finish(rel *relation, stmt *SelectStmt) (*Result, error) {
	hasAgg := len(stmt.GroupBy) > 0 || anyAgg(stmt)

	type outRow struct {
		proj relational.Row
		keys []relational.Value // order-by keys
	}
	var out []outRow
	var columns []string

	if hasAgg {
		groups, err := groupRows(rel, stmt.GroupBy)
		if err != nil {
			return nil, err
		}
		columns = projectionColumns(rel, stmt)
		for _, g := range groups {
			if stmt.Having != nil {
				hv, err := evalAggregate(rel, g, stmt.Having)
				if err != nil {
					return nil, err
				}
				if !hv.AsBool() {
					continue
				}
			}
			proj, err := projectGroup(rel, g, stmt)
			if err != nil {
				return nil, err
			}
			keys, err := orderKeysGroup(rel, g, stmt, columns, proj)
			if err != nil {
				return nil, err
			}
			out = append(out, outRow{proj: proj, keys: keys})
		}
	} else {
		columns = projectionColumns(rel, stmt)
		for _, row := range rel.rows {
			proj, err := projectRow(rel, row, stmt)
			if err != nil {
				return nil, err
			}
			keys, err := orderKeysRow(rel, row, stmt, columns, proj)
			if err != nil {
				return nil, err
			}
			out = append(out, outRow{proj: proj, keys: keys})
		}
	}

	if stmt.Distinct {
		// Hash-keyed dedup: bucket by uint64 hash, verify with value
		// comparison on collision.
		seen := make(map[uint64][]relational.Row, len(out))
		dedup := out[:0]
		for _, o := range out {
			k := hashValues(o.proj)
			dup := false
			for _, prev := range seen[k] {
				if valuesEqual(prev, o.proj) {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			seen[k] = append(seen[k], o.proj)
			dedup = append(dedup, o)
		}
		out = dedup
	}

	if len(stmt.OrderBy) > 0 {
		sort.SliceStable(out, func(i, j int) bool {
			for k, ob := range stmt.OrderBy {
				c := relational.Compare(out[i].keys[k], out[j].keys[k])
				if c == 0 {
					continue
				}
				if ob.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}

	if stmt.Offset > 0 {
		if stmt.Offset >= len(out) {
			out = nil
		} else {
			out = out[stmt.Offset:]
		}
	}
	if stmt.Limit >= 0 && stmt.Limit < len(out) {
		out = out[:stmt.Limit]
	}

	res := &Result{Columns: columns, Rows: make([]relational.Row, len(out))}
	for i, o := range out {
		res.Rows[i] = o.proj
	}
	return res, nil
}

// Run parses and executes src in one step.
func Run(db *relational.Database, src string) (*Result, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Execute(db, stmt)
}

// keySeed is the process-wide seed for the executor's hash keys (join
// build sides, GROUP BY buckets, DISTINCT sets). A single seed keeps hashes
// comparable across relations within one process.
var keySeed = maphash.MakeSeed()

// hashValue folds one value into h using an encoding aligned with
// Value.Key() equality: integral floats hash like ints (3 joins 3.0),
// NULLs collapse to one tag, and a type tag keeps 1, "1" and true distinct.
func hashValue(h *maphash.Hash, v relational.Value) {
	var buf [9]byte
	switch v.Type() {
	case relational.TypeNull:
		h.WriteByte(0)
	case relational.TypeInt:
		buf[0] = 'i'
		binary.LittleEndian.PutUint64(buf[1:], uint64(v.AsInt()))
		h.Write(buf[:])
	case relational.TypeFloat:
		f := v.AsFloat()
		if f == float64(int64(f)) {
			buf[0] = 'i'
			binary.LittleEndian.PutUint64(buf[1:], uint64(int64(f)))
		} else {
			buf[0] = 'f'
			binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(f))
		}
		h.Write(buf[:])
	case relational.TypeString:
		h.WriteByte('s')
		h.WriteString(v.AsString())
	case relational.TypeBool:
		if v.AsBool() {
			h.WriteByte(2)
		} else {
			h.WriteByte(3)
		}
	}
	h.WriteByte(0x1f)
}

// hashValues returns the combined hash of a value sequence.
func hashValues(vs []relational.Value) uint64 {
	var h maphash.Hash
	h.SetSeed(keySeed)
	for _, v := range vs {
		hashValue(&h, v)
	}
	return h.Sum64()
}

// valuesEqual reports key equality of two value sequences under the same
// semantics the old string keys encoded: NULLs compare equal to each other
// (GROUP BY / DISTINCT semantics) and numerics compare by magnitude. It is
// the collision fallback behind every uint64 hash key.
func valuesEqual(a, b []relational.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if relational.Compare(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}

func buildFrom(db *relational.Database, stmt *SelectStmt) (*relation, error) {
	rel, err := baseRelation(db, stmt.From)
	if err != nil {
		return nil, err
	}
	for _, j := range stmt.Joins {
		right, err := baseRelation(db, j.Table)
		if err != nil {
			return nil, err
		}
		rel, err = join(rel, right, j)
		if err != nil {
			return nil, err
		}
	}
	return rel, nil
}

func baseRelation(db *relational.Database, tr TableRef) (*relation, error) {
	t := db.Table(tr.Table)
	if t == nil {
		return nil, fmt.Errorf("sql: unknown table %s", tr.Table)
	}
	binding := strings.ToLower(tr.Binding())
	rel := &relation{}
	for _, c := range t.Schema.Columns {
		rel.cols = append(rel.cols, boundCol{
			binding: binding,
			name:    strings.ToLower(c.Name),
			display: tr.Binding() + "." + c.Name,
		})
	}
	rel.rows = t.Rows()
	return rel, nil
}

// equiJoinKeys inspects an ON expression for `left.col = right.col`
// conjuncts usable by a hash join; remaining conjuncts become a residual
// filter.
func equiJoinKeys(left, right *relation, on Expr) (lk, rk []int, residual []Expr) {
	conjuncts := splitAnd(on)
	for _, c := range conjuncts {
		be, ok := c.(*BinaryExpr)
		if !ok || be.Op != OpEq {
			residual = append(residual, c)
			continue
		}
		lref, lok := be.Left.(*ColumnRef)
		rref, rok := be.Right.(*ColumnRef)
		if !lok || !rok {
			residual = append(residual, c)
			continue
		}
		li, lerr := left.resolve(lref)
		ri, rerr := right.resolve(rref)
		if lerr == nil && rerr == nil {
			lk = append(lk, li)
			rk = append(rk, ri)
			continue
		}
		// Maybe written right-to-left.
		li2, lerr2 := left.resolve(rref)
		ri2, rerr2 := right.resolve(lref)
		if lerr2 == nil && rerr2 == nil {
			lk = append(lk, li2)
			rk = append(rk, ri2)
			continue
		}
		residual = append(residual, c)
	}
	return lk, rk, residual
}

func splitAnd(e Expr) []Expr {
	if be, ok := e.(*BinaryExpr); ok && be.Op == OpAnd {
		return append(splitAnd(be.Left), splitAnd(be.Right)...)
	}
	return []Expr{e}
}

func join(left, right *relation, jc JoinClause) (*relation, error) {
	out := &relation{cols: append(append([]boundCol{}, left.cols...), right.cols...)}
	lk, rk, residual := equiJoinKeys(left, right, jc.On)

	evalResidual := func(row relational.Row) (bool, error) {
		for _, r := range residual {
			v, err := eval(out, row, r)
			if err != nil {
				return false, err
			}
			if !v.AsBool() {
				return false, nil
			}
		}
		return true, nil
	}

	appendJoined := func(lrow, rrow relational.Row) {
		row := make(relational.Row, 0, len(lrow)+len(rrow))
		row = append(row, lrow...)
		row = append(row, rrow...)
		out.rows = append(out.rows, row)
	}

	if len(lk) > 0 {
		// Hash join: build on the right side with uint64 keys; equality of
		// the key columns is re-verified per candidate, so hash collisions
		// cannot produce spurious matches.
		build := buildIndex(right.rows, rk)
		for _, lrow := range left.rows {
			k, null := joinKey(lrow, lk)
			matched := false
			if !null {
				for ri := build.first(k); ri >= 0; ri = build.next[ri] {
					if !joinKeysEqual(lrow, lk, right.rows[ri], rk) {
						continue
					}
					cand := make(relational.Row, 0, len(lrow)+len(right.rows[ri]))
					cand = append(cand, lrow...)
					cand = append(cand, right.rows[ri]...)
					ok, err := evalResidual(cand)
					if err != nil {
						return nil, err
					}
					if ok {
						out.rows = append(out.rows, cand)
						matched = true
					}
				}
			}
			if jc.Left && !matched {
				appendJoined(lrow, nullRow(len(right.cols)))
			}
		}
		return out, nil
	}

	// Nested loop with full ON evaluation.
	for _, lrow := range left.rows {
		matched := false
		for _, rrow := range right.rows {
			cand := make(relational.Row, 0, len(lrow)+len(rrow))
			cand = append(cand, lrow...)
			cand = append(cand, rrow...)
			v, err := eval(out, cand, jc.On)
			if err != nil {
				return nil, err
			}
			if v.AsBool() {
				out.rows = append(out.rows, cand)
				matched = true
			}
		}
		if jc.Left && !matched {
			appendJoined(lrow, nullRow(len(right.cols)))
		}
	}
	return out, nil
}

// joinKey hashes the join-key columns of a row; the bool reports a NULL key
// (NULL never joins).
func joinKey(row relational.Row, ords []int) (uint64, bool) {
	var h maphash.Hash
	h.SetSeed(keySeed)
	for _, o := range ords {
		if row[o].IsNull() {
			return 0, true
		}
		hashValue(&h, row[o])
	}
	return h.Sum64(), false
}

// joinKeysEqual verifies that the key columns of a probe row and a build row
// really are equal (collision fallback for the uint64 join keys).
func joinKeysEqual(lrow relational.Row, lk []int, rrow relational.Row, rk []int) bool {
	for i := range lk {
		if relational.Compare(lrow[lk[i]], rrow[rk[i]]) != 0 {
			return false
		}
	}
	return true
}

func nullRow(n int) relational.Row {
	r := make(relational.Row, n)
	return r
}

func filter(rel *relation, where Expr) (*relation, error) {
	out := &relation{cols: rel.cols}
	for _, row := range rel.rows {
		v, err := eval(rel, row, where)
		if err != nil {
			return nil, err
		}
		if v.AsBool() {
			out.rows = append(out.rows, row)
		}
	}
	return out, nil
}

func containsAgg(e Expr) bool {
	switch x := e.(type) {
	case *AggExpr:
		return true
	case *BinaryExpr:
		return containsAgg(x.Left) || containsAgg(x.Right)
	case *NotExpr:
		return containsAgg(x.Inner)
	case *IsNullExpr:
		return containsAgg(x.Inner)
	case *InExpr:
		if containsAgg(x.Inner) {
			return true
		}
		for _, i := range x.List {
			if containsAgg(i) {
				return true
			}
		}
	}
	return false
}

type group struct {
	rows []relational.Row
}

func groupRows(rel *relation, by []Expr) ([]*group, error) {
	if len(by) == 0 {
		// Single global group (possibly empty, which still yields one group
		// so COUNT(*) over an empty input returns 0).
		return []*group{{rows: rel.rows}}, nil
	}
	// Hash-keyed grouping: buckets hold the evaluated key values alongside
	// the group, so a collision degrades to a short equality scan instead of
	// a wrong merge. First-appearance order is preserved.
	type slot struct {
		keys []relational.Value
		g    *group
	}
	idx := make(map[uint64][]*slot)
	var order []*group
	keyVals := make([]relational.Value, len(by))
	for _, row := range rel.rows {
		for i, e := range by {
			v, err := eval(rel, row, e)
			if err != nil {
				return nil, err
			}
			keyVals[i] = v
		}
		k := hashValues(keyVals)
		var g *group
		for _, s := range idx[k] {
			if valuesEqual(s.keys, keyVals) {
				g = s.g
				break
			}
		}
		if g == nil {
			g = &group{}
			idx[k] = append(idx[k], &slot{keys: append([]relational.Value(nil), keyVals...), g: g})
			order = append(order, g)
		}
		g.rows = append(g.rows, row)
	}
	return order, nil
}

// ItemColumnName renders a non-star projection item's output column name
// — explicit alias, a column reference's written form, or the positional
// "colN" fallback. Exported so distributed coordinators (internal/shard's
// aggregate merge) name their synthesized results with exactly the
// reference interpreter's rule instead of a drifting copy.
func ItemColumnName(it SelectItem, i int) string {
	if it.Alias != "" {
		return it.Alias
	}
	if cr, ok := it.Expr.(*ColumnRef); ok {
		return cr.SQL()
	}
	return fmt.Sprintf("col%d", i+1)
}

func projectionColumns(rel *relation, stmt *SelectStmt) []string {
	var out []string
	for i, it := range stmt.Items {
		if it.Star {
			for _, c := range rel.cols {
				out = append(out, c.display)
			}
			continue
		}
		out = append(out, ItemColumnName(it, i))
	}
	return out
}

func projectRow(rel *relation, row relational.Row, stmt *SelectStmt) (relational.Row, error) {
	width := 0
	for _, it := range stmt.Items {
		if it.Star {
			width += len(row)
		} else {
			width++
		}
	}
	out := make(relational.Row, 0, width)
	for _, it := range stmt.Items {
		if it.Star {
			out = append(out, row...)
			continue
		}
		v, err := eval(rel, row, it.Expr)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func projectGroup(rel *relation, g *group, stmt *SelectStmt) (relational.Row, error) {
	var out relational.Row
	for _, it := range stmt.Items {
		if it.Star {
			return nil, fmt.Errorf("sql: SELECT * is not valid with aggregation")
		}
		v, err := evalAggregate(rel, g, it.Expr)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func orderKeysRow(rel *relation, row relational.Row, stmt *SelectStmt, columns []string, proj relational.Row) ([]relational.Value, error) {
	keys := make([]relational.Value, len(stmt.OrderBy))
	for i, ob := range stmt.OrderBy {
		v, err := eval(rel, row, ob.Expr)
		if err != nil {
			// Fall back to output aliases.
			av, aerr := aliasValue(columns, proj, ob.Expr)
			if aerr != nil {
				return nil, err
			}
			v = av
		}
		keys[i] = v
	}
	return keys, nil
}

func orderKeysGroup(rel *relation, g *group, stmt *SelectStmt, columns []string, proj relational.Row) ([]relational.Value, error) {
	keys := make([]relational.Value, len(stmt.OrderBy))
	for i, ob := range stmt.OrderBy {
		v, err := evalAggregate(rel, g, ob.Expr)
		if err != nil {
			av, aerr := aliasValue(columns, proj, ob.Expr)
			if aerr != nil {
				return nil, err
			}
			v = av
		}
		keys[i] = v
	}
	return keys, nil
}

func aliasValue(columns []string, proj relational.Row, e Expr) (relational.Value, error) {
	cr, ok := e.(*ColumnRef)
	if !ok || cr.Table != "" {
		return relational.Null(), fmt.Errorf("sql: cannot order by %s", e.SQL())
	}
	for i, c := range columns {
		if strings.EqualFold(c, cr.Column) {
			return proj[i], nil
		}
	}
	return relational.Null(), fmt.Errorf("sql: unknown order key %s", cr.Column)
}
