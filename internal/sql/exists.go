package sql

import (
	"math"
	"slices"

	"repro/internal/relational"
)

// Existence by index walk. A candidate explanation is a Steiner tree, so
// the join of an eligible statement (every step an inner equi-join on one
// key column, see newExistsPlan) is acyclic, and deciding whether it has a
// row needs only semi-join checks, never a joined row (Yannakakis, VLDB
// 1981). The walk roots the join tree at the scan from which refuting the
// join is estimated to visit the fewest rows (walkCost) and asks, per root
// candidate, whether every child edge has a partner: has(child, key)
// probes the child's equality index, keeps the postings that are in the
// child's access-path ordinals, pass its compiled pushed conjuncts and
// qualify recursively, and stops at the first one.
// Verdicts are memoised per (node, key) within one call, so the work is
// linear in the rows probed.
//
// Index postings group values by Value.Key, which is coarser than the hash
// join's equality (every NaN shares one key; the join tells NaN payloads
// apart). Postings are therefore only candidates: each is confirmed with
// the hash join's own test, joinKey hash equality plus joinKeysEqual, so
// the walk joins exactly the pairs plannedQuery.stream would.

// Exists reports whether the statement yields at least one row without
// materializing the result. This is the execution mode behind validation
// queries (core's PruneEmpty): their cost stops scaling with result size.
// A plan with a join tree (newExistsPlan) is answered by the index walk,
// which builds no joined row; any other plan streams through the planned
// pipeline and the statement tail and stops at the tail's first row.
func Exists(db *relational.Database, stmt *SelectStmt) (bool, error) {
	if len(stmt.GroupBy) > 0 || anyAgg(stmt) {
		// Aggregation changes the row count (a global aggregate always
		// yields one row); rare for validation queries, so execute.
		res, err := Execute(db, stmt)
		if err != nil {
			return false, err
		}
		return len(res.Rows) > 0, nil
	}
	p, err := planSelect(db, stmt)
	if err != nil {
		return false, err
	}
	counters.existsFast.Add(1)
	if p.semi != nil {
		counters.existsSemi.Add(1)
		return p.existsWalk(db)
	}
	return p.existsStream(db, stmt)
}

// existsWalk answers Exists for a plan with a join tree (p.semi) by the
// index walk.
func (p *plannedQuery) existsWalk(db *relational.Database) (bool, error) {
	bt, err := p.bind(db)
	if err != nil {
		return false, err
	}
	return p.semi.exists(bt), nil
}

// existsStream answers Exists by running the statement tail until it
// emits a row. The tail ignores ORDER BY, so its keys are evaluated on the
// first pipeline row: a bad order key fails here as in Execute, and
// pruneEmpty marks the validation failed rather than empty.
func (p *plannedQuery) existsStream(db *relational.Database, stmt *SelectStmt) (bool, error) {
	rel := &relation{cols: p.outCols}
	checkOrder, found := len(stmt.OrderBy) > 0, false
	rows := func(yield func(relational.Row) error) error {
		return p.run(db, nil, func(row relational.Row) error {
			if checkOrder {
				checkOrder = false
				proj, err := projectRow(rel, row, stmt)
				if err != nil {
					return err
				}
				if _, err := orderKeysRow(rel, row, stmt, projectionColumns(rel, stmt), proj); err != nil {
					return err
				}
			}
			return yield(row)
		})
	}
	err := runTail(rel, stmt, rows, func(relational.Row) error {
		found = true
		return errStopIteration
	})
	return found, err
}

// existsPlan is the join tree of an eligible plan, built once at plan
// time and shared read-only by concurrent calls; all walk state lives in
// existsWalk. nodes[0] is the root.
type existsPlan struct {
	nodes []existsNode
}

// existsNode is one scan of the join tree.
type existsNode struct {
	scan *scanNode
	bind int // index of the scan's table in boundTables
	// key holds the local ordinal of the column the parent probes (unused
	// at the root), as the one-element ordinal list joinKey takes.
	key []int
	// member is the access path's ordinals, ascending like every probe
	// result, for binary search; nil
	// for a full scan, whose rows are all candidates.
	member []int
	kids   []existsEdge
}

// existsEdge links a node to one child: the child's key equals column
// from (a one-element local ordinal list) of the node's row.
type existsEdge struct {
	from  []int
	child int
}

// newExistsPlan returns the join tree of p, or nil when p is outside the
// walk's remit and Exists must stream. Eligible plans join at least two
// scans, every step an inner join on exactly one equi-key column with no
// residual ON conjunct and no WHERE conjunct placed on it, no final
// filter, and every scan's remaining pushed conjuncts compiled. The
// statement has no GROUP BY, aggregate, HAVING, OFFSET or LIMIT 0, and its
// projection and ORDER BY are stars or column references that resolve
// against the joined columns: the streaming Exists evaluates those, and on
// such a statement they cannot fail.
func newExistsPlan(p *plannedQuery, stmt *SelectStmt, nodes []*scanNode, nodeTables []*relational.Table) *existsPlan {
	if len(p.steps) == 0 || len(p.finalFilter) > 0 || len(stmt.GroupBy) > 0 || anyAgg(stmt) ||
		stmt.Having != nil || stmt.Offset != 0 || stmt.Limit == 0 {
		return nil
	}
	full := &relation{cols: p.outCols}
	resolves := func(e Expr) bool {
		cr, ok := e.(*ColumnRef)
		if !ok {
			return false
		}
		_, err := full.resolve(cr)
		return err == nil
	}
	for _, it := range stmt.Items {
		if !it.Star && !resolves(it.Expr) {
			return nil
		}
	}
	for _, ob := range stmt.OrderBy {
		if !resolves(ob.Expr) {
			return nil
		}
	}
	scans := []*scanNode{p.base}
	for _, st := range p.steps {
		if st.jc.Left || len(st.lk) != 1 || len(st.residual) > 0 || len(st.where) > 0 {
			return nil
		}
		scans = append(scans, st.right)
	}
	tables := make([]*relational.Table, len(scans))
	for i, n := range scans {
		if !n.vecOK {
			return nil
		}
		tables[i] = tableFor(nodeTables, nodes, n)
	}

	// The undirected join tree: step i links its right scan (i+1) to the
	// scan owning its left key column.
	adj := make([][]existsLink, len(scans))
	start := make([]int, len(scans))
	for i := 1; i < len(scans); i++ {
		start[i] = start[i-1] + len(scans[i-1].cols)
	}
	for i, st := range p.steps {
		owner := 0
		for j := range start {
			if st.lk[0] >= start[j] {
				owner = j
			}
		}
		lc, rc := st.lk[0]-start[owner], st.rk[0]
		adj[owner] = append(adj[owner], existsLink{i + 1, lc, rc})
		adj[i+1] = append(adj[i+1], existsLink{owner, rc, lc})
	}

	// Root where a refuting walk visits the fewest rows, then orient every
	// edge away from it.
	root, best := 0, math.Inf(1)
	for i := range scans {
		if c := walkCost(scans, tables, adj, i); c < best {
			root, best = i, c
		}
	}
	ep := &existsPlan{}
	seen := make([]bool, len(scans))
	var add func(scan int, key []int)
	add = func(scan int, key []int) {
		ni := len(ep.nodes)
		seen[scan] = true
		n := scans[scan]
		en := existsNode{scan: n, bind: scan, key: key}
		if n.access != AccessFullScan {
			en.member = n.ords
			if en.member == nil {
				en.member = []int{}
			}
		}
		ep.nodes = append(ep.nodes, en)
		for _, l := range adj[scan] {
			if seen[l.to] {
				continue
			}
			ep.nodes[ni].kids = append(ep.nodes[ni].kids, existsEdge{from: []int{l.fromCol}, child: len(ep.nodes)})
			add(l.to, []int{l.toCol})
		}
	}
	add(root, nil)
	return ep
}

// existsLink is one direction of a join-tree edge: column from of this
// scan equals column toCol of scan to.
type existsLink struct{ to, fromCol, toCol int }

// walkCost estimates how many rows a walk rooted at scan root visits when
// the answer is false, the case that explores the whole tree; a true
// answer stops early from any root. The root visits its candidates
// (probeSize) and recurses with those passing its pushed conjuncts (est).
// A probe from a parent row visits the child rows the planner's equi-join
// selectivity expects, 1/max(distinct keys) of the child table, and a
// visited child row recurses when it lies in the access path and passes
// the conjuncts, est of its table's rows. The fewest candidates alone are
// a poor guide: a 40-row company table filtered to a few rows still fans
// out to every movie of those companies before a selective person
// predicate three joins away refutes them all.
func walkCost(scans []*scanNode, tables []*relational.Table, adj [][]existsLink, root int) float64 {
	var visit func(n, parent int, passing float64) float64
	visit = func(n, parent int, passing float64) float64 {
		cost := 0.0
		for _, l := range adj[n] {
			if l.to == parent {
				continue
			}
			c, t := scans[l.to], tables[l.to]
			sel := equiSelectivity(columnDistinct(tables[n], scans[n], l.fromCol), columnDistinct(t, c, l.toCol))
			rows := passing * float64(t.Len()) * sel
			cost += rows + visit(l.to, n, rows*float64(c.est)/float64(max(t.Len(), 1)))
		}
		return cost
	}
	r := scans[root]
	return float64(r.probeSize(tables[root])) + visit(root, -1, float64(r.est))
}

// existsWalk is one call's walk state over a shared existsPlan.
type existsWalk struct {
	ep *existsPlan
	bt boundTables
	// bufs[i] is node i's reused ProbeOrdinals buffer: a node is on the
	// recursion stack at most once, so its buffer is never overwritten
	// while its candidates are being visited.
	bufs  [][]int
	probe [1]relational.Row
	memo  map[existsKey]existsVerdict
}

type existsKey struct {
	node int
	hash uint64
}

type existsVerdict struct {
	key relational.Value
	ok  bool
}

// exists reports whether the plan's join has a row.
func (ep *existsPlan) exists(bt boundTables) bool {
	w := &existsWalk{ep: ep, bt: bt, bufs: make([][]int, len(ep.nodes))}
	root := &ep.nodes[0]
	found := false
	// Every walked scan compiled its conjuncts, so scanRows cannot fail;
	// its only error is the stop this emit returns.
	scanRows(0, root.scan, bt[root.bind], root.scan.ords, root.member == nil, nil, func(row relational.Row) error {
		if w.qualifies(0, row) {
			found = true
			return errStopIteration
		}
		return nil
	})
	return found
}

// qualifies reports whether row of node ni has a partner on every child
// edge.
func (w *existsWalk) qualifies(ni int, row relational.Row) bool {
	for _, e := range w.ep.nodes[ni].kids {
		if !w.has(e.child, row, e.from) {
			return false
		}
	}
	return true
}

// has reports whether node ni has a qualifying row whose key joins column
// from of the parent row prow, memoised on the join key.
func (w *existsWalk) has(ni int, prow relational.Row, from []int) bool {
	h, null := joinKey(prow, from)
	if null {
		return false
	}
	mk := existsKey{ni, h}
	m, seen := w.memo[mk]
	if seen && relational.Compare(m.key, prow[from[0]]) == 0 {
		return m.ok
	}
	ok := w.search(ni, prow, from, h)
	if !seen { // a hash collision keeps the first key's verdict
		if w.memo == nil {
			w.memo = make(map[existsKey]existsVerdict)
		}
		w.memo[mk] = existsVerdict{key: prow[from[0]], ok: ok}
	}
	return ok
}

// search probes node ni's equality index with the parent's key (hash h)
// and reports whether some posting confirms the join, lies in the access
// path, passes the pushed conjuncts and qualifies.
func (w *existsWalk) search(ni int, prow relational.Row, from []int, h uint64) bool {
	n := &w.ep.nodes[ni]
	t := w.bt[n.bind]
	w.probe[0] = prow
	ords, _ := t.ProbeOrdinals(w.bufs[ni][:0], n.key[0], w.probe[:], from[0], -1)
	w.bufs[ni] = ords
	for _, o := range ords {
		if n.member != nil {
			if _, in := slices.BinarySearch(n.member, o); !in {
				continue
			}
		}
		row := t.Row(o)
		if k, _ := joinKey(row, n.key); k != h || !joinKeysEqual(prow, from, row, n.key) {
			continue
		}
		if vecPass(n.scan.vec, row) && w.qualifies(ni, row) {
			return true
		}
	}
	return false
}
