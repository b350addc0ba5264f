package sql

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/fulltext"
	"repro/internal/relational"
)

// LazyIndexThreshold is the table size above which the planner builds an
// on-demand index for a non-key column instead of scanning: below it a
// filtered scan is cheaper than the build, above it the build amortizes
// after a single query. It gates hash, sorted and MATCH-posting builds
// alike. Declared key columns (PK, FK and FK-referenced) always qualify for
// hash/sorted index access regardless of size.
const LazyIndexThreshold = 256

// ReorderMaxRelations caps the bottom-up join-order search: statements
// joining more relations than this keep their written order (the DP visits
// 2^n subsets, and QUEST's generated queries never come close to the cap).
const ReorderMaxRelations = 8

// Access-path labels used in ScanPlan.Access.
const (
	AccessFullScan      = "full-scan"
	AccessIndexEq       = "index-eq"
	AccessIndexRange    = "index-range"
	AccessIndexIn       = "index-in"
	AccessMatchPostings = "match-postings"
)

// Join-strategy labels used in JoinPlan.Strategy.
const (
	StrategyHash       = "hash"
	StrategyNestedLoop = "nested-loop"
)

// ScanPlan describes how one base table is read: its access path, the
// predicates pushed down below the joins, and the planner's cardinality
// estimate. ActualRows is -1 in plans that were not executed (Plan/Explain)
// and the number of rows the scan emitted otherwise — a lower bound when a
// LIMIT short-circuit stopped the pipeline early.
type ScanPlan struct {
	Table   string
	Binding string
	Access  string // one of the Access* labels
	// IndexColumn names the probed column and Lookup renders the probe
	// (index access paths only): "= 7" for an equality probe, the bound
	// conjunction for a range scan, the literal list for IN, the keyword
	// for MATCH postings.
	IndexColumn string
	Lookup      string
	// Pushed holds the SQL text of the single-table WHERE conjuncts
	// evaluated during the scan, below every join.
	Pushed     []string
	EstRows    int
	ActualRows int
	// StatsFreshness labels the statistics the estimate was costed from:
	// relational.StatsFresh, StatsBudgetStale or StatsSampled, or "" when
	// no column statistics were consulted for this table. ExplainAnalyze
	// renders it so estimate drift under write traffic is diagnosable.
	StatsFreshness string
	// NarrowedVia names the column whose index narrowed this full scan in
	// the execution ActualRows describes ("" when it read every row, and
	// always "" in plans that were not executed).
	NarrowedVia string
}

// JoinPlan describes one join step over the accumulated left relation.
// ActualRows mirrors ScanPlan.ActualRows for the rows surviving this step.
type JoinPlan struct {
	Table    string
	Binding  string
	Strategy string // StrategyHash or StrategyNestedLoop
	// BuildLeft is set when the hash join builds on the (estimated
	// smaller) accumulated left side and probes with the right table,
	// instead of the default build-right.
	BuildLeft bool
	Outer     bool
	Keys      []string // equi-join key pairs ("l = r")
	Residual  []string // non-equi ON conjuncts re-checked per candidate
	Filter    []string // WHERE conjuncts placed directly after this join
	// On renders the join condition driving a nested-loop step.
	On         string
	EstRows    int
	ActualRows int
}

// QueryPlan is the introspectable execution plan of a SELECT: which access
// path each table uses, how joins run, where each WHERE conjunct was
// placed, and — after execution — the actual cardinality next to each
// estimate. Tests and benchmarks assert against it; Explain renders it.
type QueryPlan struct {
	Scans []ScanPlan
	Joins []JoinPlan
	// Filter holds WHERE conjuncts that could not be placed below or
	// between joins (aggregates, unresolvable references) and run over the
	// final joined relation.
	Filter []string
	// JoinOrder lists the relation bindings in execution order; Reordered
	// reports whether the join-order search moved away from the written
	// order.
	JoinOrder []string
	Reordered bool
}

// PlannerStats is a snapshot of the package-wide planner counters, the
// operator-facing view of what the planning layer is doing (surfaced by
// cmd/queststats).
type PlannerStats struct {
	Plans              uint64 // plans constructed (cache misses included)
	PlanCacheHits      uint64
	PlanCacheMisses    uint64
	IndexScans         uint64 // scans routed through an equality index
	RangeScans         uint64 // scans routed through a sorted-index range
	InScans            uint64 // scans served by unioned IN-list postings
	MatchScans         uint64 // scans served by full-text MATCH postings
	FullScans          uint64 // full-scan access paths chosen (at plan time)
	NarrowedScans      uint64 // full-scan executions narrowed by a hash join (see narrowDivisor)
	LazyIndexBuilds    uint64 // index builds the planner itself triggered
	JoinReorders       uint64 // plans whose join order moved off the written order
	HashJoins          uint64
	NestedLoopJoins    uint64
	BuildSideSwaps     uint64 // hash joins that built on the left side
	PushedPredicates   uint64 // WHERE conjuncts pushed below a join
	ExistsFastPaths    uint64 // Exists calls served by the streaming path
	LimitShortCircuits uint64 // Execute calls that stopped at LIMIT early
}

type plannerCounters struct {
	plans, cacheHits, cacheMisses      atomic.Uint64
	indexScans, fullScans, lazyBuilds  atomic.Uint64
	rangeScans, inScans, matchScans    atomic.Uint64
	narrowedScans                      atomic.Uint64
	joinReorders                       atomic.Uint64
	hashJoins, nestedLoops, buildSwaps atomic.Uint64
	pushed, existsFast, limitShort     atomic.Uint64
}

var counters plannerCounters

// Stats returns the current planner counters.
func Stats() PlannerStats {
	return PlannerStats{
		Plans:              counters.plans.Load(),
		PlanCacheHits:      counters.cacheHits.Load(),
		PlanCacheMisses:    counters.cacheMisses.Load(),
		IndexScans:         counters.indexScans.Load(),
		RangeScans:         counters.rangeScans.Load(),
		InScans:            counters.inScans.Load(),
		MatchScans:         counters.matchScans.Load(),
		FullScans:          counters.fullScans.Load(),
		NarrowedScans:      counters.narrowedScans.Load(),
		LazyIndexBuilds:    counters.lazyBuilds.Load(),
		JoinReorders:       counters.joinReorders.Load(),
		HashJoins:          counters.hashJoins.Load(),
		NestedLoopJoins:    counters.nestedLoops.Load(),
		BuildSideSwaps:     counters.buildSwaps.Load(),
		PushedPredicates:   counters.pushed.Load(),
		ExistsFastPaths:    counters.existsFast.Load(),
		LimitShortCircuits: counters.limitShort.Load(),
	}
}

// ResetStats zeroes the planner counters (tests and benchmarks).
func ResetStats() { counters = plannerCounters{} }

// planCache memoizes plans across Execute/Exists calls. The key embeds the
// database identity, the version of every table the statement references
// (an Insert into a referenced table changes that version, so cached index
// probes can never serve stale ordinals — while inserts into unreferenced
// tables leave the key, and the cached plan, untouched) and the canonical
// SQL text; the engine re-executes cached
// explanations on every search, so plan reuse is the common case.
var planCache = cache.New[string, *plannedQuery](512)

// matchIndexCache memoizes per-attribute full-text indexes built for the
// MATCH access path, keyed on (database ID, table, column ordinal, table
// version): a table mutation changes the version, so stale postings are
// unreachable and age out of the LRU.
var matchIndexCache = cache.New[string, *fulltext.AttributeIndex](128)

// scanNode is the planned read of one base table. It deliberately stores
// no *relational.Table: cached plans must not pin a database's row data
// (the plan cache outlives short-lived databases), so executions re-bind
// tables by name (plannedQuery.bind). The captured probe ordinals are
// plain ints and stay valid for the (database ID, data version) the plan
// was keyed under.
type scanNode struct {
	tr   TableRef
	cols []boundCol // this table's bound columns only
	// pushed predicates are evaluated against cols during the scan.
	pushed []Expr
	// access is the chosen access path; idxCol/lookup describe the probe
	// and ords are its results captured at plan time (shared, read-only).
	access string
	idxCol string
	lookup string
	ords   []int
	est    int
	// vec holds the pushed conjuncts compiled for the selection-vector
	// filter; vecOK reports whether every conjunct compiled (all-or-nothing,
	// so the interpreted and vectorized paths never mix per scan).
	vec   []colPred
	vecOK bool
	// freshness records what kind of statistics (fresh / budget-stale /
	// sampled) est was costed from; "" when none were consulted.
	freshness string
}

// joinStep is one planned join of the accumulated left relation with a
// base-table scan.
type joinStep struct {
	right    *scanNode
	jc       JoinClause
	lk, rk   []int  // equi-key ordinals (accumulated-left / right-local)
	residual []Expr // non-equi ON conjuncts
	where    []Expr // WHERE conjuncts placed right after this join
	// buildLeft materializes the accumulated left side and probes with the
	// right scan (inner hash joins whose left side is estimated smaller).
	buildLeft bool
	outCols   []boundCol // accumulated columns after this join
	est       int
}

// plannedQuery is an executable plan: a base scan, join steps, and the
// residual top-level filter. It is immutable after planning — every
// execution keeps its own state — so one plan can serve concurrent
// Execute/Exists calls (the engine's parallel validation relies on this).
type plannedQuery struct {
	base        *scanNode
	steps       []*joinStep
	outCols     []boundCol
	finalFilter []Expr
	reordered   bool
	plan        *QueryPlan
}

// errStopIteration is the internal sentinel the streaming executor uses to
// unwind once a row limit (LIMIT short-circuit, Exists) is satisfied.
var errStopIteration = errors.New("sql: stop iteration")

// Plan returns the execution plan the executor would use for the
// statement, without running it.
func Plan(db *relational.Database, stmt *SelectStmt) (*QueryPlan, error) {
	p, err := planSelect(db, stmt)
	if err != nil {
		return nil, err
	}
	return p.plan, nil
}

// planSelect builds (or retrieves from the plan cache) the execution plan
// for a statement. The key is the canonical SQL text (re-rendered per call
// — statements carry no cache slot, and the text is what makes the key
// independent of pointer identity and mutation) prefixed with the database
// identity and the per-referenced-table versions.
func planSelect(db *relational.Database, stmt *SelectStmt) (*plannedQuery, error) {
	var kb strings.Builder
	kb.WriteString(strconv.FormatUint(db.ID(), 10))
	kb.WriteByte(0)
	// Per-table versions, not the whole-database DataVersion: a write to a
	// table this statement never reads must not evict its plan.
	for _, tr := range stmt.Tables() {
		if t := db.Table(tr.Table); t != nil {
			kb.WriteString(tr.Table)
			kb.WriteByte('=')
			kb.WriteString(strconv.FormatUint(t.Version(), 10))
			kb.WriteByte(';')
		}
	}
	kb.WriteByte(0)
	kb.WriteString(stmt.SQL())
	key := kb.String()
	if p, ok := planCache.Get(key); ok {
		counters.cacheHits.Add(1)
		return p, nil
	}
	counters.cacheMisses.Add(1)
	p, err := buildPlan(db, stmt)
	if err != nil {
		return nil, err
	}
	planCache.Put(key, p)
	return p, nil
}

func newScanNode(db *relational.Database, tr TableRef) (*scanNode, *relational.Table, error) {
	t := db.Table(tr.Table)
	if t == nil {
		return nil, nil, fmt.Errorf("sql: unknown table %s", tr.Table)
	}
	binding := strings.ToLower(tr.Binding())
	n := &scanNode{tr: tr, access: AccessFullScan, est: t.Len()}
	for _, c := range t.Schema.Columns {
		n.cols = append(n.cols, boundCol{
			binding: binding,
			name:    strings.ToLower(c.Name),
			display: tr.Binding() + "." + c.Name,
		})
	}
	return n, t, nil
}

// collectRefs appends every column reference inside e to out.
func collectRefs(e Expr, out *[]*ColumnRef) {
	switch x := e.(type) {
	case *ColumnRef:
		*out = append(*out, x)
	case *BinaryExpr:
		collectRefs(x.Left, out)
		collectRefs(x.Right, out)
	case *NotExpr:
		collectRefs(x.Inner, out)
	case *IsNullExpr:
		collectRefs(x.Inner, out)
	case *InExpr:
		collectRefs(x.Inner, out)
		for _, i := range x.List {
			collectRefs(i, out)
		}
	case *AggExpr:
		if x.Arg != nil {
			collectRefs(x.Arg, out)
		}
	}
}

func buildPlan(db *relational.Database, stmt *SelectStmt) (*plannedQuery, error) {
	counters.plans.Add(1)
	base, baseTable, err := newScanNode(db, stmt.From)
	if err != nil {
		return nil, err
	}
	nodes := []*scanNode{base}
	tables := []*relational.Table{baseTable}
	p := &plannedQuery{base: base}
	outCols := append([]boundCol{}, base.cols...)
	// nodeStart[i] is the ordinal in outCols where nodes[i]'s columns
	// begin; nodeStep[i] is the join-step index that introduced nodes[i]
	// (-1 for the base table).
	nodeStart := []int{0}
	nodeStep := []int{-1}
	for si, jc := range stmt.Joins {
		right, rightTable, err := newScanNode(db, jc.Table)
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, right)
		tables = append(tables, rightTable)
		nodeStart = append(nodeStart, len(outCols))
		nodeStep = append(nodeStep, si)
		outCols = append(outCols, right.cols...)
		p.steps = append(p.steps, &joinStep{right: right, jc: jc})
	}
	p.outCols = outCols
	full := &relation{cols: outCols}

	// ownerNode maps a resolved column ordinal to the scan node owning it.
	ownerNode := func(ord int) int {
		for i := len(nodeStart) - 1; i >= 0; i-- {
			if ord >= nodeStart[i] {
				return i
			}
		}
		return 0
	}

	// Split the WHERE conjunction and place each conjunct as low as
	// legality allows: single-table conjuncts go below the joins into the
	// owning scan (unless that table is null-extended by a LEFT join —
	// pushing below would resurrect rows the predicate must remove),
	// multi-table conjuncts go right after the earliest join that sees all
	// their tables, and everything else (aggregates, references that do
	// not resolve) stays in the final filter so errors surface exactly
	// where the un-planned interpreter would raise them: per joined row.
	if stmt.Where != nil {
		for _, c := range splitAnd(stmt.Where) {
			p.placeConjunct(c, full, ownerNode, nodes, nodeStep)
		}
	}

	// Access-path selection per scan: route equality, IN-list, range and
	// MATCH predicates through the matching index structure, estimate the
	// rest from column statistics.
	for i, n := range nodes {
		if err := n.chooseAccess(db, tables[i], db.Schema.KeyColumns(n.tr.Table)); err != nil {
			return nil, err
		}
	}

	// Join-order search: for all-inner multi-joins the Selinger-style
	// enumerator rebuilds the steps in cost order; everything else keeps
	// the written order.
	if tryReorder(p, stmt, nodes, tables, nodeStart, ownerNode, full) {
		p.compileVec()
		captureStatsFreshness(nodes, tables)
		p.plan = p.describe()
		return p, nil
	}

	// Written-order join planning: equi-key detection against the
	// accumulated relation, statistics-driven cardinality estimates, then
	// build-side selection.
	accum := &relation{cols: append([]boundCol{}, base.cols...)}
	leftEst := base.est
	for _, st := range p.steps {
		rightRel := &relation{cols: st.right.cols}
		st.lk, st.rk, st.residual = equiJoinKeys(accum, rightRel, st.jc.On)
		accum = &relation{cols: append(append([]boundCol{}, accum.cols...), st.right.cols...)}
		st.outCols = accum.cols

		if len(st.lk) > 0 {
			sel := 1.0
			for i := range st.lk {
				ln := ownerNode(st.lk[i])
				lv := columnDistinct(tables[ln], nodes[ln], st.lk[i]-nodeStart[ln])
				rt := tableFor(tables, nodes, st.right)
				rv := columnDistinct(rt, st.right, st.rk[i])
				sel *= equiSelectivity(lv, rv)
			}
			st.est = clampEst(float64(leftEst) * float64(st.right.est) * sel)
			// Build on the estimated-smaller side. LEFT joins must probe
			// from the left to track unmatched left rows, so they always
			// build right.
			st.buildLeft = !st.jc.Left && leftEst < st.right.est
		} else {
			st.est = clampEst(float64(leftEst) * float64(st.right.est))
		}
		if st.jc.Left && st.est < leftEst {
			st.est = leftEst // outer join preserves every left row
		}
		leftEst = st.est
	}

	p.compileVec()
	captureStatsFreshness(nodes, tables)
	p.plan = p.describe()
	return p, nil
}

// captureStatsFreshness stamps each scan node with the freshness of the
// statistics its table currently caches — the snapshots estimation just
// consulted — so the frozen plan can report what its estimates were built
// from.
func captureStatsFreshness(nodes []*scanNode, tables []*relational.Table) {
	for i, n := range nodes {
		n.freshness = tables[i].StatsFreshnessSummary()
	}
}

// tableFor returns the relational table backing a scan node.
func tableFor(tables []*relational.Table, nodes []*scanNode, n *scanNode) *relational.Table {
	for i, cand := range nodes {
		if cand == n {
			return tables[i]
		}
	}
	return nil
}

// placeConjunct assigns one WHERE conjunct to its lowest legal position.
func (p *plannedQuery) placeConjunct(c Expr, full *relation, ownerNode func(int) int,
	nodes []*scanNode, nodeStep []int) {
	if containsAgg(c) {
		p.finalFilter = append(p.finalFilter, c)
		return
	}
	var refs []*ColumnRef
	collectRefs(c, &refs)
	involved := make(map[int]bool)
	for _, r := range refs {
		ord, err := full.resolve(r)
		if err != nil {
			// Unknown or ambiguous reference: keep the conjunct at the
			// top so the interpreter raises the identical per-row error.
			p.finalFilter = append(p.finalFilter, c)
			return
		}
		involved[ownerNode(ord)] = true
	}
	if len(involved) == 0 {
		// Constant conjunct: evaluate during the base scan (TRUE keeps
		// everything, FALSE/NULL empties the result either way).
		p.base.pushed = append(p.base.pushed, c)
		return
	}
	// The conjunct must run at or after the step where its last table
	// appears; null-extended (LEFT-joined) tables additionally pin it to
	// after their own join.
	at := -1
	single := -1
	for ni := range involved {
		step := nodeStep[ni]
		if step > at {
			at = step
		}
		single = ni
	}
	if len(involved) == 1 && (single == 0 || !p.steps[nodeStep[single]].jc.Left) {
		nodes[single].pushed = append(nodes[single].pushed, c)
		if single != 0 {
			counters.pushed.Add(1)
		}
		return
	}
	if at < 0 {
		// Single-table conjunct on the base table of a LEFT join chain is
		// handled above; at < 0 here means base-only multi-ref — push it.
		p.base.pushed = append(p.base.pushed, c)
		return
	}
	p.steps[at].where = append(p.steps[at].where, c)
}

// localEqLiteral deconstructs `col = literal` (either side order) against
// the node's local relation, rejecting NULL literals (NULL never equals
// anything, and index postings do not record NULLs).
func localEqLiteral(local *relation, c Expr) (ord int, v relational.Value, ok bool) {
	be, isBin := c.(*BinaryExpr)
	if !isBin || be.Op != OpEq {
		return 0, relational.Null(), false
	}
	return localCmpLiteral(local, be)
}

// rangeBound is one direction of a column's range restriction.
type rangeBound struct {
	v         relational.Value
	inclusive bool
	set       bool
}

// tighten replaces b when nv is a stricter bound in direction dir (+1 for
// lower bounds: larger wins; -1 for upper bounds: smaller wins).
func (b *rangeBound) tighten(nv relational.Value, inclusive bool, dir int) {
	if !b.set {
		*b = rangeBound{v: nv, inclusive: inclusive, set: true}
		return
	}
	c := relational.Compare(nv, b.v) * dir
	if c > 0 || (c == 0 && !inclusive) {
		*b = rangeBound{v: nv, inclusive: inclusive, set: true}
	}
}

// chooseAccess picks the scan's access path, in order of preference:
//
//  1. an equality conjunct `col = literal` through a hash index (primary
//     key probes answered from pkIndex),
//  2. an IN-list conjunct through a union of hash-index postings,
//  3. range conjuncts (<, <=, >, >=, BETWEEN) through a sorted-index
//     range scan, combining every bound on the chosen column,
//  4. a `col MATCH 'kw'` conjunct through full-text postings
//     (fulltext.AttributeIndex.Rows), which scans only the rows whose cell
//     contains every keyword token.
//
// Conjuncts served by the probe are removed from the pushed list — probes
// are exact under the engine's comparison semantics, so re-evaluating them
// per row would be wasted work. The remaining pushed conjuncts scale the
// cardinality estimate by their statistics-based selectivity.
func (n *scanNode) chooseAccess(db *relational.Database, t *relational.Table, keyCols map[string]bool) error {
	local := &relation{cols: n.cols}
	indexWorthy := func(ord int) bool {
		colName := t.Schema.Columns[ord].Name
		return keyCols[strings.ToLower(colName)] || t.HasIndex(colName) || t.Len() >= LazyIndexThreshold
	}

	// 1. Equality probe (PK preferred).
	best := -1
	bestPK := false
	var bestOrd int
	var bestVal relational.Value
	for ci, c := range n.pushed {
		ord, v, ok := localEqLiteral(local, c)
		if !ok || !indexWorthy(ord) {
			continue
		}
		isPK := strings.EqualFold(t.Schema.PrimaryKey, t.Schema.Columns[ord].Name)
		if best < 0 || (isPK && !bestPK) {
			best, bestPK, bestOrd, bestVal = ci, isPK, ord, v
		}
	}
	if best >= 0 {
		colName := t.Schema.Columns[bestOrd].Name
		if !bestPK && !t.HasIndex(colName) {
			counters.lazyBuilds.Add(1)
		}
		ords, err := t.LookupOrdinals(colName, bestVal)
		if err != nil {
			return err
		}
		counters.indexScans.Add(1)
		n.access = AccessIndexEq
		n.idxCol = colName
		n.lookup = bestVal.SQL()
		n.ords = ords
		n.pushed = append(n.pushed[:best:best], n.pushed[best+1:]...)
		n.finishEstimate(t, len(ords))
		return nil
	}

	// 2. IN-list probe: union of per-literal postings. NULL literals in the
	// list are skipped — they can only turn FALSE into UNKNOWN, and both
	// reject the row.
	for ci, c := range n.pushed {
		in, ok := c.(*InExpr)
		if !ok {
			continue
		}
		cr, okRef := in.Inner.(*ColumnRef)
		if !okRef {
			continue
		}
		ord, err := local.resolve(cr)
		if err != nil || !indexWorthy(ord) {
			continue
		}
		lits := make([]relational.Value, 0, len(in.List))
		probes := make([]relational.Row, 0, len(in.List))
		allLits := true
		for _, item := range in.List {
			l, isLit := item.(*Literal)
			if !isLit {
				allLits = false
				break
			}
			if l.Value.IsNull() {
				continue
			}
			lits = append(lits, l.Value)
			probes = append(probes, relational.Row{l.Value})
		}
		if !allLits {
			continue
		}
		colName := t.Schema.Columns[ord].Name
		if !t.HasIndex(colName) && !strings.EqualFold(t.Schema.PrimaryKey, colName) {
			counters.lazyBuilds.Add(1)
		}
		ords, _ := t.ProbeOrdinals(nil, ord, probes, 0, -1) // no limit: never gives up
		counters.inScans.Add(1)
		n.access = AccessIndexIn
		n.idxCol = colName
		n.lookup = "IN " + literalList(lits)
		n.ords = ords
		n.pushed = append(n.pushed[:ci:ci], n.pushed[ci+1:]...)
		n.finishEstimate(t, len(ords))
		return nil
	}

	// 3. Sorted-index range scan: gather every bound per column, choose the
	// first bounded column in conjunct order, and serve the combined
	// interval from the sorted index.
	type colRange struct {
		ord      int
		lo, hi   rangeBound
		conjunct []int // indexes into n.pushed served by the probe
	}
	var ranges []*colRange
	byOrd := make(map[int]*colRange)
	for ci, c := range n.pushed {
		be, ok := c.(*BinaryExpr)
		if !ok || (be.Op != OpLt && be.Op != OpLe && be.Op != OpGt && be.Op != OpGe) {
			continue
		}
		ord, v, op, okCmp := localRangeLiteral(local, be)
		if !okCmp || !rangeWorthy(t, keyCols, ord) {
			continue
		}
		r := byOrd[ord]
		if r == nil {
			r = &colRange{ord: ord}
			byOrd[ord] = r
			ranges = append(ranges, r)
		}
		switch op {
		case OpGt:
			r.lo.tighten(v, false, 1)
		case OpGe:
			r.lo.tighten(v, true, 1)
		case OpLt:
			r.hi.tighten(v, false, -1)
		case OpLe:
			r.hi.tighten(v, true, -1)
		}
		r.conjunct = append(r.conjunct, ci)
	}
	if len(ranges) > 0 {
		r := ranges[0]
		colName := t.Schema.Columns[r.ord].Name
		if !t.HasSortedIndex(colName) {
			counters.lazyBuilds.Add(1)
		}
		lo, hi := relational.Null(), relational.Null()
		loInc, hiInc := true, true
		if r.lo.set {
			lo, loInc = r.lo.v, r.lo.inclusive
		}
		if r.hi.set {
			hi, hiInc = r.hi.v, r.hi.inclusive
		}
		ords, err := t.RangeOrdinals(colName, lo, hi, loInc, hiInc)
		if err != nil {
			return err
		}
		counters.rangeScans.Add(1)
		n.access = AccessIndexRange
		n.idxCol = colName
		n.lookup = rangeText(r.lo, r.hi)
		n.ords = ords
		served := make(map[int]bool, len(r.conjunct))
		for _, ci := range r.conjunct {
			served[ci] = true
		}
		kept := n.pushed[:0:0]
		for ci, c := range n.pushed {
			if !served[ci] {
				kept = append(kept, c)
			}
		}
		n.pushed = kept
		n.finishEstimate(t, len(ords))
		return nil
	}

	// 4. MATCH postings: `col MATCH 'kw'` scans only the posting rows.
	for ci, c := range n.pushed {
		be, ok := c.(*BinaryExpr)
		if !ok || be.Op != OpMatch {
			continue
		}
		cr, okRef := be.Left.(*ColumnRef)
		l, okLit := be.Right.(*Literal)
		if !okRef || !okLit || l.Value.IsNull() {
			continue
		}
		ord, err := local.resolve(cr)
		if err != nil || t.Len() < LazyIndexThreshold {
			continue
		}
		ai := matchIndexFor(db, t, ord)
		counters.matchScans.Add(1)
		n.access = AccessMatchPostings
		n.idxCol = t.Schema.Columns[ord].Name
		n.lookup = "MATCH " + l.Value.SQL()
		n.ords = ai.Rows(l.Value.AsString())
		n.pushed = append(n.pushed[:ci:ci], n.pushed[ci+1:]...)
		n.finishEstimate(t, len(n.ords))
		return nil
	}

	// Full scan: estimate from column statistics instead of the former
	// halving-per-predicate heuristic.
	counters.fullScans.Add(1)
	n.finishEstimate(t, t.Len())
	return nil
}

// rangeWorthy mirrors the hash-index worthiness rule for sorted indexes.
func rangeWorthy(t *relational.Table, keyCols map[string]bool, ord int) bool {
	colName := t.Schema.Columns[ord].Name
	return keyCols[strings.ToLower(colName)] || t.HasSortedIndex(colName) || t.Len() >= LazyIndexThreshold
}

// finishEstimate sets the scan estimate: the probe result size (exact at
// plan time) scaled by the selectivity of the remaining pushed conjuncts.
func (n *scanNode) finishEstimate(t *relational.Table, base int) {
	est := float64(base)
	local := &relation{cols: n.cols}
	for _, c := range n.pushed {
		est *= predSelectivity(t, local, c)
	}
	n.est = clampEst(est)
}

func literalList(vals []relational.Value) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = v.SQL()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

func rangeText(lo, hi rangeBound) string {
	var parts []string
	if lo.set {
		op := ">"
		if lo.inclusive {
			op = ">="
		}
		parts = append(parts, op+" "+lo.v.SQL())
	}
	if hi.set {
		op := "<"
		if hi.inclusive {
			op = "<="
		}
		parts = append(parts, op+" "+hi.v.SQL())
	}
	return strings.Join(parts, " AND ")
}

// matchIndexFor returns the cached (or freshly built) single-attribute
// full-text index for the MATCH access path. The cache key embeds the
// table version, so postings built before an Insert are never served.
func matchIndexFor(db *relational.Database, t *relational.Table, ord int) *fulltext.AttributeIndex {
	key := strconv.FormatUint(db.ID(), 10) + "\x00" + strings.ToLower(t.Schema.Name) +
		"\x00" + strconv.Itoa(ord) + "\x00" + strconv.FormatUint(t.Version(), 10)
	if ai, ok := matchIndexCache.Get(key); ok {
		return ai
	}
	counters.lazyBuilds.Add(1)
	ai := fulltext.IndexAttribute(t, ord)
	matchIndexCache.Put(key, ai)
	return ai
}

// describe freezes the plan into its introspectable form.
func (p *plannedQuery) describe() *QueryPlan {
	qp := &QueryPlan{Reordered: p.reordered}
	nodes := []*scanNode{p.base}
	for _, st := range p.steps {
		nodes = append(nodes, st.right)
	}
	for _, n := range nodes {
		sp := ScanPlan{
			Table:          n.tr.Table,
			Binding:        n.tr.Binding(),
			Access:         n.access,
			EstRows:        n.est,
			ActualRows:     -1,
			StatsFreshness: n.freshness,
		}
		if n.access != AccessFullScan {
			sp.IndexColumn = n.idxCol
			sp.Lookup = n.lookup
		}
		for _, c := range n.pushed {
			sp.Pushed = append(sp.Pushed, c.SQL())
		}
		qp.Scans = append(qp.Scans, sp)
		qp.JoinOrder = append(qp.JoinOrder, n.tr.Binding())
	}
	lcols := p.base.cols
	for _, st := range p.steps {
		jp := JoinPlan{
			Table:      st.right.tr.Table,
			Binding:    st.right.tr.Binding(),
			Strategy:   StrategyNestedLoop,
			BuildLeft:  st.buildLeft,
			Outer:      st.jc.Left,
			EstRows:    st.est,
			ActualRows: -1,
		}
		if st.jc.On != nil {
			jp.On = st.jc.On.SQL()
		}
		if len(st.lk) > 0 {
			jp.Strategy = StrategyHash
			for i := range st.lk {
				jp.Keys = append(jp.Keys, lcols[st.lk[i]].display+" = "+st.right.cols[st.rk[i]].display)
			}
		}
		for _, r := range st.residual {
			jp.Residual = append(jp.Residual, r.SQL())
		}
		for _, w := range st.where {
			jp.Filter = append(jp.Filter, w.SQL())
		}
		qp.Joins = append(qp.Joins, jp)
		lcols = st.outCols
	}
	for _, c := range p.finalFilter {
		qp.Filter = append(qp.Filter, c.SQL())
	}
	return qp
}

// describeActual clones the frozen plan and annotates it with the row
// counts one execution observed. When a LIMIT short-circuit stopped the
// pipeline early the counts are lower bounds of the full cardinalities.
func (p *plannedQuery) describeActual(rc *runCounts) *QueryPlan {
	qp := *p.plan
	qp.Scans = append([]ScanPlan(nil), p.plan.Scans...)
	qp.Joins = append([]JoinPlan(nil), p.plan.Joins...)
	for i := range qp.Scans {
		if i < len(rc.scans) {
			qp.Scans[i].ActualRows = rc.scans[i]
			qp.Scans[i].NarrowedVia = rc.narrowed[i]
		}
	}
	for i := range qp.Joins {
		if i < len(rc.joins) {
			qp.Joins[i].ActualRows = rc.joins[i]
		}
	}
	return &qp
}

// ---- streaming execution ----

// runCounts carries one execution's observed cardinalities: rows emitted by
// each scan (post pushed-predicate filtering) and surviving each join step,
// and the column each narrowed scan was narrowed through. Each execution
// owns its runCounts, so shared plans stay immutable.
type runCounts struct {
	scans    []int
	joins    []int
	narrowed []string
	// noNarrow makes this execution read every planned full scan in full;
	// the ordered-identity tests compare narrowed runs against it.
	noNarrow bool
}

// evalConjuncts reports whether every conjunct evaluates to TRUE for the
// row (SQL three-valued semantics: NULL rejects).
func evalConjuncts(rel *relation, row relational.Row, cs []Expr) (bool, error) {
	for _, c := range cs {
		v, err := eval(rel, row, c)
		if err != nil {
			return false, err
		}
		if !v.AsBool() {
			return false, nil
		}
	}
	return true, nil
}

// boundTables are the per-execution table bindings of a plan: entry 0 is
// the base scan's table, entry i+1 the right table of join step i. Cached
// plans store no table pointers, so every run re-binds against the (same)
// database first.
type boundTables []*relational.Table

// bind resolves the plan's table names against db. The plan cache keys on
// the database ID, so a cached plan only ever meets the database it was
// built for; the nil check guards programmer error, not a live code path.
func (p *plannedQuery) bind(db *relational.Database) (boundTables, error) {
	bt := make(boundTables, 0, len(p.steps)+1)
	for _, tr := range append([]TableRef{p.base.tr}, joinRefs(p.steps)...) {
		t := db.Table(tr.Table)
		if t == nil {
			return nil, fmt.Errorf("sql: unknown table %s", tr.Table)
		}
		bt = append(bt, t)
	}
	return bt, nil
}

func joinRefs(steps []*joinStep) []TableRef {
	out := make([]TableRef, len(steps))
	for i, st := range steps {
		out[i] = st.right.tr
	}
	return out
}

// streamScan yields the scan's rows (index probe or full scan) that pass
// its pushed predicates. idx is the scan's position in the plan, used for
// cardinality accounting when rc is non-nil.
func (p *plannedQuery) streamScan(idx int, n *scanNode, t *relational.Table, rc *runCounts, emit func(relational.Row) error) error {
	if n.access != AccessFullScan {
		return p.scanOrdinals(idx, n, t, n.ords, rc, emit)
	}
	if n.vecOK {
		return p.streamScanVec(idx, n, t, rc, emit)
	}
	local := &relation{cols: n.cols}
	for _, row := range t.Rows() {
		ok, err := evalConjuncts(local, row, n.pushed)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if rc != nil {
			rc.scans[idx]++
		}
		if err := emit(row); err != nil {
			return err
		}
	}
	return nil
}

// scanOrdinals yields the rows at the ascending ordinals ords that pass
// the scan's pushed predicates, evaluated row by row: the compiled
// conjuncts when the scan has them, the interpreter otherwise.
func (p *plannedQuery) scanOrdinals(idx int, n *scanNode, t *relational.Table, ords []int, rc *runCounts, emit func(relational.Row) error) error {
	var local *relation
	if !n.vecOK {
		local = &relation{cols: n.cols}
	}
	for _, o := range ords {
		row := t.Row(o)
		if n.vecOK {
			if !vecPass(n.vec, row) {
				continue
			}
		} else if ok, err := evalConjuncts(local, row, n.pushed); err != nil {
			return err
		} else if !ok {
			continue
		}
		if rc != nil {
			rc.scans[idx]++
		}
		if err := emit(row); err != nil {
			return err
		}
	}
	return nil
}

// narrowDivisor bounds index-narrowed scans: a planned full scan of table
// t is narrowed only while its candidate ordinals stay below
// t.Len()/narrowDivisor. Past that, reading the candidates in ordinal
// order stops paying for the index probes and the scan falls back to
// reading every row.
const narrowDivisor = 4

// streamNarrowed is streamScan for one side of an inner hash join whose
// other side is already materialized in probes. A planned full scan of a
// table of at least LazyIndexThreshold rows reads, through the equality
// index on its column col, only the rows whose col key-equals column
// keyCol of some probe row — every row the join can match, since
// Value.Key and the join's hashValue draw the same equivalence — visiting
// them in ascending ordinal order, which is the full scan's order. The
// emitted row sequence is therefore exactly the full scan's, minus rows
// no probe row can join. Scans with pushed conjuncts the interpreter must
// evaluate stay full: those may raise per row, and a skipped row must not
// hide an error the full scan would surface.
func (p *plannedQuery) streamNarrowed(idx int, n *scanNode, t *relational.Table, col int,
	probes []relational.Row, keyCol int, rc *runCounts, emit func(relational.Row) error) error {
	if n.access == AccessFullScan && n.vecOK && t.Len() >= LazyIndexThreshold && (rc == nil || !rc.noNarrow) {
		if ords, ok := t.ProbeOrdinals(nil, col, probes, keyCol, t.Len()/narrowDivisor); ok {
			counters.narrowedScans.Add(1)
			if rc != nil {
				rc.narrowed[idx] = t.Schema.Columns[col].Name
			}
			return p.scanOrdinals(idx, n, t, ords, rc, emit)
		}
	}
	return p.streamScan(idx, n, t, rc, emit)
}

// stream yields the rows of the relation after join step i (i == -1 is the
// base scan), with that step's placed WHERE conjuncts applied.
func (p *plannedQuery) stream(i int, bt boundTables, rc *runCounts, emit func(relational.Row) error) error {
	if i < 0 {
		return p.streamScan(0, p.base, bt[0], rc, emit)
	}
	st := p.steps[i]
	outRel := &relation{cols: st.outCols}
	// filtered applies the step's placed WHERE conjuncts before emitting.
	filtered := func(row relational.Row) error {
		ok, err := evalConjuncts(outRel, row, st.where)
		if err != nil || !ok {
			return err
		}
		if rc != nil {
			rc.joins[i]++
		}
		return emit(row)
	}
	concat := func(l, r relational.Row) relational.Row {
		row := make(relational.Row, 0, len(l)+len(r))
		row = append(row, l...)
		return append(row, r...)
	}

	if len(st.lk) == 0 {
		counters.nestedLoops.Add(1)
		var rightRows []relational.Row
		if err := p.streamScan(i+1, st.right, bt[i+1], rc, func(r relational.Row) error {
			rightRows = append(rightRows, r)
			return nil
		}); err != nil {
			return err
		}
		return p.stream(i-1, bt, rc, func(lrow relational.Row) error {
			matched := false
			for _, rrow := range rightRows {
				cand := concat(lrow, rrow)
				v, err := eval(outRel, cand, st.jc.On)
				if err != nil {
					return err
				}
				if !v.AsBool() {
					continue
				}
				matched = true
				if err := filtered(cand); err != nil {
					return err
				}
			}
			if st.jc.Left && !matched {
				return filtered(concat(lrow, nullRow(len(st.right.cols))))
			}
			return nil
		})
	}

	counters.hashJoins.Add(1)
	if st.buildLeft {
		counters.buildSwaps.Add(1)
		// Materialize the (smaller) accumulated left side, probe with the
		// right scan, narrowed to the rows the left keys can match. Inner
		// joins only, so no match tracking is needed.
		var leftRows []relational.Row
		if err := p.stream(i-1, bt, rc, func(l relational.Row) error {
			leftRows = append(leftRows, l)
			return nil
		}); err != nil {
			return err
		}
		build := make(map[uint64][]int, len(leftRows))
		for li, lrow := range leftRows {
			k, null := joinKey(lrow, st.lk)
			if null {
				continue
			}
			build[k] = append(build[k], li)
		}
		// Probe in blocks: keys for the whole block are hashed first, then
		// the build map is walked with hot caches. Emission order matches
		// the row-at-a-time loop exactly, and a stop sentinel raised
		// mid-block propagates before any later probe row is touched.
		blk := make([]relational.Row, 0, joinProbeBlock)
		keys := make([]uint64, joinProbeBlock)
		nulls := make([]bool, joinProbeBlock)
		flush := func() error {
			for bi, rrow := range blk {
				keys[bi], nulls[bi] = joinKey(rrow, st.rk)
			}
			for bi, rrow := range blk {
				if nulls[bi] {
					continue
				}
				for _, li := range build[keys[bi]] {
					if !joinKeysEqual(leftRows[li], st.lk, rrow, st.rk) {
						continue
					}
					cand := concat(leftRows[li], rrow)
					ok, err := evalConjuncts(outRel, cand, st.residual)
					if err != nil {
						return err
					}
					if !ok {
						continue
					}
					if err := filtered(cand); err != nil {
						return err
					}
				}
			}
			blk = blk[:0]
			return nil
		}
		if err := p.streamNarrowed(i+1, st.right, bt[i+1], st.rk[0], leftRows, st.lk[0], rc, func(rrow relational.Row) error {
			blk = append(blk, rrow)
			if len(blk) == joinProbeBlock {
				return flush()
			}
			return nil
		}); err != nil {
			return err
		}
		return flush()
	}

	// Default hash join: build on the right scan, probe with the streamed
	// left side (required for LEFT joins, which null-extend unmatched left
	// rows).
	var rightRows []relational.Row
	if err := p.streamScan(i+1, st.right, bt[i+1], rc, func(r relational.Row) error {
		rightRows = append(rightRows, r)
		return nil
	}); err != nil {
		return err
	}
	build := make(map[uint64][]int, len(rightRows))
	for ri, rrow := range rightRows {
		k, null := joinKey(rrow, st.rk)
		if null {
			continue
		}
		build[k] = append(build[k], ri)
	}
	// Batched probe, mirroring the build-left path; LEFT joins track
	// per-row match state inside the block to null-extend unmatched rows in
	// their original positions.
	blk := make([]relational.Row, 0, joinProbeBlock)
	keys := make([]uint64, joinProbeBlock)
	nulls := make([]bool, joinProbeBlock)
	flush := func() error {
		for bi, lrow := range blk {
			keys[bi], nulls[bi] = joinKey(lrow, st.lk)
		}
		for bi, lrow := range blk {
			matched := false
			if !nulls[bi] {
				for _, ri := range build[keys[bi]] {
					if !joinKeysEqual(lrow, st.lk, rightRows[ri], st.rk) {
						continue
					}
					cand := concat(lrow, rightRows[ri])
					ok, err := evalConjuncts(outRel, cand, st.residual)
					if err != nil {
						return err
					}
					if !ok {
						continue
					}
					matched = true
					if err := filtered(cand); err != nil {
						return err
					}
				}
			}
			if st.jc.Left && !matched {
				if err := filtered(concat(lrow, nullRow(len(st.right.cols)))); err != nil {
					return err
				}
			}
		}
		blk = blk[:0]
		return nil
	}
	probe := func(lrow relational.Row) error {
		blk = append(blk, lrow)
		if len(blk) == joinProbeBlock {
			return flush()
		}
		return nil
	}
	var err error
	if i == 0 && !st.jc.Left {
		// The probe side is the base scan itself: narrow it like the
		// build-left probe scan. LEFT joins emit every base row, so they
		// always read it in full.
		err = p.streamNarrowed(0, p.base, bt[0], st.lk[0], rightRows, st.rk[0], rc, probe)
	} else {
		err = p.stream(i-1, bt, rc, probe)
	}
	if err != nil {
		return err
	}
	return flush()
}

// run streams the fully joined and filtered relation to emit, optionally
// recording per-operator cardinalities into rc. Returning errStopIteration
// from emit stops the pipeline without error.
func (p *plannedQuery) run(db *relational.Database, rc *runCounts, emit func(relational.Row) error) error {
	bt, err := p.bind(db)
	if err != nil {
		return err
	}
	fullRel := &relation{cols: p.outCols}
	wrapped := func(row relational.Row) error {
		ok, err := evalConjuncts(fullRel, row, p.finalFilter)
		if err != nil || !ok {
			return err
		}
		return emit(row)
	}
	err = p.stream(len(p.steps)-1, bt, rc, wrapped)
	if errors.Is(err, errStopIteration) {
		return nil
	}
	return err
}

// newRunCounts sizes a cardinality recorder for the plan.
func (p *plannedQuery) newRunCounts() *runCounts {
	return &runCounts{
		scans:    make([]int, len(p.steps)+1),
		joins:    make([]int, len(p.steps)),
		narrowed: make([]string, len(p.steps)+1),
	}
}

// materialize collects at most limit rows (limit < 0 collects everything);
// stopped reports whether the pipeline actually cut off early at the cap.
func (p *plannedQuery) materialize(db *relational.Database, rc *runCounts, limit int) (rel *relation, stopped bool, err error) {
	rel = &relation{cols: p.outCols}
	err = p.run(db, rc, func(row relational.Row) error {
		rel.rows = append(rel.rows, row)
		if limit >= 0 && len(rel.rows) >= limit {
			stopped = true
			return errStopIteration
		}
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	return rel, stopped, nil
}

// Exists reports whether the statement yields at least one row, stopping
// at the first surviving tuple instead of materializing the result. This
// is the execution mode behind validation queries (core's PruneEmpty):
// their cost stops scaling with result size.
func Exists(db *relational.Database, stmt *SelectStmt) (bool, error) {
	if stmt.Limit == 0 {
		return false, nil
	}
	if len(stmt.GroupBy) > 0 || anyAgg(stmt) || (stmt.Distinct && stmt.Offset > 0) {
		// Aggregation changes the row count (a global aggregate always
		// yields one row) and DISTINCT interacts with OFFSET; both are
		// rare for validation queries, so fall back to full execution.
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
	need := stmt.Offset + 1
	count := 0
	fullRel := &relation{cols: p.outCols}
	columns := projectionColumns(fullRel, stmt)
	err = p.run(db, nil, func(row relational.Row) error {
		count++
		if count == 1 {
			// Error parity with Execute, which resolves the projection and
			// ORDER BY per row: evaluate them once on the first surviving
			// row so a statement Execute would reject (unknown projection
			// column, bad order key) fails here too instead of silently
			// reporting existence — pruneEmpty relies on that error to
			// mark validations as failed rather than empty.
			proj, err := projectRow(fullRel, row, stmt)
			if err != nil {
				return err
			}
			if _, err := orderKeysRow(fullRel, row, stmt, columns, proj); err != nil {
				return err
			}
		}
		if count >= need {
			return errStopIteration
		}
		return nil
	})
	if err != nil {
		return false, err
	}
	return count >= need, nil
}
