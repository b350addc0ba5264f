package sql

import (
	"repro/internal/relational"
)

// This file compiles the scan's pushed-predicate filter. Pushed
// conjuncts of simple single-column shapes (column vs literal comparison,
// LIKE/MATCH against a literal, IS [NOT] NULL, IN over a literal list)
// compile at plan time into closures over one column ordinal, which every
// scan calls row by row (vecPass) instead of walking the expression tree
// per row. Compilation is all-or-nothing per scan: one conjunct outside
// the compilable shapes and the scan keeps the interpreter, so semantics
// (and error behaviour — compiled shapes cannot raise) never fork.
//
// The compiled closures replicate eval's three-valued logic exactly: a
// NULL operand makes a comparison UNKNOWN and an UNKNOWN conjunct rejects
// the row, so every closure returns "is TRUE", never "is not FALSE".
//
// A literal IN list compiles to a hashed set (inSet) whose answers are
// exactly relational.Equal's against each literal, in time independent of
// the list length — semi-join-reduced fragments ship lists of up to 1 024
// join keys:
//   - numbers (INT and FLOAT alike) are keyed by their float64 widening,
//     the value Compare orders by, so ints that round to the same float64
//     (above 2^53) match each other and +0 matches -0;
//   - NaN compares equal to every number, so a NaN value matches any list
//     holding a numeric literal and a NaN literal matches every number;
//   - strings and booleans match within their own kind only; a value of
//     any other kind never matches;
//   - a NULL value never matches, and NULL literals drop out (they can
//     only turn FALSE into UNKNOWN, and both reject the row).

// colPred is one compiled pushed conjunct: fn reports whether the conjunct
// is TRUE for a value of column ord.
type colPred struct {
	ord int
	fn  func(relational.Value) bool
}

// compileVecPreds compiles every pushed conjunct of a scan, or reports
// failure when any conjunct falls outside the compilable shapes.
func compileVecPreds(local *relation, preds []Expr) ([]colPred, bool) {
	out := make([]colPred, 0, len(preds))
	for _, c := range preds {
		p, ok := compileVecPred(local, c)
		if !ok {
			return nil, false
		}
		out = append(out, p)
	}
	return out, true
}

func compileVecPred(local *relation, c Expr) (colPred, bool) {
	switch x := c.(type) {
	case *IsNullExpr:
		cr, ok := x.Inner.(*ColumnRef)
		if !ok {
			return colPred{}, false
		}
		ord, err := local.resolve(cr)
		if err != nil {
			return colPred{}, false
		}
		negate := x.Negate
		return colPred{ord: ord, fn: func(v relational.Value) bool {
			return v.IsNull() != negate
		}}, true
	case *InExpr:
		cr, ok := x.Inner.(*ColumnRef)
		if !ok {
			return colPred{}, false
		}
		ord, err := local.resolve(cr)
		if err != nil {
			return colPred{}, false
		}
		// Only literal lists compile.
		lits, ok := literalValues(x.List)
		if !ok {
			return colPred{}, false
		}
		return colPred{ord: ord, fn: newInSet(lits).contains}, true
	case *BinaryExpr:
		return compileVecBinary(local, x)
	}
	return colPred{}, false
}

// literalValues returns the non-NULL values of an all-literal IN list, or
// false when some item is not a literal.
func literalValues(list []Expr) ([]relational.Value, bool) {
	lits := make([]relational.Value, 0, len(list))
	for _, item := range list {
		l, isLit := item.(*Literal)
		if !isLit {
			return nil, false
		}
		if !l.Value.IsNull() {
			lits = append(lits, l.Value)
		}
	}
	return lits, true
}

// inSet is a compiled literal IN list; contains answers exactly as
// relational.Equal against each literal would (see the file comment).
type inSet struct {
	nums     map[float64]struct{} // non-NaN numeric literals, widened
	anyNum   bool                 // some numeric literal, NaN included
	nanLit   bool                 // some NaN literal
	strs     map[string]struct{}
	hasTrue  bool
	hasFalse bool
}

func newInSet(lits []relational.Value) *inSet {
	s := &inSet{}
	for _, v := range lits {
		switch v.Type() {
		case relational.TypeInt, relational.TypeFloat:
			s.anyNum = true
			f := v.AsFloat()
			if f != f {
				s.nanLit = true
				continue
			}
			if s.nums == nil {
				s.nums = make(map[float64]struct{}, len(lits))
			}
			s.nums[f] = struct{}{}
		case relational.TypeString:
			if s.strs == nil {
				s.strs = make(map[string]struct{}, len(lits))
			}
			s.strs[v.AsString()] = struct{}{}
		case relational.TypeBool:
			if v.AsBool() {
				s.hasTrue = true
			} else {
				s.hasFalse = true
			}
		}
	}
	return s
}

func (s *inSet) contains(v relational.Value) bool {
	switch v.Type() {
	case relational.TypeInt, relational.TypeFloat:
		if !s.anyNum {
			return false
		}
		f := v.AsFloat()
		if s.nanLit || f != f {
			return true
		}
		_, ok := s.nums[f]
		return ok
	case relational.TypeString:
		_, ok := s.strs[v.AsString()]
		return ok
	case relational.TypeBool:
		if v.AsBool() {
			return s.hasTrue
		}
		return s.hasFalse
	}
	return false
}

// compileVecBinary compiles `col op literal` (either operand order) for
// the comparison operators plus LIKE and MATCH.
func compileVecBinary(local *relation, x *BinaryExpr) (colPred, bool) {
	cr, colLeft := x.Left.(*ColumnRef)
	lit, litRight := x.Right.(*Literal)
	if !colLeft || !litRight {
		cr2, colRight := x.Right.(*ColumnRef)
		lit2, litLeft := x.Left.(*Literal)
		if !colRight || !litLeft {
			return colPred{}, false
		}
		cr, lit = cr2, lit2
		colLeft = false
	}
	ord, err := local.resolve(cr)
	if err != nil {
		return colPred{}, false
	}
	litv := lit.Value
	if litv.IsNull() {
		// NULL operand: the comparison is UNKNOWN for every row, LIKE and
		// MATCH likewise — nothing passes.
		switch x.Op {
		case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpLike, OpMatch:
			return colPred{ord: ord, fn: func(relational.Value) bool { return false }}, true
		}
		return colPred{}, false
	}
	op := x.Op
	if !colLeft {
		// Normalize `lit op col` to `col op' lit`: Eq/Ne are symmetric,
		// order comparisons flip direction.
		switch op {
		case OpLt:
			op = OpGt
		case OpLe:
			op = OpGe
		case OpGt:
			op = OpLt
		case OpGe:
			op = OpLe
		case OpEq, OpNe:
		default:
			// LIKE/MATCH are not symmetric; compile only the column-left
			// orientation below.
			return colPred{}, false
		}
	}
	switch op {
	case OpEq:
		return colPred{ord: ord, fn: func(v relational.Value) bool {
			return !v.IsNull() && relational.Compare(v, litv) == 0
		}}, true
	case OpNe:
		return colPred{ord: ord, fn: func(v relational.Value) bool {
			return !v.IsNull() && relational.Compare(v, litv) != 0
		}}, true
	case OpLt:
		return colPred{ord: ord, fn: func(v relational.Value) bool {
			return !v.IsNull() && relational.Compare(v, litv) < 0
		}}, true
	case OpLe:
		return colPred{ord: ord, fn: func(v relational.Value) bool {
			return !v.IsNull() && relational.Compare(v, litv) <= 0
		}}, true
	case OpGt:
		return colPred{ord: ord, fn: func(v relational.Value) bool {
			return !v.IsNull() && relational.Compare(v, litv) > 0
		}}, true
	case OpGe:
		return colPred{ord: ord, fn: func(v relational.Value) bool {
			return !v.IsNull() && relational.Compare(v, litv) >= 0
		}}, true
	case OpLike:
		pat := litv.AsString()
		return colPred{ord: ord, fn: func(v relational.Value) bool {
			return !v.IsNull() && likeMatch(v.AsString(), pat)
		}}, true
	case OpMatch:
		// Fold the query tokens once at compile time; MatchText re-folds
		// them per row.
		qt := FoldTokens(litv.AsString())
		if len(qt) == 0 {
			return colPred{ord: ord, fn: func(relational.Value) bool { return false }}, true
		}
		return colPred{ord: ord, fn: func(v relational.Value) bool {
			if v.IsNull() {
				return false
			}
			set := make(map[string]bool)
			for _, t := range FoldTokens(v.AsString()) {
				set[t] = true
			}
			for _, q := range qt {
				if !set[q] {
					return false
				}
			}
			return true
		}}, true
	}
	return colPred{}, false
}

// compileVec compiles the pushed-predicate filter of every scan in the plan.
// Called once at the end of planning; the compiled closures are stateless,
// so the shared plan stays safe for concurrent executions.
func (p *plannedQuery) compileVec() {
	nodes := []*scanNode{p.base}
	for _, st := range p.steps {
		nodes = append(nodes, st.right)
	}
	for _, n := range nodes {
		if preds, ok := compileVecPreds(&relation{cols: n.cols}, n.pushed); ok {
			n.vec, n.vecOK = preds, true
		}
	}
}

// vecPass reports whether row passes every compiled conjunct.
func vecPass(preds []colPred, row relational.Row) bool {
	for _, pr := range preds {
		if !pr.fn(row[pr.ord]) {
			return false
		}
	}
	return true
}
