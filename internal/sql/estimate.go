package sql

import "repro/internal/relational"

// Cardinality estimation from relational.ColumnStats: row counts, NULL
// counts, distinct counts and extrema. Equality and IN-list conjuncts
// keep nonNull/Distinct rows per literal (none outside [Min, Max]),
// nullity conjuncts the NULL fraction, and equi-joins 1/max(V(l), V(r)) —
// the Selinger-style costing that the engine's conjunctive MATCH filters
// over equi-join trees need. Range conjuncts, like every other shape the
// statistics cannot see through, take a default selectivity.

// Default selectivities for predicate shapes the statistics cannot see
// through: pattern operators inspect text content and everything else
// (ranges, arithmetic comparisons between columns, OR over unestimable
// branches) gets the classic one-third guess.
const (
	defaultPatternSelectivity = 0.1
	defaultSelectivity        = 1.0 / 3
)

// maxEstRows caps cardinality estimates; the float math is clamped here
// before the int conversion so products over many relations cannot
// overflow.
const maxEstRows = 1 << 40

// clampEst converts a float estimate to a non-negative, overflow-safe int.
func clampEst(f float64) int {
	if f < 0 {
		return 0
	}
	if f > maxEstRows {
		return maxEstRows
	}
	return int(f)
}

// clampSel bounds a selectivity to [0, 1].
func clampSel(s float64) float64 {
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// statsFor fetches the statistics snapshot for a local column ordinal,
// returning nil when the column cannot be resolved (the conjunct then gets
// a default selectivity).
func statsFor(t *relational.Table, ord int) *relational.ColumnStats {
	if t == nil || ord < 0 || ord >= len(t.Schema.Columns) {
		return nil
	}
	cs, err := t.Stats(t.Schema.Columns[ord].Name)
	if err != nil {
		return nil
	}
	return cs
}

// predSelectivity estimates the fraction of the table's rows a single-table
// conjunct keeps, using column statistics where the shape allows and
// conservative defaults elsewhere.
func predSelectivity(t *relational.Table, local *relation, c Expr) float64 {
	rows := float64(t.Len())
	if rows == 0 {
		return 1
	}
	switch x := c.(type) {
	case *BinaryExpr:
		switch x.Op {
		case OpAnd:
			return clampSel(predSelectivity(t, local, x.Left) * predSelectivity(t, local, x.Right))
		case OpOr:
			l := predSelectivity(t, local, x.Left)
			r := predSelectivity(t, local, x.Right)
			return clampSel(l + r - l*r)
		case OpEq, OpNe:
			ord, v, ok := localCmpLiteral(local, x)
			if !ok {
				return defaultSelectivity
			}
			cs := statsFor(t, ord)
			if cs == nil {
				return defaultSelectivity
			}
			eq := float64(cs.EstimateEq(v)) / rows
			if x.Op == OpNe {
				return clampSel(1 - cs.NullFraction() - eq)
			}
			return clampSel(eq)
		case OpLike, OpMatch:
			return defaultPatternSelectivity
		}
		return defaultSelectivity
	case *InExpr:
		cr, okRef := x.Inner.(*ColumnRef)
		if !okRef {
			return defaultSelectivity
		}
		ord, err := local.resolve(cr)
		if err != nil {
			return defaultSelectivity
		}
		cs := statsFor(t, ord)
		if cs == nil {
			return defaultSelectivity
		}
		sum := 0.0
		for _, item := range x.List {
			l, isLit := item.(*Literal)
			if !isLit {
				return defaultSelectivity
			}
			if l.Value.IsNull() {
				continue
			}
			sum += float64(cs.EstimateEq(l.Value))
		}
		return clampSel(sum / rows)
	case *IsNullExpr:
		var refs []*ColumnRef
		collectRefs(x.Inner, &refs)
		if len(refs) != 1 {
			return defaultSelectivity
		}
		ord, err := local.resolve(refs[0])
		if err != nil {
			return defaultSelectivity
		}
		cs := statsFor(t, ord)
		if cs == nil {
			return defaultSelectivity
		}
		if x.Negate {
			return clampSel(1 - cs.NullFraction())
		}
		return clampSel(cs.NullFraction())
	case *NotExpr:
		return clampSel(1 - predSelectivity(t, local, x.Inner))
	}
	return defaultSelectivity
}

// localCmpLiteral deconstructs any `col op literal` comparison (either side
// order) against the local relation.
func localCmpLiteral(local *relation, be *BinaryExpr) (ord int, v relational.Value, ok bool) {
	ref, lit := be.Left, be.Right
	if _, isRef := ref.(*ColumnRef); !isRef {
		ref, lit = be.Right, be.Left
	}
	cr, okRef := ref.(*ColumnRef)
	l, okLit := lit.(*Literal)
	if !okRef || !okLit || l.Value.IsNull() {
		return 0, relational.Null(), false
	}
	ord, err := local.resolve(cr)
	if err != nil {
		return 0, relational.Null(), false
	}
	return ord, l.Value, true
}

// columnDistinct returns the distinct count of a scan node's local column,
// falling back to the scan estimate when statistics are unavailable. It
// feeds the equi-join selectivity 1/max(V(l), V(r)).
func columnDistinct(t *relational.Table, n *scanNode, localOrd int) int {
	cs := statsFor(t, localOrd)
	if cs == nil || cs.Distinct == 0 {
		if n.est > 0 {
			return n.est
		}
		return 1
	}
	return cs.Distinct
}

// equiSelectivity is the textbook equi-join selectivity for key columns
// with lv and rv distinct values.
func equiSelectivity(lv, rv int) float64 {
	v := lv
	if rv > v {
		v = rv
	}
	if v < 1 {
		v = 1
	}
	return 1 / float64(v)
}
