package shard

import (
	"context"
	"slices"
	"sort"

	"repro/internal/relational"
	"repro/internal/sql"
)

// Semi-join reduction at the coordinator.
//
// A join statement's fragments are not all shipped at once. The fragments
// that filter on their own (pushed conjuncts: the keyword selections of a
// candidate network) are gathered first. Every other fragment waits until
// a neighbour on an equi-join edge has been gathered, and is then shipped
// with the neighbour's distinct join keys as a pushed `col IN (...)` list,
// so a shard returns only the rows that can join instead of its whole
// partition of a link table. Reduced fragments keyed on a primary key are
// partition-pruned as well. Waves repeat until every fragment is gathered;
// when no pending fragment can be reduced (its neighbours' key sets are
// too large), those next to a gathered one are shipped whole and the
// waves go on from them. A join without any self-filtering fragment
// starts from its smallest table.
//
// The reduction is exact. It applies only when sql.InnerJoinKeys vouches
// for the statement (all-inner joins whose ONs are pure equi-join keys), a
// reduced fragment loses only rows that match no row of a neighbour and so
// can appear in no joined row, and the IN list matches every row the join
// would match (Value.Key equality, which the join's match implies). Shards
// answer the IN list through the column's equality index in ascending row
// order (or a full scan filtering in row order), so a reduced fragment is
// an order-preserving subsequence of the unreduced one, and ExecuteRows
// emits the same rows in the same order. Only fragments without pushed
// conjuncts are ever deferred or skipped, and those cannot raise a
// row-level error, so error disposition is unchanged too.
//
// As soon as a gathered side of the inner join is empty, or a key set is
// empty, the result is empty: the fragments not yet shipped are skipped,
// which is what makes refuting existence probes cheap. Existence probes
// run the same waves over key-only fragments (sql.ExistsFragments), so
// key sets are read at each key's position in the narrowed rows
// (TableFragment.Pos).

const (
	// semiJoinMaxKeys caps the key set shipped as one IN list. Past it the
	// statement text and the shard-side parse cost more than the rows the
	// list saves.
	semiJoinMaxKeys = 1024
	// semiJoinDivisor bounds a key set against the target table as well:
	// it is shipped only while it holds fewer than 1/semiJoinDivisor of
	// the table's rows (merged statistics) — the same bound the planner's
	// index-narrowed scans apply to one table.
	semiJoinDivisor = 4
)

// gatherReduced gathers every fragment, semi-join reduced along edges (the
// statement's sql.InnerJoinKeys; nil when the reduction is not sound), and
// returns the row sets for ExecuteRows or SemiJoinExists. Fragments
// skipped because the join is provably empty come back empty.
func (s *ShardedSource) gatherReduced(ctx context.Context, frags []sql.TableFragment, edges []sql.KeyEdge) ([][]relational.Row, error) {
	tables := make([][]relational.Row, len(frags))
	var wave, pending []int
	for fi := range frags {
		if edges != nil && len(frags[fi].Pushed) == 0 {
			pending = append(pending, fi)
		} else {
			wave = append(wave, fi)
		}
	}
	if len(wave) == 0 {
		// Nothing filters: start from the smallest table, whose keys may
		// still reduce its neighbours; with a size unknown, ship them all.
		all := pending // every fragment, all[i] == i
		wave, pending = all, nil
		if fi, ok := s.smallestTable(frags); ok {
			wave, pending = []int{fi}, slices.Delete(all, fi, fi+1)
		}
	}
	done := make([]bool, len(frags))
	for {
		if err := s.gatherWave(ctx, frags, wave, tables); err != nil {
			return nil, err
		}
		for _, fi := range wave {
			done[fi] = true
			if len(tables[fi]) == 0 && len(pending) > 0 {
				// pending is only non-empty for an all-inner join, which
				// an empty side empties.
				s.c.skipped.Add(uint64(len(pending)))
				return tables, nil
			}
		}
		if len(pending) == 0 {
			return tables, nil
		}
		var empty bool
		wave, pending, empty = s.reduceWave(frags, edges, tables, done, pending)
		if empty {
			s.c.skipped.Add(uint64(len(pending)))
			return tables, nil
		}
	}
}

// smallestTable returns the fragment over the table with the fewest rows,
// or ok=false when some table's size is unknown.
func (s *ShardedSource) smallestTable(frags []sql.TableFragment) (smallest int, ok bool) {
	least := -1
	for fi := range frags {
		n, known := s.tableRows(frags[fi].Ref.Table)
		if !known {
			return 0, false
		}
		if least < 0 || n < least {
			smallest, least = fi, n
		}
	}
	return smallest, true
}

// reduceWave picks the next wave among the pending fragments: each one
// with a gathered neighbour whose key set is small enough is restricted to
// it (in place, in frags) and joins the wave; the others stay pending. When
// none can be reduced, the pending fragments next to a gathered one are
// the wave, shipped whole, so that their own keys can reduce the rest.
// empty reports a neighbour key set with no non-NULL key, which empties
// the join.
func (s *ShardedSource) reduceWave(frags []sql.TableFragment, edges []sql.KeyEdge, tables [][]relational.Row,
	done []bool, pending []int) (wave, rest []int, empty bool) {
	type restriction struct {
		col  int
		keys []relational.Value
	}
	plans := make([][]restriction, len(pending))
	adjacent := make([]bool, len(pending))
	for pi, fi := range pending {
		limit := s.keyLimit(frags[fi].Ref.Table)
		for _, e := range edges {
			col, src, srcCol := e.ACol, e.B, e.BCol
			if e.B == fi {
				col, src, srcCol = e.BCol, e.A, e.ACol
			} else if e.A != fi {
				continue
			}
			if !done[src] {
				continue
			}
			adjacent[pi] = true
			keys, ok := keySet(tables[src], frags[src].Pos(srcCol), limit)
			if !ok {
				continue
			}
			if len(keys) == 0 {
				return nil, pending, true
			}
			plans[pi] = append(plans[pi], restriction{col: col, keys: keys})
		}
	}
	for pi, fi := range pending {
		rs := plans[pi]
		if len(rs) == 0 {
			rest = append(rest, fi)
			continue
		}
		// The smallest list first: the shard planner serves the first IN
		// conjunct from the index and filters the others per row.
		sort.SliceStable(rs, func(i, j int) bool { return len(rs[i].keys) < len(rs[j].keys) })
		for _, r := range rs {
			frags[fi] = frags[fi].Restrict(s.schema, r.col, r.keys)
		}
		s.c.reduced.Add(1)
		wave = append(wave, fi)
	}
	if len(wave) > 0 {
		return wave, rest, false
	}
	rest = rest[:0]
	for pi, fi := range pending {
		if adjacent[pi] {
			wave = append(wave, fi)
		} else {
			rest = append(rest, fi)
		}
	}
	return wave, rest, false
}

// keySet returns the distinct non-NULL values at position col of rows, in
// first-occurrence order, or ok=false once there are more than limit of
// them or a value is neither an integer nor a string (the key types whose
// literal form round-trips exactly through the fragment SQL).
func keySet(rows []relational.Row, col, limit int) (keys []relational.Value, ok bool) {
	n := min(len(rows), limit)
	seen := make(map[relational.Value]struct{}, n)
	keys = make([]relational.Value, 0, n)
	for _, r := range rows {
		v := r[col]
		switch v.Type() {
		case relational.TypeNull:
			continue
		case relational.TypeInt, relational.TypeString:
		default:
			return nil, false
		}
		if _, dup := seen[v]; dup {
			continue
		}
		if len(keys) == limit {
			return nil, false
		}
		seen[v] = struct{}{}
		keys = append(keys, v)
	}
	return keys, true
}

// keyLimit is the largest key set worth shipping to table: semiJoinMaxKeys,
// and below 1/semiJoinDivisor of the table's rows when its size is known.
func (s *ShardedSource) keyLimit(table string) int {
	limit := semiJoinMaxKeys
	if n, ok := s.tableRows(table); ok && (n-1)/semiJoinDivisor < limit {
		limit = (n - 1) / semiJoinDivisor
	}
	return limit
}

// tableRows returns the table's total row count across shards. Owned
// shards are counted directly; injected backends answer once through the
// merged column statistics, and the count is then kept for the source's
// lifetime — it only sizes the reduction, so a stale count can cost
// bandwidth but never change a result.
func (s *ShardedSource) tableRows(table string) (int, bool) {
	if s.dbs != nil {
		n := 0
		for _, db := range s.dbs {
			n += db.Table(table).Len()
		}
		return n, true
	}
	s.sizeMu.Lock()
	n, cached := s.sizes[table]
	s.sizeMu.Unlock()
	if !cached {
		n = -1
		if ts := s.schema.Table(table); ts != nil && len(ts.Columns) > 0 {
			if cs, err := s.ColumnStatistics(table, ts.Columns[0].Name); err == nil {
				n = cs.Rows
			}
		}
		s.sizeMu.Lock()
		s.sizes[table] = n
		s.sizeMu.Unlock()
	}
	return n, n >= 0
}
