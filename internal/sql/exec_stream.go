package sql

import (
	"repro/internal/relational"
)

// ExecuteStream runs a SELECT and delivers its result incrementally: start
// is called exactly once with the column header before any row, then emit
// once per result row, in result order. For statements whose tail is
// order-insensitive (no aggregation, DISTINCT or ORDER BY) the rows flow
// straight out of the planned pipeline with O(1) working memory — OFFSET
// and LIMIT are applied inline and a satisfied LIMIT stops the pipeline
// through the usual short-circuit. Statements that need the whole row set
// first (a sort, a group) fall back to materialized execution and replay
// the finished result, trading the memory bound for unchanged semantics.
//
// Error parity with Execute is exact either way: the same rows are
// projected in the same order (including the rows an OFFSET skips and the
// one row a LIMIT 0 still probes), so the first error Execute would
// surface is the first error ExecuteStream surfaces. An error from start
// or emit aborts the pipeline and is returned as-is.
//
// Emitted rows are read-only: a bare single-table SELECT * emits the
// table's stored rows themselves, without a copy.
func ExecuteStream(db *relational.Database, stmt *SelectStmt, start func(cols []string) error, emit func(row relational.Row) error) error {
	if len(stmt.GroupBy) > 0 || anyAgg(stmt) || stmt.Distinct || len(stmt.OrderBy) > 0 {
		res, err := Execute(db, stmt)
		if err != nil {
			return err
		}
		if err := start(res.Columns); err != nil {
			return err
		}
		for _, r := range res.Rows {
			if err := emit(r); err != nil {
				return err
			}
		}
		return nil
	}

	p, err := planSelect(db, stmt)
	if err != nil {
		return err
	}
	fullRel := &relation{cols: p.outCols}
	if err := start(projectionColumns(fullRel, stmt)); err != nil {
		return err
	}
	// Mirror Execute's short-circuit exactly: the pipeline stops once
	// OFFSET+LIMIT rows survived, and — like materialize, which appends
	// before checking — the stopping row is still projected, so a
	// projection error on it surfaces here too.
	cap := -1
	if stmt.Limit >= 0 {
		cap = stmt.Offset + stmt.Limit
	}
	// A bare single-table SELECT * projects every row to itself: emit the
	// stored row rather than a copy (the sink contract makes it read-only).
	bareStar := len(stmt.Joins) == 0 && len(stmt.Items) == 1 && stmt.Items[0].Star
	seen, stopped := 0, false
	err = p.run(db, nil, func(row relational.Row) error {
		proj := row
		if !bareStar {
			var perr error
			if proj, perr = projectRow(fullRel, row, stmt); perr != nil {
				return perr
			}
		}
		seen++
		if seen > stmt.Offset && (cap < 0 || seen <= cap) {
			if eerr := emit(proj); eerr != nil {
				return eerr
			}
		}
		if cap >= 0 && seen >= cap {
			stopped = true
			return errStopIteration
		}
		return nil
	})
	if err != nil {
		return err
	}
	if stopped {
		counters.limitShort.Add(1)
	}
	return nil
}
