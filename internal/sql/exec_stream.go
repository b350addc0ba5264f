package sql

import (
	"errors"
	"slices"

	"repro/internal/relational"
)

// ExecuteStream runs a SELECT and delivers its result incrementally: start
// is called exactly once with the column header before any row, then emit
// once per result row: exactly Execute's rows, in Execute's order, and
// the first error among the rows projected before the pipeline stops (see
// runTail). An error from start or emit aborts the pipeline and is
// returned as-is.
func ExecuteStream(db *relational.Database, stmt *SelectStmt, start func(cols []string) error, emit func(row relational.Row) error) error {
	p, err := planSelect(db, stmt)
	if err != nil {
		return err
	}
	rows := func(yield func(relational.Row) error) error { return p.run(db, nil, yield) }
	return runStatement(&relation{cols: p.outCols}, stmt, rows, len(p.steps) > 0, start, emit)
}

// runStatement runs stmt's tail over the rows rows yields, whose columns
// are rel's: through runTail, or, for GROUP BY, aggregates and ORDER BY,
// by collecting every row, finishing and replaying. reused reports that a
// yielded row is valid only until yield returns (a planned join's buffer,
// see plannedQuery.stream), so the collecting arm copies what it keeps;
// runTail keeps only projections, which are new rows.
func runStatement(rel *relation, stmt *SelectStmt, rows func(yield func(relational.Row) error) error, reused bool, start func([]string) error, emit func(relational.Row) error) error {
	if len(stmt.GroupBy) == 0 && !anyAgg(stmt) && len(stmt.OrderBy) == 0 {
		if err := start(projectionColumns(rel, stmt)); err != nil {
			return err
		}
		return runTail(rel, stmt, rows, emit)
	}
	all := &relation{cols: rel.cols}
	if err := rows(func(row relational.Row) error {
		if reused {
			row = slices.Clone(row)
		}
		all.rows = append(all.rows, row)
		return nil
	}); err != nil {
		return err
	}
	res, err := finish(all, stmt)
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

// collect runs stmt over rows (see runStatement) into a Result.
func collect(rel *relation, stmt *SelectStmt, rows func(yield func(relational.Row) error) error, reused bool) (*Result, error) {
	res := &Result{Rows: []relational.Row{}}
	err := runStatement(rel, stmt, rows, reused,
		func(cols []string) error { res.Columns = cols; return nil },
		func(row relational.Row) error { res.Rows = append(res.Rows, row); return nil })
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runTail is the order-insensitive statement tail behind Execute,
// ExecuteStream, Exists and ExecuteRows: it projects each row rows yields,
// drops a DISTINCT duplicate of an earlier projection (keeping the first),
// skips OFFSET rows and emits the rest in yield order. Once OFFSET+LIMIT
// rows survived it stops rows and counts one short-circuit; LIMIT 0 runs
// nothing. The first error from a projection, rows or emit is returned.
// A bare single-table SELECT * emits the yielded rows without a copy.
func runTail(rel *relation, stmt *SelectStmt, rows func(yield func(relational.Row) error) error, emit func(relational.Row) error) error {
	if stmt.Limit == 0 {
		return nil
	}
	bareStar := len(stmt.Joins) == 0 && len(stmt.Items) == 1 && stmt.Items[0].Star
	var seen map[uint64][]relational.Row // DISTINCT rows by hashValues
	n := 0                               // rows past DISTINCT so far
	err := rows(func(row relational.Row) error {
		proj := row
		if !bareStar {
			var err error
			if proj, err = projectRow(rel, row, stmt); err != nil {
				return err
			}
		}
		if stmt.Distinct {
			k := hashValues(proj)
			for _, prev := range seen[k] {
				if valuesEqual(prev, proj) {
					return nil
				}
			}
			if seen == nil {
				seen = make(map[uint64][]relational.Row)
			}
			seen[k] = append(seen[k], proj)
		}
		n++
		if n > stmt.Offset {
			if err := emit(proj); err != nil {
				return err
			}
		}
		if stmt.Limit > 0 && n == stmt.Offset+stmt.Limit {
			counters.limitShort.Add(1)
			return errStopIteration
		}
		return nil
	})
	if errors.Is(err, errStopIteration) {
		return nil
	}
	return err
}
