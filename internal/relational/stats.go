package relational

// ColumnStats summarizes one column at a fixed table version: the row and
// NULL counts, the number of distinct non-NULL values and their extrema.
// That is all Selinger-style costing of equi-join trees reads — join
// selectivity is 1/max(V(l), V(r)), and an equality literal keeps
// nonNull/Distinct rows. Consumers (the SQL planner's cardinality
// estimator) obtain it through Table.Stats; a snapshot is immutable and
// safe to share, but only describes Version.
type ColumnStats struct {
	Column  string
	Version uint64 // Table.Version the snapshot was taken at

	Rows      int // total rows, NULLs included
	NullCount int
	Distinct  int // distinct non-NULL values
	Min, Max  Value
}

// NullFraction returns the fraction of rows that are NULL.
func (cs *ColumnStats) NullFraction() float64 {
	if cs.Rows == 0 {
		return 0
	}
	return float64(cs.NullCount) / float64(cs.Rows)
}

// EstimateEq estimates how many rows equal v: the non-NULL rows spread
// uniformly over the distinct values (at least one row), and zero outside
// the observed [Min, Max] range. NULL never equals anything.
func (cs *ColumnStats) EstimateEq(v Value) int {
	nonNull := cs.Rows - cs.NullCount
	if v.IsNull() || nonNull <= 0 || cs.Distinct <= 0 {
		return 0
	}
	if Compare(v, cs.Min) < 0 || Compare(v, cs.Max) > 0 {
		return 0
	}
	return max(nonNull/cs.Distinct, 1)
}

// colSummary is the per-column state Insert maintains exactly once a
// column's statistics have been asked for: NULL count and extrema, and
// the distinct non-NULL keys unless the column has a hash index, whose
// key count is the distinct count. snap is the last snapshot handed out.
type colSummary struct {
	nulls    int
	min, max Value
	keys     map[string]struct{} // nil while the column has a hash index
	snap     *ColumnStats
}

// note absorbs one cell. Among equal extrema Min keeps the first row's
// value and Max the last's, as in value order with ties kept in row order.
func (s *colSummary) note(v Value) {
	if v.IsNull() {
		s.nulls++
		return
	}
	if s.min.IsNull() || Compare(v, s.min) < 0 {
		s.min = v
	}
	if s.max.IsNull() || Compare(v, s.max) >= 0 {
		s.max = v
	}
	if s.keys != nil {
		s.keys[v.Key()] = struct{}{}
	}
}

// summarizeLocked builds the column's summary from every row. Caller
// holds idxMu.
func (t *Table) summarizeLocked(ord int) *colSummary {
	s := &colSummary{}
	if _, ok := t.colIndexes[ord]; !ok {
		s.keys = make(map[string]struct{})
	}
	for _, r := range t.rows {
		s.note(r[ord])
	}
	return s
}

// snapshotLocked returns the summary as an immutable snapshot at the
// current version. Caller holds idxMu.
func (t *Table) snapshotLocked(ord int, s *colSummary) *ColumnStats {
	cs := &ColumnStats{
		Column:    t.Schema.Columns[ord].Name,
		Version:   t.version.Load(),
		Rows:      len(t.rows),
		NullCount: s.nulls,
		Min:       s.min,
		Max:       s.max,
	}
	if idx, ok := t.colIndexes[ord]; ok {
		// The hash index is insert-maintained over the same keys, so the
		// key set is redundant from here on.
		s.keys = nil
		cs.Distinct = len(idx)
	} else {
		cs.Distinct = len(s.keys)
	}
	return cs
}

// Stats returns the statistics snapshot for the named column. The first
// call builds the column's summary with one pass over the rows; from then
// on Insert keeps it exact, and a call after an insert takes a fresh
// snapshot of it, so a snapshot whose Version trails the table's is never
// served. Safe for concurrent use, including concurrently with Insert; the
// returned object is immutable.
func (t *Table) Stats(column string) (*ColumnStats, error) {
	ord := t.Schema.ColumnIndex(column)
	if ord < 0 {
		return nil, columnError(t, column)
	}
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	s, ok := t.summaries[ord]
	if !ok {
		s = t.summarizeLocked(ord)
		if t.summaries == nil {
			t.summaries = make(map[int]*colSummary)
		}
		t.summaries[ord] = s
		t.statsBuilds++
	} else if s.snap.Version == t.version.Load() {
		return s.snap, nil
	}
	s.snap = t.snapshotLocked(ord, s)
	return s.snap, nil
}
