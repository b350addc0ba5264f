package relational

// MergeColumnStats combines per-partition statistics snapshots of one
// column into a single summary describing the union of the partitions —
// the coordinator-side half of statistics pushdown: shards ship their
// ColumnStats (a handful of values) instead of rows, and the planner's
// cardinality estimator keeps working over the merged view.
//
// Rows, NullCount, Min and Max are exact (sums and extrema commute with
// partitioning). Distinct is the summed per-partition count clamped to
// its information-theoretic bounds — at least the largest partition's
// count, at most the total non-NULL rows — because values shared between
// partitions cannot be seen from the summaries.
//
// The merged Version is the sum of the partition versions: any partition
// mutation changes it, so coordinators can cache merged snapshots against
// it the same way single-table consumers cache against Table.Version.
func MergeColumnStats(parts []*ColumnStats) *ColumnStats {
	if len(parts) == 0 {
		return nil
	}
	if len(parts) == 1 {
		return parts[0]
	}
	out := &ColumnStats{Column: parts[0].Column}
	maxDistinct := 0
	for _, p := range parts {
		out.Version += p.Version
		out.Rows += p.Rows
		out.NullCount += p.NullCount
		out.Distinct += p.Distinct
		maxDistinct = max(maxDistinct, p.Distinct)
		if p.Rows-p.NullCount == 0 {
			continue // empty partition carries no Min/Max
		}
		if out.Min.IsNull() || Compare(p.Min, out.Min) < 0 {
			out.Min = p.Min
		}
		if out.Max.IsNull() || Compare(p.Max, out.Max) > 0 {
			out.Max = p.Max
		}
	}
	out.Distinct = max(min(out.Distinct, out.Rows-out.NullCount), maxDistinct)
	return out
}
