package relational

import "sort"

// Incremental maintenance keeps the read side cheap under mixed
// insert/query traffic: one Insert bumps the table version, yet the next
// query pays neither a whole-column statistics rebuild nor a full
// sorted-index rebuild.
//
//   - Column statistics are delta-maintained: Insert records each new cell
//     in a per-column delta (row/null counts, min/max extension, new value
//     keys), and Stats folds the delta into the last full snapshot in
//     place of a rebuild — exact for rows/nulls/min/max, bounded-error for
//     distinct, with the histogram carried budget-stale. Once the delta
//     outgrows the staleness budget (statsStalenessInserts inserts or
//     statsStalenessFraction growth, whichever is larger) the next Stats
//     call rebuilds from scratch — by full sort below statsSampleRows
//     rows, by stride sampling above it.
//   - Sorted secondary indexes absorb inserts into a sorted side-run that
//     range scans merge on read; only when the side-run exceeds
//     sortedSideRunThreshold is it collapsed back into the main run (a
//     linear merge, counted as a rebuild).
//
// Each ColumnStats carries a Freshness label (fresh / budget-stale /
// sampled) so the planner and ExplainAnalyze can report which kind of
// estimate a plan was built from. MaintenanceStats exposes the counters
// that make rebuild-avoidance observable.

// Constants of the mixed read/write hot path: how stale maintained
// statistics may grow, and when sorted side-runs and statistics rebuilds
// change strategy.
const (
	// statsStalenessInserts is the flat part of the staleness budget: a
	// column's delta-maintained statistics may absorb this many inserts
	// before a histogram/MCV rebuild is forced.
	statsStalenessInserts = 64
	// statsStalenessFraction is the proportional part of the budget:
	// deltas may grow to this fraction of the base snapshot's row count.
	// The effective budget is max(statsStalenessInserts, fraction*rows).
	statsStalenessFraction = 0.10
	// sortedSideRunThreshold bounds the sorted side-run; one more insert
	// collapses it into the main run (linear merge, counted as a rebuild).
	sortedSideRunThreshold = 256
	// statsSampleRows is the table size above which a forced statistics
	// rebuild samples rather than sorts every value.
	statsSampleRows = 65536
	// statsSampleSize is how many values the sampled rebuild examines.
	statsSampleSize = 16384
)

// Freshness labels carried by ColumnStats.Freshness. The empty string
// (statistics that predate the label, or that crossed the wire) reads as
// fresh. worseFreshness orders them.
const (
	StatsFresh       = "fresh"
	StatsBudgetStale = "budget-stale"
	StatsSampled     = "sampled"
)

// statsDeltaKeyCap bounds the per-column delta key map; a delta that
// overflows it forces a rebuild instead of an in-place fold.
const statsDeltaKeyCap = 4096

// statsDelta accumulates what Insert has appended to one column since its
// base statistics snapshot was built.
type statsDelta struct {
	rows   int // total inserts, NULLs included
	nulls  int
	hasVal bool  // min/max hold at least one non-NULL value
	min    Value // of the inserted non-NULL values
	max    Value
	// newKeys counts inserted occurrences per value key. It both bumps
	// matching MCV counts and bounds the distinct estimate; overflow past
	// statsDeltaKeyCap disables the in-place fold.
	newKeys  map[string]int
	overflow bool
}

func (d *statsDelta) note(v Value) {
	d.rows++
	if v.IsNull() {
		d.nulls++
		return
	}
	if !d.hasVal {
		d.min, d.max, d.hasVal = v, v, true
	} else {
		if Compare(v, d.min) < 0 {
			d.min = v
		}
		if Compare(v, d.max) > 0 {
			d.max = v
		}
	}
	if d.overflow {
		return
	}
	if d.newKeys == nil {
		d.newKeys = make(map[string]int)
	}
	k := v.Key()
	if _, ok := d.newKeys[k]; !ok && len(d.newKeys) >= statsDeltaKeyCap {
		d.overflow = true
		return
	}
	d.newKeys[k]++
}

// colMaint is the maintenance state for one column: the last fully built
// snapshot plus everything inserted since.
type colMaint struct {
	base  *ColumnStats
	delta statsDelta
}

// withinBudget reports whether the delta is still small enough to fold
// into the base instead of rebuilding.
func (m *colMaint) withinBudget() bool {
	if m.delta.overflow {
		return false
	}
	budget := statsStalenessInserts
	if f := int(statsStalenessFraction * float64(m.base.Rows)); f > budget {
		budget = f
	}
	return m.delta.rows <= budget
}

// applyDeltaLocked folds the accumulated delta into the base snapshot,
// producing a new budget-stale ColumnStats at the current table version.
// Rows, NullCount and Min/Max are exact; MCV counts are exact for values
// the base already tracked; Distinct is exact when a hash index exists and
// otherwise an over-estimate bounded by the delta size; the histogram is
// carried from the base unchanged. Caller holds idxMu.
func (t *Table) applyDeltaLocked(ord int, m *colMaint) *ColumnStats {
	b, d := m.base, &m.delta
	cs := &ColumnStats{
		Column:    b.Column,
		Version:   t.version.Load(),
		Rows:      b.Rows + d.rows,
		NullCount: b.NullCount + d.nulls,
		Min:       b.Min,
		Max:       b.Max,
		Buckets:   b.Buckets,
		Freshness: StatsBudgetStale,
	}
	if b.Rows-b.NullCount == 0 {
		cs.Min, cs.Max = d.min, d.max
	} else if d.hasVal {
		if Compare(d.min, cs.Min) < 0 {
			cs.Min = d.min
		}
		if Compare(d.max, cs.Max) > 0 {
			cs.Max = d.max
		}
	}
	if len(b.MCVs) > 0 {
		cs.MCVs = make([]MCV, len(b.MCVs))
		copy(cs.MCVs, b.MCVs)
		for i := range cs.MCVs {
			if n := d.newKeys[cs.MCVs[i].Value.Key()]; n > 0 {
				cs.MCVs[i].Count += n
			}
		}
	}
	cs.Rehydrate()
	if idx, ok := t.colIndexes[ord]; ok {
		// The hash index is insert-maintained, so its key count is the
		// exact distinct count.
		cs.Distinct = len(idx)
	} else {
		extra := 0
		for k := range d.newKeys {
			if !mcvHasKey(b, k) {
				extra++
			}
		}
		cs.Distinct = b.Distinct + extra
	}
	if nonNull := cs.Rows - cs.NullCount; cs.Distinct > nonNull {
		cs.Distinct = nonNull
	}
	return cs
}

func mcvHasKey(cs *ColumnStats, key string) bool {
	for _, m := range cs.MCVs {
		if m.Value.Key() == key {
			return true
		}
	}
	return false
}

// sampleColumnStats rebuilds statistics for a large column by stride
// sampling: one full pass still yields exact Rows/NullCount/Min/Max, but
// the sort that feeds the histogram, MCVs and distinct estimate only sees
// ~statsSampleSize values, with counts scaled back up. Caller holds idxMu.
func sampleColumnStats(t *Table, ord int) *ColumnStats {
	cs := &ColumnStats{
		Column:    t.Schema.Columns[ord].Name,
		Version:   t.version.Load(),
		Rows:      len(t.rows),
		Freshness: StatsSampled,
	}
	vals := make([]Value, 0, len(t.rows))
	for _, r := range t.rows {
		if r[ord].IsNull() {
			cs.NullCount++
			continue
		}
		v := r[ord]
		if len(vals) == 0 {
			cs.Min, cs.Max = v, v
		} else {
			if Compare(v, cs.Min) < 0 {
				cs.Min = v
			}
			if Compare(v, cs.Max) > 0 {
				cs.Max = v
			}
		}
		vals = append(vals, v)
	}
	if len(vals) == 0 {
		return cs
	}
	stride := (len(vals) + statsSampleSize - 1) / statsSampleSize
	if stride < 1 {
		stride = 1
	}
	sample := make([]Value, 0, len(vals)/stride+1)
	for i := 0; i < len(vals); i += stride {
		sample = append(sample, vals[i])
	}
	sort.SliceStable(sample, func(i, j int) bool { return Compare(sample[i], sample[j]) < 0 })

	type run struct {
		v     Value
		count int
	}
	var runs []run
	start := 0
	for i := 1; i <= len(sample); i++ {
		if i < len(sample) && Compare(sample[i], sample[start]) == 0 {
			continue
		}
		runs = append(runs, run{v: sample[start], count: i - start})
		start = i
	}
	ratio := float64(len(vals)) / float64(len(sample))
	scale := func(n int) int {
		s := int(float64(n) * ratio)
		if s < n {
			s = n
		}
		return s
	}
	if idx, ok := t.colIndexes[ord]; ok {
		cs.Distinct = len(idx)
	} else {
		cs.Distinct = scale(len(runs))
	}
	if cs.Distinct > len(vals) {
		cs.Distinct = len(vals)
	}

	mcvRuns := make([]run, 0, len(runs))
	for _, r := range runs {
		if r.count >= 2 {
			mcvRuns = append(mcvRuns, r)
		}
	}
	sort.SliceStable(mcvRuns, func(i, j int) bool { return mcvRuns[i].count > mcvRuns[j].count })
	if len(mcvRuns) > StatsMaxMCVs {
		mcvRuns = mcvRuns[:StatsMaxMCVs]
	}
	for _, r := range mcvRuns {
		c := scale(r.count)
		cs.MCVs = append(cs.MCVs, MCV{Value: r.v, Count: c})
		cs.mcvTotal += c
	}

	// Equi-depth buckets over the sample, counts scaled to the full
	// column. Ends are pinned to the exact Min/Max from the full pass.
	if cs.Distinct <= StatsHistogramBuckets && len(runs) <= StatsHistogramBuckets {
		for _, r := range runs {
			cs.Buckets = append(cs.Buckets, Bucket{Upper: r.v, Count: scale(r.count), Distinct: 1})
		}
	} else {
		target := (len(sample) + StatsHistogramBuckets - 1) / StatsHistogramBuckets
		b := Bucket{}
		for _, r := range runs {
			b.Count += r.count
			b.Distinct++
			b.Upper = r.v
			if b.Count >= target {
				b.Count = scale(b.Count)
				cs.Buckets = append(cs.Buckets, b)
				b = Bucket{}
			}
		}
		if b.Count > 0 {
			b.Count = scale(b.Count)
			cs.Buckets = append(cs.Buckets, b)
		}
	}
	if n := len(cs.Buckets); n > 0 && Compare(cs.Buckets[n-1].Upper, cs.Max) < 0 {
		cs.Buckets[n-1].Upper = cs.Max
	}
	return cs
}

// worseFreshness returns the staler of two freshness labels; "" reads as
// fresh (pre-label or wire-decoded statistics).
func worseFreshness(a, b string) string {
	return freshnessRankName(maxInt(freshnessRank(a), freshnessRank(b)))
}

func freshnessRank(f string) int {
	switch f {
	case StatsBudgetStale:
		return 1
	case StatsSampled:
		return 2
	default:
		return 0
	}
}

func freshnessRankName(r int) string {
	switch r {
	case 1:
		return StatsBudgetStale
	case 2:
		return StatsSampled
	default:
		return StatsFresh
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// MaintenanceStats are the incremental-maintenance counters for one table
// (or, via Database.MaintenanceStats, summed over a database): how often
// statistics were folded forward instead of rebuilt, how rebuilds split
// between full and sampled, and how the sorted side-run amortized index
// rebuilds into read-time merges.
type MaintenanceStats struct {
	StatsIncrementalUpdates int // Stats served by folding the delta into the base
	StatsFullRebuilds       int // full sort-everything rebuilds
	StatsSampledRebuilds    int // stride-sampled rebuilds (large tables)
	SortedIndexSideInserts  int // inserts absorbed by a sorted side-run
	SortedIndexMerges       int // read-time main+side range merges
	SortedIndexRebuilds     int // full sorted-index builds + side-run collapses
}

func (m MaintenanceStats) add(o MaintenanceStats) MaintenanceStats {
	m.StatsIncrementalUpdates += o.StatsIncrementalUpdates
	m.StatsFullRebuilds += o.StatsFullRebuilds
	m.StatsSampledRebuilds += o.StatsSampledRebuilds
	m.SortedIndexSideInserts += o.SortedIndexSideInserts
	m.SortedIndexMerges += o.SortedIndexMerges
	m.SortedIndexRebuilds += o.SortedIndexRebuilds
	return m
}

// MaintenanceStats returns this table's incremental-maintenance counters.
func (t *Table) MaintenanceStats() MaintenanceStats {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	return MaintenanceStats{
		StatsIncrementalUpdates: t.statsIncremental,
		StatsFullRebuilds:       t.statsBuilds - t.statsSampled,
		StatsSampledRebuilds:    t.statsSampled,
		SortedIndexSideInserts:  t.sideInserts,
		SortedIndexMerges:       t.sortedMerges,
		SortedIndexRebuilds:     t.sortedBuilds,
	}
}

// MaintenanceStats sums the incremental-maintenance counters over every
// table in the database.
func (db *Database) MaintenanceStats() MaintenanceStats {
	var m MaintenanceStats
	for _, t := range db.tables {
		m = m.add(t.MaintenanceStats())
	}
	return m
}
