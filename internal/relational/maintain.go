package relational

// Incremental maintenance keeps the read side cheap under mixed
// insert/query traffic: one Insert bumps the table version, yet the next
// query pays neither a whole-column statistics rebuild nor a full
// sorted-index rebuild.
//
//   - Column statistics are maintained exactly: Insert folds each new
//     cell into its column's summary (see Stats in stats.go), and the
//     next Stats call snapshots the summary instead of rereading the rows.
//   - Sorted secondary indexes absorb inserts into a sorted side-run that
//     range scans merge on read; only when the side-run exceeds
//     sortedSideRunThreshold is it collapsed back into the main run (a
//     linear merge, counted as a rebuild).
//
// MaintenanceStats exposes the counters that make rebuild-avoidance
// observable.

// sortedSideRunThreshold bounds the sorted side-run; one more insert
// collapses it into the main run (linear merge, counted as a rebuild).
const sortedSideRunThreshold = 256

// MaintenanceStats are the incremental-maintenance counters for one table
// (or, via Database.MaintenanceStats, summed over a database): how often
// column statistics were built from the rows and how often snapshotted
// from their insert-maintained summary, and how the sorted side-run
// amortized index rebuilds into read-time merges.
type MaintenanceStats struct {
	// StatsIncrementalUpdates counts statistics snapshots taken from an
	// insert-maintained summary after the table changed.
	StatsIncrementalUpdates int
	// StatsFullRebuilds counts column summaries built from every row: a
	// column's first Stats call, and its first after DropIndexes.
	StatsFullRebuilds int
	// StatsSampledRebuilds always reads 0: statistics are never sampled.
	// The field stays for readers that still report it.
	StatsSampledRebuilds   int
	SortedIndexSideInserts int // inserts absorbed by a sorted side-run
	SortedIndexMerges      int // read-time main+side range merges
	SortedIndexRebuilds    int // full sorted-index builds + side-run collapses
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
		StatsIncrementalUpdates: t.statsSnapshots,
		StatsFullRebuilds:       t.statsBuilds,
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
