package relational

// Incremental maintenance keeps the read side cheap under mixed
// insert/query traffic: one Insert bumps the table version, yet the next
// query pays no whole-column statistics rebuild. Column statistics are
// maintained exactly: Insert folds each new cell into its column's
// summary (see Stats in stats.go), and the next Stats call snapshots the
// summary instead of rereading the rows.
//
// MaintenanceStats exposes the counters that make rebuild-avoidance
// observable.

// MaintenanceStats are the incremental-maintenance counters for one table
// (or, via Database.MaintenanceStats, summed over a database): how often
// column statistics were built from the rows and how many inserts were
// folded into their summaries instead.
type MaintenanceStats struct {
	// StatsIncrementalUpdates counts the inserts folded into at least one
	// column's statistics summary. It is counted on the write side, so the
	// same inserts give the same count however often plans read the
	// statistics between them.
	StatsIncrementalUpdates int
	// StatsFullRebuilds counts column summaries built from every row: a
	// column's first Stats call, and its first after DropIndexes.
	StatsFullRebuilds int
	// The fields below always read 0: statistics are never sampled, and
	// there are no sorted indexes. They stay for readers that still
	// report them.
	StatsSampledRebuilds   int
	SortedIndexSideInserts int
	SortedIndexMerges      int
	SortedIndexRebuilds    int
}

// MaintenanceStats returns this table's incremental-maintenance counters.
func (t *Table) MaintenanceStats() MaintenanceStats {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	return MaintenanceStats{
		StatsIncrementalUpdates: t.statsFolds,
		StatsFullRebuilds:       t.statsBuilds,
	}
}

// MaintenanceStats sums the incremental-maintenance counters over every
// table in the database.
func (db *Database) MaintenanceStats() MaintenanceStats {
	var m MaintenanceStats
	for _, t := range db.tables {
		tm := t.MaintenanceStats()
		m.StatsIncrementalUpdates += tm.StatsIncrementalUpdates
		m.StatsFullRebuilds += tm.StatsFullRebuilds
	}
	return m
}
