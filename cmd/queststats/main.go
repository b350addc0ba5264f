// Command queststats prints the anatomy of a source as QUEST sees it: the
// term space the forward HMM decodes over, the schema graph with its
// information-theoretic edge weights, per-attribute full-text statistics,
// and — on request — the execution plan of an arbitrary SQL query. It is
// the inspection companion to questcli: when a query maps somewhere
// unexpected, this shows the evidence QUEST was working from.
//
// The indexes and stats sections first replay the dataset's workload
// (with PruneEmpty validation) through a fresh engine, so the reported
// secondary indexes, statistics snapshots and planner counters reflect
// what production traffic builds. The stats section dumps the
// per-table/per-column statistics the SQL planner estimates from (row,
// NULL and distinct counts, min..max) plus the planner counters showing
// how many plans were join-reordered and how many scans the
// range/IN/MATCH index paths served.
//
// Usage:
//
//	queststats [-db imdb|mondial|dblp] [-scale N] [-seed N]
//	           [-section all|terms|graph|fulltext|indexes|stats|mi] [-sql "SELECT ..."]
//
// An unknown -section exits with status 2 and lists the valid ones.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	quest "repro"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/fulltext"
	"repro/internal/mi"
	sqlpkg "repro/internal/sql"
	"repro/internal/wrapper"
)

// sections lists the -section values; "all" prints every section.
var sections = []string{"all", "terms", "graph", "fulltext", "indexes", "stats", "mi"}

func main() {
	var (
		dbName  = flag.String("db", "imdb", "dataset: imdb, mondial or dblp")
		scale   = flag.Int("scale", 1, "dataset scale factor")
		seed    = flag.Int64("seed", 42, "dataset seed")
		section = flag.String("section", "all", "what to print: "+strings.Join(sections, ", "))
		sqlText = flag.String("sql", "", "explain this SQL query and exit")
	)
	flag.Parse()
	if !slices.Contains(sections, *section) {
		fmt.Fprintf(os.Stderr, "unknown section %q; valid sections: %s\n", *section, strings.Join(sections, ", "))
		os.Exit(2)
	}

	cfg := quest.DatasetConfig{Seed: *seed, Scale: *scale}
	var db *quest.Database
	switch strings.ToLower(*dbName) {
	case "imdb":
		db = quest.BuildIMDB(cfg)
	case "mondial":
		db = quest.BuildMondial(cfg)
	case "dblp":
		db = quest.BuildDBLP(cfg)
	default:
		fmt.Fprintf(os.Stderr, "unknown dataset %q\n", *dbName)
		os.Exit(2)
	}

	if *sqlText != "" {
		plan, err := quest.ExplainSQL(db, *sqlText)
		if err != nil {
			fmt.Fprintf(os.Stderr, "explain: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(plan)
		return
	}

	show := func(s string) bool { return *section == "all" || *section == s }

	fmt.Printf("source %s: %d tables, %d tuples\n\n", db.Name, len(db.Schema.Tables()), db.TotalRows())

	if show("terms") {
		space := core.NewTermSpace(db.Schema)
		tbl := &eval.Table{
			Title:   fmt.Sprintf("term space — %d HMM states", space.Len()),
			Headers: []string{"kind", "count"},
		}
		counts := map[core.TermKind]int{}
		for _, t := range space.Terms {
			counts[t.Kind]++
		}
		for _, k := range []core.TermKind{core.KindTable, core.KindAttribute, core.KindDomain} {
			tbl.AddRow(k.String(), fmt.Sprint(counts[k]))
		}
		fmt.Println(tbl)
	}

	if show("graph") {
		eng := quest.Open(db, quest.Defaults())
		g := eng.Backward().Graph()
		fmt.Printf("== schema graph — %d attribute nodes, %d edges ==\n", g.Len(), g.EdgeCount())
		tbl := &eval.Table{
			Headers: []string{"edge", "kind", "weight"},
		}
		seen := map[string]bool{}
		for v := 0; v < g.Len(); v++ {
			for _, e := range g.Neighbors(v) {
				a, b := g.Name(e.From), g.Name(e.To)
				if a > b {
					a, b = b, a
				}
				key := a + "--" + b
				if seen[key] {
					continue
				}
				seen[key] = true
				tbl.AddRow(key, e.Label, fmt.Sprintf("%.3f", e.Weight))
			}
		}
		fmt.Println(tbl)
	}

	if show("fulltext") {
		ix := fulltext.BuildIndex(db)
		tbl := &eval.Table{
			Title:   "full-text statistics (setup phase)",
			Headers: []string{"attribute", "indexed-cells", "vocabulary"},
		}
		for _, ai := range ix.Attributes() {
			if ai.DocCount() == 0 {
				continue
			}
			tbl.AddRow(ai.Table+"."+ai.Column, fmt.Sprint(ai.DocCount()), fmt.Sprint(ai.VocabularySize()))
		}
		fmt.Println(tbl)
	}

	if show("indexes") {
		replayWorkload(db, *dbName, *seed)

		tbl := &eval.Table{
			Title:   "secondary indexes per table (after workload + PruneEmpty validation)",
			Headers: []string{"table", "rows", "indexed-columns", "index-builds"},
		}
		for _, t := range db.Tables() {
			cols := t.IndexedColumns()
			tbl.AddRow(t.Schema.Name, fmt.Sprint(t.Len()),
				strings.Join(cols, ","), fmt.Sprint(t.IndexBuildCount()))
		}
		fmt.Println(tbl)

		fmt.Println(plannerCounterTable())
	}

	if show("stats") {
		replayWorkload(db, *dbName, *seed)

		tbl := &eval.Table{
			Title:   "column statistics (planner snapshots at current table versions)",
			Headers: []string{"column", "rows", "nulls", "distinct", "min..max"},
		}
		for _, t := range db.Tables() {
			for _, col := range t.Schema.Columns {
				cs, err := t.Stats(col.Name)
				if err != nil {
					continue
				}
				minMax := "-"
				if !cs.Min.IsNull() {
					minMax = cs.Min.String() + ".." + cs.Max.String()
				}
				tbl.AddRow(
					t.Schema.Name+"."+col.Name,
					fmt.Sprint(cs.Rows),
					fmt.Sprint(cs.NullCount),
					fmt.Sprint(cs.Distinct),
					minMax,
				)
			}
		}
		fmt.Println(tbl)

		// Incremental-maintenance counters: how the snapshots above were
		// produced (summaries built from the rows vs inserts folded into
		// an insert-maintained summary).
		m := db.MaintenanceStats()
		mt := &eval.Table{
			Title:   "incremental maintenance (instance-wide counters)",
			Headers: []string{"stats-folded-inserts", "stats-builds"},
		}
		mt.AddRow(
			fmt.Sprint(m.StatsIncrementalUpdates),
			fmt.Sprint(m.StatsFullRebuilds),
		)
		fmt.Println(mt)
		fmt.Println(plannerCounterTable())
	}

	if show("mi") {
		src := wrapper.NewFullAccessSource(db)
		tbl := &eval.Table{
			Title:   "join-edge informativeness (instance statistics behind the Steiner weights)",
			Headers: []string{"fk-edge", "selectivity", "informativeness", "distance"},
		}
		for _, e := range db.Schema.JoinEdges() {
			sel, err := mi.JoinSelectivity(db.Table(e.FromTable), e.FromColumn, db.Table(e.ToTable), e.ToColumn)
			if err != nil {
				continue
			}
			q, err := mi.JoinInformativeness(db.Table(e.FromTable), e.FromColumn, db.Table(e.ToTable), e.ToColumn)
			if err != nil {
				continue
			}
			d, err := src.EdgeDistance(e)
			if err != nil {
				continue
			}
			tbl.AddRow(
				fmt.Sprintf("%s.%s -> %s.%s", e.FromTable, e.FromColumn, e.ToTable, e.ToColumn),
				fmt.Sprintf("%.3f", sel),
				fmt.Sprintf("%.3f", q),
				fmt.Sprintf("%.3f", d),
			)
		}
		fmt.Println(tbl)
	}
}

// replayWorkload exercises the planner the way production traffic does:
// it resets the planner counters, then runs the dataset's workload through
// a fresh engine with PruneEmpty validation on, executing each top answer,
// so the lazy indexes and statistics the planner builds are the ones the
// indexes and stats sections report.
func replayWorkload(db *quest.Database, dbName string, seed int64) {
	sqlpkg.ResetStats()
	opts := quest.Defaults()
	opts.PruneEmpty = true
	eng := quest.Open(db, opts)
	w := eval.NewGenerator(db, seed+100).Generate(dbName, eval.TemplatesFor(dbName), 2)
	for _, q := range w.Queries {
		if ex, err := eng.Search(strings.Join(q.Keywords, " ")); err == nil && len(ex) > 0 {
			eng.Execute(ex[0])
		}
	}
}

// plannerCounterTable renders the SQL planning layer's counters, including
// the index access paths (equality/IN/MATCH) and join-reorder decisions.
func plannerCounterTable() *eval.Table {
	st := sqlpkg.Stats()
	tbl := &eval.Table{
		Title:   "planner counters (cache, access paths, join order, fast paths)",
		Headers: []string{"counter", "value"},
	}
	for _, row := range [][2]string{
		{"plans-built", fmt.Sprint(st.Plans)},
		{"plan-cache-hits", fmt.Sprint(st.PlanCacheHits)},
		{"plan-cache-misses", fmt.Sprint(st.PlanCacheMisses)},
		{"index-scans", fmt.Sprint(st.IndexScans)},
		{"in-scans", fmt.Sprint(st.InScans)},
		{"match-scans", fmt.Sprint(st.MatchScans)},
		{"full-scans", fmt.Sprint(st.FullScans)},
		{"narrowed-scans", fmt.Sprint(st.NarrowedScans)},
		{"lazy-index-builds", fmt.Sprint(st.LazyIndexBuilds)},
		{"join-reorders", fmt.Sprint(st.JoinReorders)},
		{"hash-joins", fmt.Sprint(st.HashJoins)},
		{"nested-loop-joins", fmt.Sprint(st.NestedLoopJoins)},
		{"build-side-swaps", fmt.Sprint(st.BuildSideSwaps)},
		{"pushed-predicates", fmt.Sprint(st.PushedPredicates)},
		{"exists-fast-paths", fmt.Sprint(st.ExistsFastPaths)},
		{"exists-semi-joins", fmt.Sprint(st.ExistsSemiJoins)},
		{"limit-short-circuits", fmt.Sprint(st.LimitShortCircuits)},
	} {
		tbl.AddRow(row[0], row[1])
	}
	return tbl
}
