// Command queststats prints the anatomy of a source as QUEST sees it: the
// term space the forward HMM decodes over, the schema graph with its
// information-theoretic edge weights, per-attribute full-text statistics,
// and — on request — the execution plan of an arbitrary SQL query. It is
// the inspection companion to questcli: when a query maps somewhere
// unexpected, this shows the evidence QUEST was working from.
//
// The indexes section runs the dataset workload (with PruneEmpty
// validation) through a fresh engine first, so the reported secondary
// indexes and planner counters reflect what production traffic builds.
//
// Usage:
//
//	queststats [-db imdb|mondial|dblp] [-scale N] [-seed N]
//	           [-section all|terms|graph|fulltext|indexes|stats|mi|fleet|durability|serve] [-sql "SELECT ..."]
//
// The stats section dumps the per-table/per-column statistics snapshots
// the SQL planner estimates from (distinct counts, most common values,
// histogram bounds) plus the planner counters showing how many plans were
// join-reordered and how many scans the range/IN/MATCH index paths served.
//
// The fleet section stands up an in-process replica group (three copies of
// the dataset behind one replicated transport client), scripts a failure
// sequence — replicated writes, a backup crash mid-traffic, a rejoin with
// op-log replay, then a primary crash forcing a failover — and reports the
// resulting fleet topology and the client's replication counters. It is the
// inspection view for the same counters a production coordinator exposes
// through RemoteClientStats.
//
// The serve section stands up an in-process questd serving tier (the same
// serve.Server the daemon mounts) and scripts front-door traffic against
// its HTTP surface: the dataset workload as an interactive tenant, a burst
// of identical concurrent searches that coalesce into one engine call, a
// bulk tenant hammered past its token bucket into typed 429s, one SQL
// query and one malformed request — then reports the flat counter snapshot
// the /v1/stats endpoint serves.
//
// The durability section opens a shard WAL over a scratch directory, runs
// replicated writes through it (group commits, fsyncs, policy snapshots),
// restarts from the directory alone, and then drives a burst of pipelined
// appends against the recovered log — reporting the commit, snapshot and
// recovery counters a durable questshardd exposes through DurabilityStats.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	quest "repro"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/fulltext"
	"repro/internal/mi"
	"repro/internal/relational"
	sqlpkg "repro/internal/sql"
	"repro/internal/transport"
	"repro/internal/wrapper"
)

func main() {
	var (
		dbName  = flag.String("db", "imdb", "dataset: imdb, mondial or dblp")
		scale   = flag.Int("scale", 1, "dataset scale factor")
		seed    = flag.Int64("seed", 42, "dataset seed")
		section = flag.String("section", "all", "what to print: all, terms, graph, fulltext, indexes, stats, mi, fleet, durability, serve")
		sqlText = flag.String("sql", "", "explain this SQL query and exit")
	)
	flag.Parse()

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
		// Exercise the planner the way production traffic does — run the
		// dataset's workload with validation queries on — then report what
		// the planner built and which access paths it took.
		sqlpkg.ResetStats()
		opts := quest.Defaults()
		opts.PruneEmpty = true
		eng := quest.Open(db, opts)
		w := eval.NewGenerator(db, *seed+100).Generate(*dbName, eval.TemplatesFor(*dbName), 2)
		for _, q := range w.Queries {
			if ex, err := eng.Search(strings.Join(q.Keywords, " ")); err == nil && len(ex) > 0 {
				eng.Execute(ex[0])
			}
		}

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
		// Plan (and run) a representative workload first so the lazy
		// statistics the planner consults are the ones reported.
		sqlpkg.ResetStats()
		opts := quest.Defaults()
		opts.PruneEmpty = true
		eng := quest.Open(db, opts)
		w := eval.NewGenerator(db, *seed+100).Generate(*dbName, eval.TemplatesFor(*dbName), 2)
		for _, q := range w.Queries {
			if ex, err := eng.Search(strings.Join(q.Keywords, " ")); err == nil && len(ex) > 0 {
				eng.Execute(ex[0])
			}
		}

		tbl := &eval.Table{
			Title:   "column statistics (planner snapshots at current table versions)",
			Headers: []string{"column", "rows", "nulls", "distinct", "min..max", "buckets", "freshness", "top MCVs"},
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
				mcvs := make([]string, 0, 3)
				for i, m := range cs.MCVs {
					if i == 3 {
						break
					}
					mcvs = append(mcvs, fmt.Sprintf("%s×%d", m.Value, m.Count))
				}
				mcvText := strings.Join(mcvs, " ")
				if mcvText == "" {
					mcvText = "-"
				}
				freshness := cs.Freshness
				if freshness == "" {
					freshness = "-"
				}
				tbl.AddRow(
					t.Schema.Name+"."+col.Name,
					fmt.Sprint(cs.Rows),
					fmt.Sprint(cs.NullCount),
					fmt.Sprint(cs.Distinct),
					minMax,
					fmt.Sprint(len(cs.Buckets)),
					freshness,
					mcvText,
				)
			}
		}
		fmt.Println(tbl)

		// Incremental-maintenance counters: how the snapshots above were
		// produced (delta folds vs full/sampled rebuilds) and how the
		// sorted indexes absorbed writes (side-run inserts merged on read
		// vs threshold-triggered rebuilds).
		m := db.MaintenanceStats()
		mt := &eval.Table{
			Title: "incremental maintenance (instance-wide counters)",
			Headers: []string{"stats-incremental", "stats-full-rebuilds", "stats-sampled",
				"side-inserts", "side-merges", "index-rebuilds"},
		}
		mt.AddRow(
			fmt.Sprint(m.StatsIncrementalUpdates),
			fmt.Sprint(m.StatsFullRebuilds),
			fmt.Sprint(m.StatsSampledRebuilds),
			fmt.Sprint(m.SortedIndexSideInserts),
			fmt.Sprint(m.SortedIndexMerges),
			fmt.Sprint(m.SortedIndexRebuilds),
		)
		fmt.Println(mt)
		fmt.Println(plannerCounterTable())
	}

	if show("fleet") {
		if err := fleetSection(db); err != nil {
			fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
			os.Exit(1)
		}
	}

	if show("durability") {
		if err := durabilitySection(db); err != nil {
			fmt.Fprintf(os.Stderr, "durability: %v\n", err)
			os.Exit(1)
		}
	}

	if show("serve") {
		if err := serveSection(db, *dbName, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "serve: %v\n", err)
			os.Exit(1)
		}
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

// demoNet is the in-process network for the fleet section: every replica
// is a transport.Server reached through net.Pipe, and killing a replica
// marks it undialable and severs its live connections — the same fault
// model the conformance fault harness uses.
type demoNet struct {
	mu    sync.Mutex
	srvs  map[string]*transport.Server
	down  map[string]bool
	conns map[string][]net.Conn
}

func (n *demoNet) dial(name string) (net.Conn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	srv := n.srvs[name]
	if srv == nil || n.down[name] {
		return nil, fmt.Errorf("replica %s is down", name)
	}
	cc, sc := net.Pipe()
	n.conns[name] = append(n.conns[name], cc, sc)
	go srv.ServeConn(sc)
	return cc, nil
}

func (n *demoNet) kill(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down[name] = true
	for _, c := range n.conns[name] {
		c.Close()
	}
	n.conns[name] = nil
}

func (n *demoNet) heal(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down[name] = false
}

func (n *demoNet) killAll() {
	n.mu.Lock()
	names := make([]string, 0, len(n.srvs))
	for name := range n.srvs {
		names = append(names, name)
	}
	n.mu.Unlock()
	for _, name := range names {
		n.kill(name)
	}
}

// fleetRow synthesizes the i-th write for the fleet exercise: a row of ts
// with type-correct values and a collision-free integer key space well
// above anything the dataset generators emit.
func fleetRow(ts *quest.TableSchema, i int) quest.Row {
	row := make(quest.Row, len(ts.Columns))
	for c, col := range ts.Columns {
		switch col.Type {
		case relational.TypeInt:
			row[c] = quest.Int(int64(9_000_000 + 100*i + c))
		case relational.TypeFloat:
			row[c] = quest.Float(float64(i) + 0.5)
		case relational.TypeBool:
			row[c] = quest.Bool(i%2 == 0)
		default:
			row[c] = quest.Text(fmt.Sprintf("fleet-demo-%d-%d", i, c))
		}
	}
	return row
}

// fleetSection stands up a three-replica group over copies of db, scripts
// the failure sequence described in the package doc, and prints the
// resulting catalog and the client's replication counters.
func fleetSection(db *quest.Database) error {
	dnet := &demoNet{
		srvs:  map[string]*transport.Server{},
		down:  map[string]bool{},
		conns: map[string][]net.Conn{},
	}
	defer dnet.killAll()

	const replicas = 3
	specs := make([]transport.ReplicaSpec, replicas)
	for i := 0; i < replicas; i++ {
		copies, err := quest.PartitionDatabase(db, 1)
		if err != nil {
			return err
		}
		srv := transport.NewServer(wrapper.NewFullAccessSource(copies[0]))
		srv.Resolver = dnet.dial
		name := fmt.Sprintf("replica-%d", i)
		dnet.srvs[name] = srv
		specs[i] = transport.ReplicaSpec{Name: name, Dial: func() (net.Conn, error) { return dnet.dial(name) }}
	}
	client, err := transport.NewReplicatedClient(specs, transport.Options{
		MaxAttempts:        4,
		RetryBackoff:       time.Millisecond,
		ProbeFailThreshold: 2,
	})
	if err != nil {
		return err
	}
	defer client.Close()

	ts := db.Schema.Tables()[0]
	writes := 0
	insert := func(n int) error {
		for i := 0; i < n; i++ {
			if err := client.Insert(ts.Name, fleetRow(ts, writes)); err != nil {
				return fmt.Errorf("insert %d: %w", writes, err)
			}
			writes++
		}
		return nil
	}

	// The scripted exercise: replicated writes, a backup crash under
	// traffic, a rejoin replayed from the primary's op log, then a primary
	// crash that Insert itself fails over, and the old primary rejoining
	// as a backup.
	steps := []struct {
		what string
		run  func() error
	}{
		{"replicate 6 writes across 3 replicas", func() error { return insert(6) }},
		{"kill backup replica-1, write 4 more (demoted from rotation)", func() error {
			dnet.kill("replica-1")
			return insert(4)
		}},
		{"heal replica-1, probe (rejoins via op-log replay)", func() error {
			dnet.heal("replica-1")
			client.ProbeNow()
			return nil
		}},
		{"kill primary replica-0, write 2 more (failover mid-write)", func() error {
			dnet.kill("replica-0")
			return insert(2)
		}},
		{"heal replica-0, probe (old primary rejoins as backup)", func() error {
			dnet.heal("replica-0")
			client.ProbeNow()
			return nil
		}},
	}
	fmt.Printf("== replica fleet — %d writes into %s through a scripted failover ==\n", 12, ts.Name)
	for _, s := range steps {
		if err := s.run(); err != nil {
			return fmt.Errorf("%s: %w", s.what, err)
		}
		fmt.Printf("  * %s\n", s.what)
	}
	fmt.Println()

	fs := client.FleetStatus()
	tbl := &eval.Table{
		Title:   fmt.Sprintf("replica catalog (epoch %d, primary %s)", fs.Epoch, fs.Primary),
		Headers: []string{"replica", "role", "in-rotation", "last-seq", "suspect"},
	}
	for _, r := range fs.Replicas {
		role := "backup"
		if r.Primary {
			role = "primary"
		}
		if r.Diverged {
			role = "diverged"
		}
		tbl.AddRow(r.Name, role, fmt.Sprint(r.InRotation), fmt.Sprint(r.LastSeq), fmt.Sprint(r.Suspect))
	}
	fmt.Println(tbl)

	st := client.Stats()
	ctbl := &eval.Table{
		Title:   "replication counters (coordinator client)",
		Headers: []string{"counter", "value"},
	}
	for _, row := range [][2]string{
		{"inserts", fmt.Sprint(st.Inserts)},
		{"replication-acks", fmt.Sprint(st.ReplicationAcks)},
		{"fenced-writes", fmt.Sprint(st.FencedWrites)},
		{"probes", fmt.Sprint(st.Probes)},
		{"probe-failures", fmt.Sprint(st.ProbeFailures)},
		{"demotions", fmt.Sprint(st.Demotions)},
		{"promotions", fmt.Sprint(st.Promotions)},
		{"replays", fmt.Sprint(st.Replays)},
		{"transport-attempts", fmt.Sprint(st.Attempts)},
		{"transport-retries", fmt.Sprint(st.Retries)},
		{"dials", fmt.Sprint(st.Dials)},
	} {
		ctbl.AddRow(row[0], row[1])
	}
	fmt.Println(ctbl)
	return nil
}

// durabilitySection opens a shard WAL over a scratch directory, runs
// writes through a WAL-backed replica, restarts from the directory alone,
// then drives a pipelined append burst against the recovered log — the
// scripted tour of the durability counters (DurabilityStats) and the
// recovery surface (WALRecovery).
func durabilitySection(db *quest.Database) error {
	dir, err := os.MkdirTemp("", "queststats-wal-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	copies, err := quest.PartitionDatabase(db, 1)
	if err != nil {
		return err
	}
	wopt := quest.WALOptions{BatchSize: 16, MaxWait: time.Millisecond, SnapshotEvery: 10}
	l, rec, err := quest.OpenShardWAL(dir, copies[0], wopt)
	if err != nil {
		return err
	}
	fmt.Printf("== shard durability — WAL over %s (fsync on, snapshot every %d ops) ==\n",
		dir, wopt.SnapshotEvery)
	fmt.Printf("  * fresh directory: base snapshot of %d rows written at open\n", rec.DB.TotalRows())

	// Writes ride the replicated server path: append → group commit →
	// fsync → ack, with the checkpoint policy snapshotting along the way.
	dnet := &demoNet{
		srvs:  map[string]*transport.Server{},
		down:  map[string]bool{},
		conns: map[string][]net.Conn{},
	}
	defer dnet.killAll()
	srv := transport.NewServer(wrapper.NewFullAccessSource(rec.DB))
	srv.AttachWAL(l)
	dnet.srvs["durable-0"] = srv
	client, err := transport.NewReplicatedClient([]transport.ReplicaSpec{
		{Name: "durable-0", Dial: func() (net.Conn, error) { return dnet.dial("durable-0") }},
	}, transport.Options{MaxAttempts: 3, RetryBackoff: time.Millisecond})
	if err != nil {
		l.Close()
		return err
	}
	ts := db.Schema.Tables()[0]
	const writes = 24
	for i := 0; i < writes; i++ {
		if err := client.Insert(ts.Name, fleetRow(ts, 10_000+i)); err != nil {
			client.Close()
			l.Close()
			return fmt.Errorf("insert %d: %w", i, err)
		}
	}
	client.Close()
	fmt.Printf("  * %d replicated writes acked after reaching disk\n", writes)
	fmt.Println()
	fmt.Println(walCounterTable("durability counters (live shard, server write path)", l.Stats()))

	// Restart from the directory alone: every acked write was on disk
	// before its ack, so closing the log is byte-equivalent to a crash.
	l.Close()
	empty, err := quest.NewDatabase(db.Name, db.Schema)
	if err != nil {
		return err
	}
	l2, rec2, err := quest.OpenShardWAL(dir, empty, wopt)
	if err != nil {
		return err
	}
	defer l2.Close()
	rtbl := &eval.Table{
		Title:   "recovery (restart from the WAL directory, schema-only base)",
		Headers: []string{"field", "value"},
	}
	for _, row := range [][2]string{
		{"recovered-seq", fmt.Sprint(rec2.LastSeq)},
		{"replayed-ops", fmt.Sprint(rec2.ReplayedOps)},
		{"from-snapshot", fmt.Sprint(rec2.FromSnapshot)},
		{"torn-bytes-discarded", fmt.Sprint(rec2.TornBytes)},
		{"rows-recovered", fmt.Sprint(rec2.DB.TotalRows())},
		{"elapsed", rec2.Elapsed.Round(time.Microsecond).String()},
	} {
		rtbl.AddRow(row[0], row[1])
	}
	fmt.Println(rtbl)

	// A pipelined burst against the recovered log shows group commit
	// amortizing fsyncs: many appends in flight, far fewer batches.
	const burst = 64
	seq := rec2.LastSeq
	waits := make([]func() error, 0, burst)
	for i := 0; i < burst; i++ {
		row := fleetRow(ts, 20_000+i)
		if err := rec2.DB.Insert(ts.Name, row); err != nil {
			return err
		}
		seq++
		waits = append(waits, l2.Append(seq, ts.Name, row).Wait)
	}
	for _, wait := range waits {
		if err := wait(); err != nil {
			return err
		}
	}
	fmt.Printf("  * %d pipelined appends committed on the recovered log\n\n", burst)
	fmt.Println(walCounterTable("durability counters (recovered log, pipelined burst)", l2.Stats()))
	return nil
}

// walCounterTable renders one DurabilityStats snapshot.
func walCounterTable(title string, st quest.DurabilityStats) *eval.Table {
	tbl := &eval.Table{
		Title:   title,
		Headers: []string{"counter", "value"},
	}
	avgWait := time.Duration(0)
	if st.Batches > 0 {
		avgWait = time.Duration(st.CommitWaitNs / st.Batches)
	}
	for _, row := range [][2]string{
		{"appends", fmt.Sprint(st.Appends)},
		{"group-commit-batches", fmt.Sprint(st.Batches)},
		{"max-batch", fmt.Sprint(st.BatchMax)},
		{"fsyncs", fmt.Sprint(st.Fsyncs)},
		{"avg-commit-wait", avgWait.Round(time.Microsecond).String()},
		{"bytes-appended", fmt.Sprint(st.BytesAppended)},
		{"snapshots", fmt.Sprint(st.Snapshots)},
		{"snapshot-time", time.Duration(st.SnapshotNs).Round(time.Microsecond).String()},
		{"snapshot-failures", fmt.Sprint(st.SnapshotFailures)},
		{"recovered-seq", fmt.Sprint(st.RecoveredSeq)},
		{"recovery-replayed-ops", fmt.Sprint(st.RecoveryReplayedOps)},
		{"recovery-time", time.Duration(st.RecoveryNs).Round(time.Microsecond).String()},
	} {
		tbl.AddRow(row[0], row[1])
	}
	return tbl
}

// plannerCounterTable renders the SQL planning layer's counters, including
// the PR 3 access paths (range/IN/MATCH) and join-reorder decisions.
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
		{"range-scans", fmt.Sprint(st.RangeScans)},
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
