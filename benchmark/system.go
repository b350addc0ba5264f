package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	quest "repro"
	"repro/internal/relational"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/sql"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/wrapper"
)

// Fixed system configuration (stated in the README): the same values on
// both sides of every comparison.
const (
	fleetShards   = 3
	fleetReplicas = 2
	walSnapEvery  = 4096 // questshardd's default -snapshot-interval
	searchLimit   = 20
)

func engineOptions() quest.Options {
	o := quest.Defaults() // K=10, query cache 256
	o.PruneEmpty = true
	return o
}

func serveOptions() serve.Options {
	// Coalescing on, response cache off, default deadlines; the tenant
	// rate limit is disabled so the closed loop measures capacity.
	return serve.Options{TenantRate: -1}
}

// hooks are the seams the traced pass decorates. The zero value builds
// the plain system.
type hooks struct {
	handler  func(http.Handler) http.Handler
	source   func(engineSource) wrapper.Source
	backend  func(shardIdx int, c *transport.Client) shard.Backend
	executor func(shardIdx, replica int, src *wrapper.FullAccessSource) wrapper.SourceExecutor
}

// shardProc is one in-process replica of one shard: what a questshardd
// process holds.
type shardProc struct {
	srv *transport.Server
	log *wal.Log
	ln  net.Listener
	db  *relational.Database
}

// system is one system under test: a serving tier over a single-process
// engine or over a coordinator dialing a loopback shard fleet.
type system struct {
	deploy  deployment
	db      *quest.Database // unsharded dataset (local: the served data)
	eng     *quest.Engine
	srv     *serve.Server
	httpSrv *http.Server
	httpErr chan error
	url     string

	sharded *shard.ShardedSource
	clients []*transport.Client
	shards  [][]*shardProc // [shard][replica]
	shardCh chan error
	workdir string
}

// openSystem builds a fresh system from the constructors questd and
// questshardd use. db is consumed: the local deployment serves it, the
// fleet partitions copies of it.
func openSystem(deploy deployment, db *quest.Database, workRoot string, h hooks) (*system, error) {
	s := &system{deploy: deploy, db: db}
	var src engineSource
	switch deploy {
	case deployLocal:
		src = wrapper.NewFullAccessSource(db)
	case deployFleet:
		if err := s.openFleet(workRoot, h); err != nil {
			s.close()
			return nil, err
		}
		src = s.sharded
	default:
		return nil, fmt.Errorf("unknown deployment %q", deploy)
	}
	var engSrc wrapper.Source = src
	if h.source != nil {
		engSrc = h.source(src)
	}
	s.eng = quest.OpenSource(engSrc, engineOptions())
	s.srv = serve.New(s.eng, serveOptions())
	var handler http.Handler = s.srv
	if h.handler != nil {
		handler = h.handler(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, fmt.Errorf("listen http: %w", err)
	}
	s.url = "http://" + ln.Addr().String()
	s.httpSrv = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	s.httpErr = make(chan error, 1)
	go func() { s.httpErr <- s.httpSrv.Serve(ln) }()
	return s, nil
}

// openFleet starts fleetShards x fleetReplicas transport servers, each
// with a WAL in its own directory and its own loopback TCP listener, and
// dials them into a sharded coordinator source.
func (s *system) openFleet(workRoot string, h hooks) error {
	dir, err := os.MkdirTemp(workRoot, "fleet-")
	if err != nil {
		return err
	}
	s.workdir = dir
	s.shards = make([][]*shardProc, fleetShards)
	s.shardCh = make(chan error, fleetShards*fleetReplicas)
	addrs := make([][]string, fleetShards)
	for r := 0; r < fleetReplicas; r++ {
		// Every replica owns its rows, as separate questshardd processes do.
		parts, err := shard.Partition(s.db, fleetShards)
		if err != nil {
			return err
		}
		for i, part := range parts {
			l, rec, err := wal.Open(filepath.Join(dir, fmt.Sprintf("s%d-r%d", i, r)), part,
				wal.Options{SnapshotEvery: walSnapEvery}) // fsync on
			if err != nil {
				return fmt.Errorf("wal open: %w", err)
			}
			p := &shardProc{log: l, db: rec.DB}
			s.shards[i] = append(s.shards[i], p)
			full := wrapper.NewFullAccessSource(rec.DB)
			var exec wrapper.SourceExecutor = full
			if h.executor != nil {
				exec = h.executor(i, r, full)
			}
			p.srv = transport.NewServer(exec)
			p.srv.AttachWAL(l)
			p.ln, err = net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return fmt.Errorf("listen shard: %w", err)
			}
			addrs[i] = append(addrs[i], p.ln.Addr().String())
			go func() { s.shardCh <- p.srv.Serve(p.ln) }()
		}
	}
	backends := make([]shard.Backend, fleetShards)
	for i := range addrs {
		c, err := transport.Dial(addrs[i], transport.Options{})
		if err != nil {
			return fmt.Errorf("dial shard %d: %w", i, err)
		}
		s.clients = append(s.clients, c)
		backends[i] = c
		if h.backend != nil {
			backends[i] = h.backend(i, c)
		}
	}
	s.sharded = shard.NewFromBackends("imdb", s.db.Schema, backends,
		shard.Options{AssumeHashRouting: true})
	return nil
}

// close stops every goroutine and listener the system started and removes
// its WAL directories.
func (s *system) close() {
	if s.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := s.httpSrv.Shutdown(ctx); err != nil {
			_ = s.httpSrv.Close() // in-flight handlers ignored the grace period
		}
		cancel()
		<-s.httpErr
	}
	if s.sharded != nil {
		s.sharded.Quiesce()
	}
	for _, c := range s.clients {
		_ = c.Close() // Close only drains pooled connections; it cannot fail
	}
	n := 0
	for _, group := range s.shards {
		for _, p := range group {
			if p.ln != nil {
				_ = p.ln.Close() // stops Serve; a listener close error changes nothing here
				n++
			}
		}
	}
	for ; n > 0; n-- {
		<-s.shardCh
	}
	for _, group := range s.shards {
		for _, p := range group {
			if p.srv != nil {
				p.srv.Quiesce()
			}
			if p.log != nil {
				_ = p.log.Close() // the directory is deleted next
			}
		}
	}
	if s.workdir != "" {
		_ = os.RemoveAll(s.workdir)
	}
}

// quiesce waits out straggler existence probes (a short-circuited
// PruneEmpty fan-out returns before its slow shards answer), so the next
// sequential replay op starts on an idle fleet.
func (s *system) quiesce() {
	if s.sharded != nil {
		s.sharded.Quiesce()
	}
}

// layerStats is one snapshot of every layer's public counters.
type layerStats struct {
	serve   serve.Stats
	sql     sql.PlannerStats
	shard   shard.Stats
	clients transport.ClientStats
	wal     wal.Stats
	maint   relational.MaintenanceStats
}

func (s *system) stats() layerStats {
	st := layerStats{serve: s.srv.Stats(), sql: sql.Stats()}
	if s.deploy == deployLocal {
		st.maint = s.db.MaintenanceStats()
		return st
	}
	st.shard = s.sharded.Stats()
	for _, c := range s.clients {
		addClientStats(&st.clients, c.Stats())
	}
	for _, group := range s.shards {
		for _, p := range group {
			if ws, ok := p.srv.WALStats(); ok {
				addWALStats(&st.wal, ws)
			}
			m := p.db.MaintenanceStats()
			st.maint.StatsIncrementalUpdates += m.StatsIncrementalUpdates
			st.maint.StatsFullRebuilds += m.StatsFullRebuilds
			st.maint.StatsSampledRebuilds += m.StatsSampledRebuilds
			st.maint.SortedIndexSideInserts += m.SortedIndexSideInserts
			st.maint.SortedIndexMerges += m.SortedIndexMerges
			st.maint.SortedIndexRebuilds += m.SortedIndexRebuilds
		}
	}
	return st
}

func addClientStats(a *transport.ClientStats, b transport.ClientStats) {
	a.Operations += b.Operations
	a.Attempts += b.Attempts
	a.Retries += b.Retries
	a.Hedges += b.Hedges
	a.HedgeWins += b.HedgeWins
	a.Dials += b.Dials
	a.BytesReceived += b.BytesReceived
	a.RowFrames += b.RowFrames
	a.ColumnarFrames += b.ColumnarFrames
	a.Inserts += b.Inserts
	a.ReplicationAcks += b.ReplicationAcks
	a.FencedWrites += b.FencedWrites
	a.Probes += b.Probes
	a.ProbeFailures += b.ProbeFailures
	a.Demotions += b.Demotions
	a.Promotions += b.Promotions
	a.Replays += b.Replays
}

func addWALStats(a *wal.Stats, b wal.Stats) {
	a.Appends += b.Appends
	a.Batches += b.Batches
	a.Fsyncs += b.Fsyncs
	if b.BatchMax > a.BatchMax {
		a.BatchMax = b.BatchMax
	}
	a.CommitWaitNs += b.CommitWaitNs
	a.BytesAppended += b.BytesAppended
	a.Snapshots += b.Snapshots
}
