package conformance

import (
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/relational"
	"repro/internal/shard"
	"repro/internal/sql"
	"repro/internal/transport"
	"repro/internal/wrapper"
)

// newRemoteSharded builds the remote topology over already-partitioned
// databases: one transport server per shard (each over its own
// FullAccessSource), reached through loopback connections by a
// ShardedSource of transport clients, which are returned too for their
// counters. Every query crosses the full wire path — fragment SQL out,
// length-prefixed row batches back.
func newRemoteSharded(t testing.TB, name string, parts []*relational.Database, opt transport.Options) (*shard.ShardedSource, []*transport.Client) {
	t.Helper()
	backends := make([]shard.Backend, len(parts))
	clients := make([]*transport.Client, len(parts))
	for i, p := range parts {
		c, err := transport.NewLoopbackClient(wrapper.NewFullAccessSource(p), opt)
		if err != nil {
			t.Fatal(err)
		}
		backends[i], clients[i] = c, c
	}
	return shard.NewFromBackends(name, parts[0].Schema, backends,
		shard.Options{AssumeHashRouting: true}), clients
}

// TestConformanceRemote is the remote differential suite: every query
// shape against FullAccessSource and a ShardedSource whose every shard is
// behind the wire protocol, at 1, 3 and 7 shards, with concurrent query
// batches and interleaved insert rounds, under the race detector (`make
// conformance-remote`). At every shard count both batch forms, columnar
// frames and the row-frame fallback, must cross the wire, so the fallback
// stays under the byte-identical contract. The coordinator ships only
// `SELECT *` fragments and, for join existence probes, join-key columns;
// neither is sure to produce a row frame, so the row frame comes from a
// wide statement sent to each shard directly and held to that shard's own
// reference.
func TestConformanceRemote(t *testing.T) {
	for _, shards := range []int{1, 3, 7} {
		shards := shards
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			db := conformanceDB(t)
			ref := wrapper.NewFullAccessSource(db)
			parts, err := shard.Partition(db, shards)
			if err != nil {
				t.Fatal(err)
			}
			remote, clients := newRemoteSharded(t, db.Name, parts, transport.Options{})
			defer remote.Close()
			// Mutations go through an owned source over the same shard
			// databases: this sweep pins the read path against shared
			// backends, while the remote write path (single-replica
			// groups here would exercise it trivially) is covered with
			// real fault topologies in fault_test.go.
			owned, err := shard.New(db.Name, parts, shard.Options{})
			if err != nil {
				t.Fatal(err)
			}
			queries := append(tableCases(), fuzzCases(131+int64(shards), 100)...)
			for round := 0; round < 3; round++ {
				runBatch(t, ref, remote, queries)
				// Population phase: both coordinators must be quiesced
				// before rows move under the servers.
				remote.Quiesce()
				insertRound(t, db, owned, round)
			}
			queries = append(queries,
				Query{SQL: "SELECT title FROM movie WHERE movie_id = 1105"},
				Query{SQL: "SELECT COUNT(*) FROM movie WHERE title MATCH 'sequel'"},
				// Through the coordinator this ships as a `SELECT *`
				// fragment (columnar); the row frame comes from the direct
				// shard requests below.
				Query{SQL: wideOneRow},
				Query{SQL: `SELECT person.name FROM person
					JOIN cast_info ON cast_info.person_id = person.person_id
					WHERE cast_info.cast_id > 1000 ORDER BY cast_info.cast_id`, TotalOrder: true},
			)
			runBatch(t, ref, remote, queries)
			// The same wide statement sent to each shard directly: the
			// shard holding the row answers in a plain row frame.
			wide, err := sql.Parse(wideOneRow)
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range clients {
				want, err := wrapper.NewFullAccessSource(parts[i]).Execute(wide)
				if err != nil {
					t.Fatal(err)
				}
				got, err := c.Execute(wide)
				if err != nil {
					t.Fatalf("shard %d: %v", i, err)
				}
				g := fmt.Sprintf("%q %q", got.Columns, canonicalRows(got, false))
				w := fmt.Sprintf("%q %q", want.Columns, canonicalRows(want, false))
				if g != w {
					t.Errorf("shard %d: wide row over the wire %s, want %s", i, g, w)
				}
			}

			// Statistics parity: the merged remote snapshot must agree with
			// the owned coordinator's merge (same shards, same merge rule).
			for _, col := range []string{"movie_id", "year", "genre"} {
				want, err := owned.ColumnStatistics("movie", col)
				if err != nil {
					t.Fatal(err)
				}
				got, err := remote.ColumnStatistics("movie", col)
				if err != nil {
					t.Fatal(err)
				}
				if got.Rows != want.Rows || got.NullCount != want.NullCount ||
					got.Distinct != want.Distinct ||
					got.Min.Key() != want.Min.Key() || got.Max.Key() != want.Max.Key() {
					t.Errorf("movie.%s statistics diverge over the wire: got %+v want %+v", col, got, want)
				}
			}
			// Both batch forms crossed the wire above and were held to the
			// reference: the per-batch choice between columnar and row
			// frames is invisible in the results.
			var rowFrames, colFrames uint64
			for _, c := range clients {
				st := c.Stats()
				rowFrames += st.RowFrames
				colFrames += st.ColumnarFrames
			}
			if rowFrames == 0 || colFrames == 0 {
				t.Errorf("decoded %d row frames and %d columnar frames, want both > 0", rowFrames, colFrames)
			}
		})
	}
}

// wideOneRow is a one-row result ten columns wide: its columnar form (one
// encoding tag per column) outgrows the row form (one cell count per row),
// so a shard returning it ships a plain row frame.
const wideOneRow = `SELECT movie_id, title, year, rating, genre,
	genre, rating, year, title, movie_id FROM movie WHERE movie_id = 17`

// TestConformanceRemoteTCP runs the table-driven cases against questshardd-
// shaped servers on real sockets — one TCP listener per shard — to keep the
// socket path (dialing, pooling, partial reads) under the same contract as
// the loopback pipes.
func TestConformanceRemoteTCP(t *testing.T) {
	const shards = 3
	db := conformanceDB(t)
	ref := wrapper.NewFullAccessSource(db)
	parts, err := shard.Partition(db, shards)
	if err != nil {
		t.Fatal(err)
	}
	backends := make([]shard.Backend, shards)
	for i, p := range parts {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go transport.NewServer(wrapper.NewFullAccessSource(p)).Serve(l)
		c, err := transport.Dial([]string{l.Addr().String()}, transport.Options{})
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = c
	}
	remote := shard.NewFromBackends(db.Name, db.Schema, backends, shard.Options{AssumeHashRouting: true})
	defer remote.Close()
	for _, q := range tableCases() {
		if err := Check(ref, remote, q); err != nil {
			t.Error(err)
		}
	}
}

// TestRemoteNoGoroutineLeak pins the acceptance bound: after thousands of
// queries through the remote topology and a Close, the process is back to
// its goroutine baseline — retries, short-circuited probes and pooled
// connections all drain.
func TestRemoteNoGoroutineLeak(t *testing.T) {
	db := conformanceDB(t)
	parts, err := shard.Partition(db, 4)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	remote, _ := newRemoteSharded(t, db.Name, parts, transport.Options{})
	queries := []Query{
		{SQL: "SELECT title FROM movie WHERE movie_id = 17"},
		{SQL: "SELECT COUNT(*) FROM movie WHERE genre = 'drama'"},
		{SQL: `SELECT movie.title FROM movie
			JOIN cast_info ON cast_info.movie_id = movie.movie_id
			WHERE cast_info.role = 'actor' LIMIT 5`},
	}
	n := 3000
	if testing.Short() {
		n = 300
	}
	stmts := make([]*sql.SelectStmt, len(queries))
	for i, q := range queries {
		stmt, err := sql.Parse(q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		stmts[i] = stmt
	}
	for i := 0; i < n; i++ {
		stmt := stmts[i%len(stmts)]
		if _, err := remote.Execute(stmt); err != nil {
			t.Fatal(err)
		}
		if _, err := remote.ExecuteExists(stmt); err != nil {
			t.Fatal(err)
		}
	}
	remote.Close()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("%d goroutines leaked after %d remote queries", g-before, n)
	}
}
