package shard

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/relational"
	"repro/internal/sql"
	"repro/internal/transport"
	"repro/internal/wrapper"
)

// writeBackend is a stub backend that records inserts.
type writeBackend struct {
	stubBackend
	rows map[string][]relational.Row
}

func (b *writeBackend) Insert(table string, row relational.Row) error {
	if b.rows == nil {
		b.rows = map[string][]relational.Row{}
	}
	b.rows[table] = append(b.rows[table], row)
	return nil
}

// TestInsertReadOnlyTopology pins the typed error: a source over injected
// backends without a write surface rejects Insert with
// ErrReadOnlyTopology, identifiable with errors.Is, and the message names
// the source.
func TestInsertReadOnlyTopology(t *testing.T) {
	db := testDB(t, 4, 4, 4)
	ro := &stubBackend{exists: func(*sql.SelectStmt) (bool, error) { return false, nil }}
	src := NewFromBackends("frozen", db.Schema, []Backend{ro, ro}, Options{Workers: 1})
	err := src.Insert("movie", relational.Row{
		relational.Int(99), relational.String_("x"), relational.Int(2000), relational.Null(),
	})
	if !errors.Is(err, ErrReadOnlyTopology) {
		t.Fatalf("Insert over read-only backends = %v, want ErrReadOnlyTopology", err)
	}
	if !strings.Contains(err.Error(), "frozen") || !strings.Contains(err.Error(), "read-only") {
		t.Errorf("error message %q should name the source and say read-only", err)
	}
}

// readOnlyExecutor hides every face of its backend but the query
// surface, wrapper.Inserter included.
type readOnlyExecutor struct {
	wrapper.SourceExecutor
}

// TestInsertReadOnlyTopologyRemote pins the remote flavor: transport
// servers whose backend has no write face answer inserts with the
// read-only error kind, and the sharded source surfaces that as the same
// ErrReadOnlyTopology rather than a bare transport error.
func TestInsertReadOnlyTopologyRemote(t *testing.T) {
	db := testDB(t, 8, 4, 8)
	parts, err := Partition(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	backends := make([]Backend, len(parts))
	for i, p := range parts {
		srv := transport.NewServer(&readOnlyExecutor{SourceExecutor: wrapper.NewFullAccessSource(p)})
		cl, err := transport.NewReplicatedClient(
			[]transport.ReplicaSpec{{Name: "r0", Dial: transport.LoopbackDialer(srv)}},
			transport.Options{MaxAttempts: 2, RetryBackoff: 1},
		)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		backends[i] = cl
	}
	src := NewFromBackends(db.Name, db.Schema, backends, Options{AssumeHashRouting: true, Workers: 2})
	err = src.Insert("movie", relational.Row{
		relational.Int(999), relational.String_("late arrival"), relational.Int(2013), relational.Null(),
	})
	if !errors.Is(err, ErrReadOnlyTopology) {
		t.Fatalf("Insert over read-only servers = %v, want ErrReadOnlyTopology", err)
	}
	// Reads must be unaffected by the failed write.
	res, err := src.Execute(mustParse(t, "SELECT movie_id FROM movie"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("read after rejected write: %d rows, want 8", len(res.Rows))
	}
}

// TestInsertRoutesThroughInjectedBackends verifies the write-through
// path: PK rows land on the hash-routed shard (matching Partition), and
// keyless rows round-robin off the coordinator-local ordinal.
func TestInsertRoutesThroughInjectedBackends(t *testing.T) {
	s := relational.NewSchema()
	if err := s.AddTable(&relational.TableSchema{
		Name: "m",
		Columns: []relational.Column{
			{Name: "id", Type: relational.TypeInt, NotNull: true},
		},
		PrimaryKey: "id",
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTable(&relational.TableSchema{
		Name: "log",
		Columns: []relational.Column{
			{Name: "msg", Type: relational.TypeString},
		},
	}); err != nil {
		t.Fatal(err)
	}
	n := 3
	backends := make([]Backend, n)
	recs := make([]*writeBackend, n)
	for i := range backends {
		recs[i] = &writeBackend{}
		backends[i] = recs[i]
	}
	src := NewFromBackends("routed", s, backends, Options{Workers: 1})

	ts := s.Table("m")
	for id := int64(1); id <= 20; id++ {
		row := relational.Row{relational.Int(id)}
		want := routeFor(ts, row, 0, n)
		if err := src.Insert("m", row); err != nil {
			t.Fatal(err)
		}
		got := -1
		for i, r := range recs {
			if len(r.rows["m"]) > 0 && r.rows["m"][len(r.rows["m"])-1][0].Key() == row[0].Key() {
				got = i
			}
		}
		if got != want {
			t.Fatalf("pk row %d routed to shard %d, want %d", id, got, want)
		}
	}
	for i := 0; i < 2*n; i++ {
		if err := src.Insert("log", relational.Row{relational.String_("x")}); err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range recs {
		if len(r.rows["log"]) != 2 {
			t.Fatalf("keyless rows unbalanced: shard %d got %d of 6", i, len(r.rows["log"]))
		}
	}
	if err := src.Insert("nope", relational.Row{}); err == nil {
		t.Fatal("unknown table accepted")
	}
}

// TestInsertRemoteWriteThrough is the end-to-end regression: a row
// inserted through a remote sharded source (replicated clients over
// loopback servers) is immediately visible to queries, on the shard the
// partitioning would have chosen.
func TestInsertRemoteWriteThrough(t *testing.T) {
	db := testDB(t, 10, 6, 12)
	parts, err := Partition(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	servers := make([]*transport.Server, len(parts))
	backends := make([]Backend, len(parts))
	for i, p := range parts {
		servers[i] = transport.NewServer(wrapper.NewFullAccessSource(p))
		cl, err := transport.NewReplicatedClient(
			[]transport.ReplicaSpec{{Name: "r0", Dial: transport.LoopbackDialer(servers[i])}},
			transport.Options{},
		)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		backends[i] = cl
	}
	src := NewFromBackends(db.Name, db.Schema, backends, Options{AssumeHashRouting: true, Workers: 2})
	row := relational.Row{
		relational.Int(4242), relational.String_("storm river"), relational.Int(2013), relational.String_("drama"),
	}
	if err := src.Insert("movie", row); err != nil {
		t.Fatal(err)
	}
	for _, srv := range servers {
		srv.Quiesce()
	}
	res, err := src.Execute(mustParse(t, "SELECT title FROM movie WHERE movie_id = 4242"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Key() != relational.String_("storm river").Key() {
		t.Fatalf("inserted row not visible: %v", res.Rows)
	}
	// The row must sit on the shard Partition would have chosen — pruning
	// correctness depends on it.
	want := routeFor(db.Schema.Table("movie"), row, 0, len(parts))
	found, err := backends[want].ExecuteExists(mustParse(t, "SELECT title FROM movie WHERE movie_id = 4242"))
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatalf("row not on hash-routed shard %d", want)
	}
}
