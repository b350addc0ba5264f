package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"

	"repro/internal/relational"
	"repro/internal/wrapper"
)

// replNet is an in-process network of named replica servers with
// deterministic fault injection: links can be killed (dial refused,
// established connections severed) and restored, and a replica can be
// replaced wholesale to model a process restart. Both the coordinator's
// dialers and every server's backup resolver route through it, so a kill
// partitions the replica from the entire fleet at once.
type replNet struct {
	mu    sync.Mutex
	srvs  map[string]*Server
	down  map[string]bool
	conns map[string][]net.Conn
}

func newReplNet() *replNet {
	return &replNet{srvs: map[string]*Server{}, down: map[string]bool{}, conns: map[string][]net.Conn{}}
}

func (n *replNet) add(name string, srv *Server) {
	srv.Resolver = n.dial
	n.mu.Lock()
	n.srvs[name] = srv
	n.mu.Unlock()
}

func (n *replNet) dial(name string) (net.Conn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	srv := n.srvs[name]
	if srv == nil || n.down[name] {
		return nil, fmt.Errorf("replnet: %s is unreachable", name)
	}
	cc, sc := net.Pipe()
	n.conns[name] = append(n.conns[name], cc, sc)
	go srv.ServeConn(sc)
	return cc, nil
}

func (n *replNet) dialer(name string) Dialer {
	return func() (net.Conn, error) { return n.dial(name) }
}

// kill severs the replica from the network: no new connections, every
// established one (coordinator pool, primary replication links) closed.
func (n *replNet) kill(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down[name] = true
	for _, c := range n.conns[name] {
		c.Close()
	}
	n.conns[name] = nil
}

// restore heals the replica's link; server state is whatever it was.
func (n *replNet) restore(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down[name] = false
}

// restart models a process restart: a brand-new server (the caller built
// it over the replica's retained storage) takes over the name.
func (n *replNet) restart(name string, srv *Server) {
	n.add(name, srv)
	n.restore(name)
}

func (n *replNet) killAll() {
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

// copyDB clones a database — each replica of a test fleet owns its copy.
func copyDB(t testing.TB, db *relational.Database, name string) *relational.Database {
	t.Helper()
	out, err := relational.NewDatabase(name, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range db.Schema.Tables() {
		for _, row := range db.Table(ts.Name).Rows() {
			if err := out.Insert(ts.Name, row.Clone()); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// testFleet is R replicas of one shard group over a shared fault net.
type testFleet struct {
	net  *replNet
	dbs  []*relational.Database
	srvs []*Server
	cl   *Client
}

func newTestFleet(t *testing.T, r int, opt Options) *testFleet {
	t.Helper()
	base := testDB(t)
	f := &testFleet{net: newReplNet()}
	specs := make([]ReplicaSpec, r)
	for i := 0; i < r; i++ {
		name := fmt.Sprintf("r%d", i)
		db := copyDB(t, base, name)
		srv := NewServer(wrapper.NewFullAccessSource(db))
		f.net.add(name, srv)
		f.dbs = append(f.dbs, db)
		f.srvs = append(f.srvs, srv)
		specs[i] = ReplicaSpec{Name: name, Dial: f.net.dialer(name)}
	}
	cl, err := NewReplicatedClient(specs, opt)
	if err != nil {
		t.Fatal(err)
	}
	f.cl = cl
	t.Cleanup(func() {
		cl.Close()
		f.net.killAll()
	})
	return f
}

func movieRow(id int64) relational.Row {
	return relational.Row{
		relational.Int(id),
		relational.String_(fmt.Sprintf("late movie %d", id)),
		relational.Int(2013),
	}
}

func movieCount(db *relational.Database) int {
	return len(db.Table("movie").Rows())
}

// TestReplicatedInsertFanOut: a write through the fleet client lands on
// every replica synchronously, and the catalog tracks the op sequence.
func TestReplicatedInsertFanOut(t *testing.T) {
	f := newTestFleet(t, 3, Options{RetryBackoff: 1})
	const n = 10
	for i := 0; i < n; i++ {
		if err := f.cl.Insert("movie", movieRow(int64(1000+i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, srv := range f.srvs {
		srv.Quiesce()
	}
	for i, db := range f.dbs {
		if got := movieCount(db); got != 500+n {
			t.Fatalf("replica %d has %d movie rows, want %d", i, got, 500+n)
		}
	}
	st := f.cl.FleetStatus()
	if !st.Configured || st.Epoch != 1 {
		t.Fatalf("fleet not configured at epoch 1: %+v", st)
	}
	for _, r := range st.Replicas {
		if !r.InRotation || r.LastSeq != n {
			t.Fatalf("replica %s: rotation=%v lastSeq=%d, want in rotation at seq %d", r.Name, r.InRotation, r.LastSeq, n)
		}
	}
	cs := f.cl.Stats()
	if cs.Inserts != n || cs.ReplicationAcks != 2*n {
		t.Fatalf("Inserts=%d ReplicationAcks=%d, want %d and %d", cs.Inserts, cs.ReplicationAcks, n, 2*n)
	}
	// Reads keep working against the replicated fleet.
	res, err := f.cl.Execute(mustParse(t, "SELECT COUNT(*) FROM movie"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Key() != relational.Int(500+n).Key() {
		t.Fatalf("count after inserts = %v", res.Rows[0][0])
	}
}

// TestEpochFencing pins the server-side fence: direct writes work on an
// unconfigured (standalone) server, a backup refuses direct writes, and a
// primary refuses epochs other than its own.
func TestEpochFencing(t *testing.T) {
	db := copyDB(t, testDB(t), "solo")
	srv := NewServer(wrapper.NewFullAccessSource(db))
	c, err := NewReplicatedClient(
		[]ReplicaSpec{{Name: "solo", Dial: LoopbackDialer(srv)}}, Options{RetryBackoff: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Standalone: epoch 0, never configured, direct write accepted.
	if _, err := c.exchangeRepl(0, frameInsert, encodeInsertReq(0, "movie", movieRow(2000)), frameInsertAck); err != nil {
		t.Fatalf("standalone write: %v", err)
	}
	// Configure as backup at epoch 5: direct writes now fenced.
	if _, err := c.configureReplica(0, 5, RoleBackup, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.exchangeRepl(0, frameInsert, encodeInsertReq(5, "movie", movieRow(2001)), frameInsertAck); !errors.Is(err, ErrFenced) {
		t.Fatalf("write to backup = %v, want ErrFenced", err)
	}
	// Promote to primary at epoch 6: the old epoch is fenced, the new one
	// writes, and a stale configure cannot roll the fleet back.
	if _, err := c.configureReplica(0, 6, RolePrimary, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.exchangeRepl(0, frameInsert, encodeInsertReq(5, "movie", movieRow(2002)), frameInsertAck); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale-epoch write = %v, want ErrFenced", err)
	}
	if _, err := c.exchangeRepl(0, frameInsert, encodeInsertReq(6, "movie", movieRow(2003)), frameInsertAck); err != nil {
		t.Fatalf("current-epoch write: %v", err)
	}
	if _, err := c.configureReplica(0, 4, RoleBackup, nil); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale configure = %v, want ErrFenced", err)
	}
	if epoch, role, lastSeq := srv.ReplicationStatus(); epoch != 6 || role != RolePrimary || lastSeq != 2 {
		t.Fatalf("status = epoch %d role %d seq %d", epoch, role, lastSeq)
	}
}

// TestBackupFailureDemotesAndRejoinReplays: killing a backup mid-stream
// of writes pulls it from rotation via the insert ack; healing the link
// lets the prober replay the missed ops and readmit it.
func TestBackupFailureDemotesAndRejoinReplays(t *testing.T) {
	f := newTestFleet(t, 2, Options{RetryBackoff: 1})
	for i := 0; i < 5; i++ {
		if err := f.cl.Insert("movie", movieRow(int64(1000+i))); err != nil {
			t.Fatal(err)
		}
	}
	f.net.kill("r1")
	for i := 5; i < 10; i++ {
		if err := f.cl.Insert("movie", movieRow(int64(1000+i))); err != nil {
			t.Fatal(err)
		}
	}
	st := f.cl.FleetStatus()
	if st.Replicas[1].InRotation {
		t.Fatal("dead backup still in rotation")
	}
	if got := f.cl.Stats().Demotions; got == 0 {
		t.Fatal("no demotion counted")
	}
	// Reads still flow — from the primary alone.
	if _, err := f.cl.Execute(mustParse(t, "SELECT COUNT(*) FROM movie")); err != nil {
		t.Fatalf("read in degraded topology: %v", err)
	}

	f.net.restore("r1")
	f.cl.ProbeNow()
	st = f.cl.FleetStatus()
	if !st.Replicas[1].InRotation || st.Replicas[1].LastSeq != 10 {
		t.Fatalf("rejoined replica: %+v", st.Replicas[1])
	}
	if got := f.cl.Stats().Replays; got != 1 {
		t.Fatalf("Replays = %d, want 1", got)
	}
	f.srvs[1].Quiesce()
	if a, b := movieCount(f.dbs[0]), movieCount(f.dbs[1]); a != b || a != 510 {
		t.Fatalf("replica divergence after replay: %d vs %d", a, b)
	}
	// The rejoined backup is back in the primary's membership: the next
	// write reaches it synchronously.
	if err := f.cl.Insert("movie", movieRow(1100)); err != nil {
		t.Fatal(err)
	}
	f.srvs[1].Quiesce()
	if got := movieCount(f.dbs[1]); got != 511 {
		t.Fatalf("post-rejoin write missed the backup: %d rows", got)
	}
}

// TestPrimaryFailurePromotesFreshestBackup: killing the primary promotes
// the live backup with the highest applied sequence at a bumped epoch,
// writes keep succeeding, and both the old primary and a stale backup
// replay their way back in.
func TestPrimaryFailurePromotesFreshestBackup(t *testing.T) {
	f := newTestFleet(t, 3, Options{RetryBackoff: 1, MaxAttempts: 6})
	for i := 0; i < 3; i++ {
		if err := f.cl.Insert("movie", movieRow(int64(1000+i))); err != nil {
			t.Fatal(err)
		}
	}
	f.net.kill("r2") // r2 stops at seq 3
	if err := f.cl.Insert("movie", movieRow(1003)); err != nil {
		t.Fatal(err) // seq 4: r1 acks, r2 reported down
	}
	f.net.kill("r0") // primary dies
	if err := f.cl.Insert("movie", movieRow(1004)); err != nil {
		t.Fatalf("write across primary failure: %v", err)
	}
	st := f.cl.FleetStatus()
	if st.Primary != "r1" || st.Epoch != 2 {
		t.Fatalf("promotion chose %s at epoch %d, want r1 at 2", st.Primary, st.Epoch)
	}
	cs := f.cl.Stats()
	if cs.Promotions != 1 {
		t.Fatalf("Promotions = %d, want 1", cs.Promotions)
	}

	// Both casualties heal: the stale backup and the deposed primary each
	// rejoin via replay, then take replicated writes again.
	f.net.restore("r2")
	f.net.restore("r0")
	f.cl.ProbeNow()
	st = f.cl.FleetStatus()
	for _, r := range st.Replicas {
		if !r.InRotation || r.LastSeq != 5 {
			t.Fatalf("replica %s after heal: %+v", r.Name, r)
		}
	}
	if epoch, role, _ := f.srvs[0].ReplicationStatus(); epoch != 2 || role != RoleBackup {
		t.Fatalf("deposed primary: epoch %d role %d, want backup at 2", epoch, role)
	}
	if err := f.cl.Insert("movie", movieRow(1005)); err != nil {
		t.Fatal(err)
	}
	for _, srv := range f.srvs {
		srv.Quiesce()
	}
	for i, db := range f.dbs {
		if got := movieCount(db); got != 506 {
			t.Fatalf("replica %d has %d rows, want 506", i, got)
		}
	}
}

// TestRestartRecoversAndRejoins models a process restart over retained
// storage: a fresh server takes over the replica's database, recovers its
// applied sequence (the durability layer's job, seeded explicitly here),
// and the rejoin replays exactly the ops it missed — no duplicates, no
// gaps.
func TestRestartRecoversAndRejoins(t *testing.T) {
	f := newTestFleet(t, 2, Options{RetryBackoff: 1})
	for i := 0; i < 4; i++ {
		if err := f.cl.Insert("movie", movieRow(int64(1000+i))); err != nil {
			t.Fatal(err)
		}
	}
	f.net.kill("r1")
	_, _, seqAtCrash := f.srvs[1].ReplicationStatus()
	for i := 4; i < 8; i++ {
		if err := f.cl.Insert("movie", movieRow(int64(1000+i))); err != nil {
			t.Fatal(err)
		}
	}
	// Restart: new server, same database, recovered sequence.
	srv2 := NewServer(wrapper.NewFullAccessSource(f.dbs[1]))
	srv2.RecoverReplicaState(seqAtCrash)
	f.srvs[1] = srv2
	f.net.restart("r1", srv2)
	f.cl.ProbeNow()

	st := f.cl.FleetStatus()
	if !st.Replicas[1].InRotation || st.Replicas[1].LastSeq != 8 {
		t.Fatalf("restarted replica: %+v", st.Replicas[1])
	}
	srv2.Quiesce()
	if a, b := movieCount(f.dbs[0]), movieCount(f.dbs[1]); a != b || a != 508 {
		t.Fatalf("restart replay wrong: %d vs %d rows, want 508", a, b)
	}
}

// TestInsertReadOnlyBackend: a fleet whose server-side backend has no
// write face (materializedOnly carries no wrapper.Inserter) answers the
// insert with the read-only error kind; Insert surfaces the typed
// ErrReadOnly and reads are unaffected.
func TestInsertReadOnlyBackend(t *testing.T) {
	db := copyDB(t, testDB(t), "ro")
	srv := NewServer(&materializedOnly{SourceExecutor: wrapper.NewFullAccessSource(db)})
	c, err := NewReplicatedClient(
		[]ReplicaSpec{{Name: "ro", Dial: LoopbackDialer(srv)}},
		Options{MaxAttempts: 2, RetryBackoff: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Insert("movie", movieRow(9000)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Insert on read-only backend = %v, want ErrReadOnly", err)
	}
	// Reads are unaffected.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	stmt := mustParse(t, "SELECT title FROM movie")
	got, err := c.Execute(stmt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := wrapper.NewFullAccessSource(db).Execute(stmt)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, got, want)
}

// TestDuplicateReplicaSpecsCollapse: a shard group listing the same
// replica address twice (a copy-pasted fleet config) must collapse to
// one catalog entry before the fleet is built. Without the dedupe the
// duplicate enters the read rotation and the replication fan-out twice:
// a single write replicates to the same process twice (the second apply
// rejects the duplicate primary key), and one dead process demotes "two"
// replicas' worth of rotation.
func TestDuplicateReplicaSpecsCollapse(t *testing.T) {
	base := testDB(t)
	net := newReplNet()
	names := []string{"r0", "r1"}
	dbs := make([]*relational.Database, len(names))
	for i, name := range names {
		dbs[i] = copyDB(t, base, name)
		net.add(name, NewServer(wrapper.NewFullAccessSource(dbs[i])))
	}
	specs := []ReplicaSpec{
		{Name: "r0", Dial: net.dialer("r0")},
		{Name: "r0", Dial: net.dialer("r0")}, // fat-fingered duplicate
		{Name: "r1", Dial: net.dialer("r1")},
		{Name: "r0", Dial: net.dialer("r0")}, // and again
	}
	c, err := NewReplicatedClient(specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		c.Close()
		net.killAll()
	}()

	if got := c.Replicas(); got != len(names) {
		t.Fatalf("Replicas() = %d, want %d unique", got, len(names))
	}
	st := c.FleetStatus()
	seen := map[string]bool{}
	for _, r := range st.Replicas {
		if seen[r.Name] {
			t.Fatalf("replica %q appears twice in the catalog: %+v", r.Name, st.Replicas)
		}
		seen[r.Name] = true
	}
	for _, name := range names {
		if !seen[name] {
			t.Fatalf("replica %q missing from the catalog: %+v", name, st.Replicas)
		}
	}

	// A write through the deduped fleet lands exactly once per process.
	if err := c.Insert("movie", movieRow(7700)); err != nil {
		t.Fatal(err)
	}
	for i, db := range dbs {
		if got, want := movieCount(db), movieCount(base)+1; got != want {
			t.Fatalf("replica %s: %d movies after insert, want %d", names[i], got, want)
		}
	}
}
