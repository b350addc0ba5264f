package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/relational"
)

// ReplicaSpec names one replica of a shard group. The name is the
// replica's catalog identity: it is what the coordinator hands the
// primary in frameConfigure, and what the primary's resolver dials to
// replicate — for TCP fleets the name is the replica's address, which is
// exactly what Dial uses.
type ReplicaSpec struct {
	Name string
	Dial Dialer
}

// replicaMeta is the coordinator's view of one replica.
type replicaMeta struct {
	up       bool   // in the read rotation
	suspect  int    // consecutive probe/write failures
	lastSeq  uint64 // last op sequence the replica reported or acked
	diverged bool   // applied ops the current primary never saw; fenced out
}

// fleetState is a replicated client's catalog: who is primary at which
// epoch, which replicas are in the read rotation, and how far each has
// applied. The mutex serializes every catalog transition — writes,
// probes, promotion, replay — and is deliberately held across the network
// round trips those transitions make: replicated writes are
// population-phase operations, and serializing them client-side is what
// makes "replay until caught up" an exact fence rather than a race. The
// read path never takes the mutex: it consumes the atomically published
// rotation, and feeds failures back through a TryLock that skips rather
// than stalls.
type fleetState struct {
	mu         sync.Mutex
	epoch      uint64
	primary    int
	configured bool
	rep        []replicaMeta
	rotation   atomic.Pointer[[]int]

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

func (f *fleetState) stopProber() {
	f.stopOnce.Do(func() { close(f.stop) })
	f.wg.Wait()
}

// NewReplicatedClient builds a client over named replicas of one shard
// group, enabling the replicated-write path (Insert), health probing and
// failover on top of the read surface every client has. Reads start with
// every replica in rotation; the catalog configures itself (choosing a
// primary, fencing an epoch) on the first write or probe.
//
// Specs repeating a name (the same address fat-fingered twice in a shard
// group) collapse to their first occurrence before the catalog is built.
// A duplicate entering rotation twice would race the same process against
// itself on retries and hedged reads, double-count it in replication
// acks, and let one dead process demote "two" replicas.
func NewReplicatedClient(specs []ReplicaSpec, opt Options) (*Client, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("transport: no replicas")
	}
	uniq := make([]ReplicaSpec, 0, len(specs))
	seen := make(map[string]bool, len(specs))
	for _, sp := range specs {
		if seen[sp.Name] {
			continue
		}
		seen[sp.Name] = true
		uniq = append(uniq, sp)
	}
	specs = uniq
	dialers := make([]Dialer, len(specs))
	names := make([]string, len(specs))
	for i, sp := range specs {
		dialers[i] = sp.Dial
		names[i] = sp.Name
	}
	c, err := NewClient(dialers, opt)
	if err != nil {
		return nil, err
	}
	c.names = names
	f := &fleetState{stop: make(chan struct{})}
	f.rep = make([]replicaMeta, len(specs))
	for i := range f.rep {
		f.rep[i].up = true
	}
	rot := append([]int(nil), c.all...)
	f.rotation.Store(&rot)
	c.fleet = f
	if c.opt.ProbeInterval > 0 {
		f.wg.Add(1)
		go c.prober()
	}
	return c, nil
}

// ReplicaStatus is one replica's row in a FleetStatus.
type ReplicaStatus struct {
	Name       string
	Primary    bool
	InRotation bool
	LastSeq    uint64
	Suspect    int
	Diverged   bool
}

// FleetStatus snapshots the replica catalog (diagnostics and tests).
type FleetStatus struct {
	Configured bool
	Epoch      uint64
	Primary    string
	Replicas   []ReplicaStatus
}

// FleetStatus reports the catalog. On clients without one (NewClient,
// NewLoopbackClient) it returns the zero status.
func (c *Client) FleetStatus() FleetStatus {
	f := c.fleet
	if f == nil {
		return FleetStatus{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	st := FleetStatus{Configured: f.configured, Epoch: f.epoch}
	if f.configured {
		st.Primary = c.names[f.primary]
	}
	for i, r := range f.rep {
		st.Replicas = append(st.Replicas, ReplicaStatus{
			Name:       c.names[i],
			Primary:    f.configured && i == f.primary,
			InRotation: r.up,
			LastSeq:    r.lastSeq,
			Suspect:    r.suspect,
			Diverged:   r.diverged,
		})
	}
	return st
}

// Insert is the replicated write path: route the row to the shard group's
// primary with the current epoch, let the primary apply + fan out to its
// backups, and reconcile the catalog from the ack (backups that missed
// the op leave the read rotation until replay). A fenced rejection —
// the fleet moved on from the epoch this client knew — refreshes the
// catalog and retries; a transport failure counts against the primary
// and promotes a backup at the failure threshold, so writes survive a
// dead primary without waiting for the prober. Like every population
// write in this codebase, Insert must not race queries on the same data;
// concurrent Insert calls are safe (the catalog serializes them).
func (c *Client) Insert(table string, row relational.Row) error {
	if c.closed.Load() {
		return ErrClientClosed
	}
	f := c.fleet
	if f == nil {
		return fmt.Errorf("transport: client has no replica catalog (use NewReplicatedClient): %w", ErrReadOnly)
	}
	c.ops.Add(1)
	c.inserts.Add(1)
	f.mu.Lock()
	defer f.mu.Unlock()
	backoff := c.opt.RetryBackoff
	var lastErr error
	for attempt := 0; attempt < c.opt.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			time.Sleep(backoff)
			backoff *= 2
		}
		if c.closed.Load() {
			return ErrClientClosed
		}
		if err := c.ensureConfiguredLocked(); err != nil {
			lastErr = err
			continue
		}
		primary := f.primary
		payload, err := c.exchangeRepl(primary, frameInsert,
			encodeInsertReq(f.epoch, table, row), frameInsertAck)
		if err != nil {
			switch {
			case errors.Is(err, ErrFenced):
				// The fleet moved past our epoch: somebody else configured a
				// newer regime, or this replica is not the primary we think
				// it is. Refresh from replica statuses and re-fence.
				c.fencedW.Add(1)
				c.statusAllLocked()
				f.configured = false
				lastErr = err
				continue
			case isRemoteFinal(err):
				return err // the backend itself rejected the row: final
			default:
				// Transport failure at the primary: count it and promote a
				// backup at the threshold, then retry at the new primary.
				lastErr = err
				f.rep[primary].suspect++
				if f.rep[primary].suspect >= c.opt.ProbeFailThreshold {
					c.demoteLocked(primary)
				}
				continue
			}
		}
		_, seq, acks, err := decodeInsertAck(payload)
		if err != nil {
			lastErr = err
			continue
		}
		f.rep[primary].lastSeq = seq
		f.rep[primary].suspect = 0
		for _, a := range acks {
			i := c.replicaIndex(a.name)
			if i < 0 {
				continue
			}
			if a.ok {
				c.replAcks.Add(1)
				f.rep[i].lastSeq = seq
			} else {
				// The backup missed the op: it is behind the primary now and
				// must not serve reads until replay catches it up.
				c.demoteLocked(i)
			}
		}
		return nil
	}
	return lastErr
}

// isRemoteFinal reports whether a replication-exchange error is a
// deterministic backend rejection (retrying elsewhere cannot help).
func isRemoteFinal(err error) bool {
	var re *RemoteError
	return errors.As(err, &re) || errors.Is(err, ErrReadOnly) || errors.Is(err, ErrLagging)
}

// ProbeNow runs one probe round synchronously: status every replica,
// demote past the failure threshold (promoting a backup when the primary
// died), and replay recovered replicas back into the rotation. The
// background prober calls exactly this; tests and benchmarks drive it
// directly for determinism.
func (c *Client) ProbeNow() {
	f := c.fleet
	if f == nil || c.closed.Load() {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	c.probeOnceLocked()
}

func (c *Client) prober() {
	f := c.fleet
	defer f.wg.Done()
	t := time.NewTicker(c.opt.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
			c.ProbeNow()
		}
	}
}

// noteReadFailure feeds a read-path transport failure into the replica's
// failure count. It only arms when the prober is configured — demotion
// without a prober would shrink the rotation with nothing to readmit
// recovered replicas — and backs off (TryLock) when the catalog is busy
// with a transition, so reads never stall behind a replay.
func (c *Client) noteReadFailure(replica int) {
	f := c.fleet
	if f == nil || c.opt.ProbeInterval <= 0 {
		return
	}
	if !f.mu.TryLock() {
		return
	}
	defer f.mu.Unlock()
	f.rep[replica].suspect++
	if f.rep[replica].suspect >= c.opt.ProbeFailThreshold {
		c.demoteLocked(replica)
	}
}

// ---- catalog transitions (all require f.mu) ----

// publishRotationLocked snapshots the up replicas for the lock-free read
// path.
func (c *Client) publishRotationLocked() {
	f := c.fleet
	rot := make([]int, 0, len(f.rep))
	for i, r := range f.rep {
		if r.up {
			rot = append(rot, i)
		}
	}
	f.rotation.Store(&rot)
}

// demoteLocked pulls a replica from the read rotation; when it was the
// primary of a configured fleet, a live backup is promoted in its place.
func (c *Client) demoteLocked(i int) {
	f := c.fleet
	if f.rep[i].up {
		f.rep[i].up = false
		c.demotions.Add(1)
		c.publishRotationLocked()
	}
	if f.configured && f.primary == i {
		c.promoteLocked()
	}
}

// promoteLocked elects a new primary after the old one was demoted: the
// in-rotation replica with the most applied ops wins (freshest copy —
// promoting a stale one would orphan acked writes), the epoch advances so
// the demoted primary is fenced the moment it resurfaces, and the
// surviving backups are re-pointed at the winner. With nobody left to
// promote the fleet drops to unconfigured; the next write or probe
// re-elects from whatever is reachable then.
func (c *Client) promoteLocked() {
	f := c.fleet
	for {
		cand, best := -1, uint64(0)
		for i, r := range f.rep {
			if !r.up || r.diverged {
				continue
			}
			if cand < 0 || r.lastSeq > best {
				cand, best = i, r.lastSeq
			}
		}
		if cand < 0 {
			f.configured = false
			return
		}
		f.epoch++
		members := c.backupNamesLocked(cand)
		lastSeq, err := c.configureReplica(cand, f.epoch, RolePrimary, members)
		if err != nil {
			c.probeFails.Add(1)
			f.rep[cand].up = false
			c.demotions.Add(1)
			c.publishRotationLocked()
			continue
		}
		f.primary = cand
		f.rep[cand].lastSeq = lastSeq
		f.rep[cand].suspect = 0
		f.configured = true
		c.promotions.Add(1)
		for i, r := range f.rep {
			if i == cand || !r.up {
				continue
			}
			if _, err := c.configureReplica(i, f.epoch, RoleBackup, nil); err != nil {
				f.rep[i].suspect++
				f.rep[i].up = false
				c.demotions.Add(1)
			}
		}
		c.publishRotationLocked()
		return
	}
}

// backupNamesLocked lists the in-rotation replicas other than the primary
// — the membership a primary fans writes out to.
func (c *Client) backupNamesLocked(primary int) []string {
	f := c.fleet
	var names []string
	for i, r := range f.rep {
		if i != primary && r.up && !r.diverged {
			names = append(names, c.names[i])
		}
	}
	return names
}

// ensureConfiguredLocked fences the fleet into a configured regime:
// advance the epoch, elect the reachable replica with the most applied
// ops as primary, enroll the replicas that match its sequence as backups,
// and hand the primary its membership. Replicas that are reachable but
// behind stay out of rotation for the prober's replay path to catch up.
func (c *Client) ensureConfiguredLocked() error {
	f := c.fleet
	if f.configured {
		return nil
	}
	f.epoch++
	// Election order: most-applied first, index as tiebreak. lastSeq here
	// is the catalog's latest knowledge (statusAllLocked refreshes it on
	// the fence path); at first configuration everything is zero and the
	// order is simply replica order.
	order := append([]int(nil), c.all...)
	for x := 1; x < len(order); x++ {
		for y := x; y > 0 && f.rep[order[y]].lastSeq > f.rep[order[y-1]].lastSeq; y-- {
			order[y], order[y-1] = order[y-1], order[y]
		}
	}
	primary := -1
	var lastErr error
	for _, i := range order {
		if f.rep[i].diverged {
			continue
		}
		lastSeq, err := c.configureReplica(i, f.epoch, RolePrimary, nil)
		if err != nil {
			lastErr = err
			f.rep[i].suspect++
			if f.rep[i].up {
				f.rep[i].up = false
				c.demotions.Add(1)
			}
			continue
		}
		primary = i
		f.rep[i].lastSeq = lastSeq
		f.rep[i].suspect = 0
		f.rep[i].up = true
		break
	}
	if primary < 0 {
		c.publishRotationLocked()
		return fmt.Errorf("transport: no reachable replica to configure as primary: %w", lastErr)
	}
	var members []string
	for _, i := range order {
		if i == primary || f.rep[i].diverged {
			continue
		}
		lastSeq, err := c.configureReplica(i, f.epoch, RoleBackup, nil)
		if err != nil {
			f.rep[i].suspect++
			if f.rep[i].up {
				f.rep[i].up = false
				c.demotions.Add(1)
			}
			continue
		}
		f.rep[i].lastSeq = lastSeq
		f.rep[i].suspect = 0
		if lastSeq == f.rep[primary].lastSeq {
			members = append(members, c.names[i])
			f.rep[i].up = true
		} else {
			// Reachable but behind (or ahead: restarted from an older copy
			// while the primary kept writing). Keep it out until the rejoin
			// path reconciles it.
			f.rep[i].up = false
		}
	}
	if _, err := c.configureReplica(primary, f.epoch, RolePrimary, members); err != nil {
		return err
	}
	f.primary = primary
	f.configured = true
	c.publishRotationLocked()
	return nil
}

// statusAllLocked refreshes the catalog's epoch and per-replica sequence
// knowledge from a status round — the recovery step after a fenced write.
func (c *Client) statusAllLocked() {
	f := c.fleet
	for i := range f.rep {
		st, err := c.statusReplica(i)
		if err != nil {
			c.probeFails.Add(1)
			f.rep[i].suspect++
			continue
		}
		f.rep[i].suspect = 0
		f.rep[i].lastSeq = st.lastSeq
		if st.epoch > f.epoch {
			f.epoch = st.epoch
		}
	}
}

// probeOnceLocked is one probe round over every replica.
func (c *Client) probeOnceLocked() {
	f := c.fleet
	for i := range f.rep {
		st, err := c.statusReplica(i)
		if err != nil {
			c.probeFails.Add(1)
			f.rep[i].suspect++
			if f.rep[i].suspect >= c.opt.ProbeFailThreshold && f.rep[i].up {
				c.demoteLocked(i)
			}
			continue
		}
		f.rep[i].suspect = 0
		f.rep[i].lastSeq = st.lastSeq
		if st.epoch > f.epoch {
			f.epoch = st.epoch
		}
		if !f.configured {
			continue
		}
		if i == f.primary {
			if !f.rep[i].up {
				f.rep[i].up = true
				c.publishRotationLocked()
			}
			continue
		}
		switch {
		case !f.rep[i].up && !f.rep[i].diverged:
			// Reachable again: replay it back into the rotation.
			if err := c.rejoinLocked(i); err == nil {
				f.rep[i].up = true
				c.publishRotationLocked()
			}
		case f.rep[i].up && f.rep[i].lastSeq != f.rep[f.primary].lastSeq:
			// In rotation but out of sync — a missed ack the write path did
			// not see. Out it goes; the next round replays it.
			c.demoteLocked(i)
		}
	}
}

// rejoinLocked catches a recovered replica up from the primary's op log
// and re-enrolls it in the primary's membership. The catalog mutex is
// held throughout, so no write can advance the primary mid-replay — when
// this returns nil the replica's sequence equals the primary's exactly.
// A replica that applied ops the primary never saw (a stale primary that
// kept writing) has diverged: it is fenced out of the rotation for good
// rather than served with conflicting data. That holds for WAL-backed
// replicas too — recovery faithfully restores the diverged history, so
// the fence is the only safe answer; repair means discarding the
// replica's WAL directory and rebuilding it from the current primary.
func (c *Client) rejoinLocked(i int) error {
	f := c.fleet
	lastSeq, err := c.configureReplica(i, f.epoch, RoleBackup, nil)
	if err != nil {
		f.rep[i].suspect++
		return err
	}
	pseq := f.rep[f.primary].lastSeq
	if lastSeq > pseq {
		f.rep[i].diverged = true
		return fmt.Errorf("transport: replica %s diverged (seq %d past primary's %d)", c.names[i], lastSeq, pseq)
	}
	replayed := false
	for lastSeq < pseq {
		ops, err := c.fetchOps(f.primary, lastSeq, 512)
		if err != nil || len(ops) == 0 {
			if err == nil {
				err = fmt.Errorf("transport: primary served no ops past seq %d", lastSeq)
			}
			return err
		}
		for _, op := range ops {
			payload := encodeReplicateReq(f.epoch, op.seq, op.table, op.row)
			if _, err := c.exchangeRepl(i, frameReplicate, payload, frameInsertAck); err != nil {
				return err
			}
			lastSeq = op.seq
		}
		replayed = true
	}
	f.rep[i].lastSeq = lastSeq
	f.rep[i].suspect = 0
	if replayed {
		c.replays.Add(1)
	}
	// Re-enroll: the primary's membership regains the replica (same epoch
	// — membership changes are not promotions).
	members := append(c.backupNamesLocked(f.primary), c.names[i])
	_, err = c.configureReplica(f.primary, f.epoch, RolePrimary, members)
	return err
}

// ---- replication exchanges ----

func (c *Client) replicaIndex(name string) int {
	for i, n := range c.names {
		if n == name {
			return i
		}
	}
	return -1
}

// exchangeRepl runs one replication request/response on a specific
// replica (no rotation, no hedging — the catalog chose the target).
// Transport failures retry just far enough to drain dead idle
// connections from the pool plus one fresh dial — a replica that died
// and recovered leaves exactly PoolSize corpses behind, and a probe must
// see through them to the live server.
func (c *Client) exchangeRepl(replica int, reqType byte, req []byte, wantType byte) ([]byte, error) {
	var e *exchange
	var err error
	for attempt := 0; attempt <= c.opt.PoolSize; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
		}
		c.attempts.Add(1)
		e, err = c.startExchange(context.Background(), replica, reqType, req, nil)
		if err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	if e.typ == frameError {
		e.pc.release()
		return nil, decodeRemoteError(e.payload)
	}
	if e.typ != wantType {
		e.pc.close()
		return nil, &ProtocolError{Detail: fmt.Sprintf("unexpected frame 0x%02x, want 0x%02x", e.typ, wantType)}
	}
	e.pc.release()
	return e.payload, nil
}

func (c *Client) statusReplica(i int) (replicaWireStatus, error) {
	c.probesN.Add(1)
	payload, err := c.exchangeRepl(i, frameStatus, nil, frameStatusRes)
	if err != nil {
		return replicaWireStatus{}, err
	}
	return decodeStatusRes(payload)
}

func (c *Client) configureReplica(i int, epoch uint64, role byte, backups []string) (lastSeq uint64, err error) {
	payload, err := c.exchangeRepl(i, frameConfigure, encodeConfigureReq(epoch, role, backups), frameStatusRes)
	if err != nil {
		return 0, err
	}
	st, err := decodeStatusRes(payload)
	if err != nil {
		return 0, err
	}
	return st.lastSeq, nil
}

func (c *Client) fetchOps(primary int, afterSeq uint64, max uint64) ([]opEntry, error) {
	payload, err := c.exchangeRepl(primary, frameOps, encodeOpsReq(afterSeq, max), frameOpsRes)
	if err != nil {
		return nil, err
	}
	return decodeOpsRes(payload)
}
