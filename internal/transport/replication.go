package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"time"

	"repro/internal/relational"
	"repro/internal/sql"
	"repro/internal/wal"
)

// Replica roles, as carried by frameConfigure and frameStatusRes. A server
// starts unconfigured (RoleNone) and accepts direct writes like a
// standalone single node; the first frameConfigure from a coordinator
// moves it into the primary/backup regime and arms the epoch fence.
const (
	RoleNone    byte = 0 // never configured: standalone, accepts direct writes
	RolePrimary byte = 1 // applies writes locally, fans them out to backups
	RoleBackup  byte = 2 // applies replicated ops in sequence, rejects direct writes
)

// DefaultMaxOpLog bounds the in-memory op log a server retains for
// replay-on-rejoin. A replica that fell further behind than the retained
// window cannot catch up from the log and is answered errKindLagging
// ("op log trimmed") — the coordinator keeps it out of the read rotation.
// The internal/wal subsystem retains every op durably on disk, but
// replay-on-rejoin is still served from this in-memory window.
const DefaultMaxOpLog = 1 << 16

// DefaultReplTimeout bounds one synchronous replicate round trip from a
// primary to a backup. A backup that cannot ack within it is marked down
// for the epoch and reported !ok in the insert ack, so the coordinator
// learns immediately which replicas hold the row.
const DefaultReplTimeout = 2 * time.Second

// opEntry is one replicated insert in the primary's in-memory op log.
type opEntry struct {
	seq   uint64
	table string
	row   relational.Row
}

// backupLink is a primary's persistent replication connection to one
// backup. Links dial lazily through the server's resolver and die for the
// epoch on the first failed round trip — the coordinator's rejoin flow
// (re-configure + replay) is what brings a backup back, so the primary
// never retries into a replica whose state it cannot know.
type backupLink struct {
	name string
	conn net.Conn
	br   *bufio.Reader
	down bool
}

// replState is a server's replication-role state. One mutex serializes
// every write-path mutation — direct inserts, replicated applies,
// reconfiguration — which is also what makes the underlying database's
// population-phase Insert safe here: a server never applies two writes
// concurrently. The op log and lastSeq survive role changes, so a backup
// promoted to primary serves replay from everything it has applied.
type replState struct {
	epoch   uint64
	role    byte
	lastSeq uint64
	log     []opEntry
	backups []*backupLink
}

// ReplicationStatus reports the server's current epoch, role and last
// applied op sequence (diagnostics and tests).
func (s *Server) ReplicationStatus() (epoch uint64, role byte, lastSeq uint64) {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	return s.repl.epoch, s.repl.role, s.repl.lastSeq
}

// RecoverReplicaState seeds a fresh server's applied-op sequence, the way
// a restart recovers it after reloading retained storage: a replica that
// comes back holding its data but a zero sequence would be replayed the
// whole op log on top of rows it already has. A WAL-backed server never
// calls this — AttachWAL derives the sequence from recovery itself; it
// remains for callers with their own persistence (and for tests that
// model retained storage without a WAL directory).
func (s *Server) RecoverReplicaState(lastSeq uint64) {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	s.repl.lastSeq = lastSeq
}

// handleRepl dispatches one replication frame.
func (s *Server) handleRepl(conn net.Conn, typ byte, payload []byte) error {
	switch typ {
	case frameInsert:
		return s.handleInsert(conn, payload)
	case frameReplicate:
		return s.handleReplicate(conn, payload)
	case frameConfigure:
		return s.handleConfigure(conn, payload)
	case frameStatus:
		return s.handleStatus(conn)
	case frameOps:
		return s.handleOps(conn, payload)
	}
	return writeError(conn, &ProtocolError{Detail: "unknown replication frame"})
}

// handleInsert is the primary write path: apply locally, assign the next
// op sequence, append to the op log (and submit to the WAL when one is
// attached), synchronously replicate to every live backup, and ack with
// the epoch plus the per-backup outcome. Writes carrying a stale epoch —
// or arriving at a backup — are fenced, never applied: promotion bumps
// the epoch, so a coordinator that missed a failover cannot make the old
// primary diverge.
//
// The durability wait happens after replMu is released: the WAL append
// is submitted in sequence order under the lock, but the fsync it joins
// is awaited outside it, so concurrent writers share one group commit
// instead of serializing fsyncs behind the mutex. The ack still follows
// durability — a crash between apply and flush loses only unacked ops,
// which recovery's torn-tail truncation drops as a unit.
func (s *Server) handleInsert(conn net.Conn, payload []byte) error {
	epoch, table, row, err := decodeInsertReq(payload)
	if err != nil {
		return writeError(conn, err)
	}
	if s.ins == nil {
		return writeErrorKind(conn, errKindReadOnly, "backend accepts no writes")
	}
	s.replMu.Lock()
	if s.repl.role == RoleBackup {
		epoch := s.repl.epoch
		s.replMu.Unlock()
		return writeErrorKind(conn, errKindFenced,
			fmt.Sprintf("not primary (epoch %d)", epoch))
	}
	if epoch != s.repl.epoch {
		cur := s.repl.epoch
		s.replMu.Unlock()
		return writeErrorKind(conn, errKindFenced,
			fmt.Sprintf("stale epoch %d, current %d", epoch, cur))
	}
	if err := s.ins.Insert(table, row); err != nil {
		s.replMu.Unlock()
		return writeError(conn, err)
	}
	s.repl.lastSeq++
	seq := s.repl.lastSeq
	s.appendOpLocked(seq, table, row)
	commit := s.walAppendLocked(seq, table, row)
	acks := make([]backupAck, len(s.repl.backups))
	for i, b := range s.repl.backups {
		acks[i] = backupAck{name: b.name, ok: s.replicateTo(b, epoch, seq, table, row)}
	}
	ackEpoch := s.repl.epoch
	s.replMu.Unlock()
	if commit != nil {
		if err := commit.Wait(); err != nil {
			return writeError(conn, err)
		}
	}
	return writeFrame(conn, frameInsertAck, encodeInsertAck(ackEpoch, seq, acks))
}

// walAppendLocked submits one applied op to the WAL (nil without one)
// and runs the snapshot policy. Caller holds replMu — the order appends
// enter the flusher is the order sequences were assigned. A checkpoint
// failure is counted but does not fail the write: the snapshot is an
// optimization, the log already holds the op.
func (s *Server) walAppendLocked(seq uint64, table string, row relational.Row) *wal.Commit {
	if s.wal == nil {
		return nil
	}
	commit := s.wal.Append(seq, table, row)
	if s.wal.ShouldCheckpoint() {
		s.wal.Checkpoint() // failures land in Stats().SnapshotFailures
	}
	return commit
}

// handleReplicate is the backup apply path. Ops apply strictly in
// sequence: a duplicate (seq already applied) acks idempotently so the
// coordinator's replay can overlap a primary's own fan-out without double
// inserts, and a gap is refused as lagging — the replica needs replay,
// not this op. An op from a newer epoch adopts that epoch (the configure
// may still be in flight); one from an older epoch is fenced. With a WAL
// attached the apply is logged before the ack, durability awaited
// outside replMu exactly like the primary path.
func (s *Server) handleReplicate(conn net.Conn, payload []byte) error {
	epoch, seq, table, row, err := decodeReplicateReq(payload)
	if err != nil {
		return writeError(conn, err)
	}
	if s.ins == nil {
		return writeErrorKind(conn, errKindReadOnly, "backend accepts no writes")
	}
	s.replMu.Lock()
	if epoch < s.repl.epoch {
		cur := s.repl.epoch
		s.replMu.Unlock()
		return writeErrorKind(conn, errKindFenced,
			fmt.Sprintf("stale epoch %d, current %d", epoch, cur))
	}
	if epoch > s.repl.epoch {
		s.repl.epoch = epoch
		s.repl.role = RoleBackup
		s.closeBackupsLocked()
	}
	if seq <= s.repl.lastSeq {
		// Already applied (and, with a WAL, already durable): ack
		// idempotently without re-inserting — this is what makes
		// replay-on-rejoin duplicate-free when it overlaps a recovered
		// replica's own history.
		ackEpoch, ackSeq := s.repl.epoch, s.repl.lastSeq
		s.replMu.Unlock()
		return writeFrame(conn, frameInsertAck, encodeInsertAck(ackEpoch, ackSeq, nil))
	}
	if seq != s.repl.lastSeq+1 {
		cur := s.repl.lastSeq
		s.replMu.Unlock()
		return writeErrorKind(conn, errKindLagging,
			fmt.Sprintf("replica at seq %d, got %d", cur, seq))
	}
	if err := s.ins.Insert(table, row); err != nil {
		s.replMu.Unlock()
		return writeError(conn, err)
	}
	s.repl.lastSeq = seq
	s.appendOpLocked(seq, table, row)
	commit := s.walAppendLocked(seq, table, row)
	ackEpoch := s.repl.epoch
	s.replMu.Unlock()
	if commit != nil {
		if err := commit.Wait(); err != nil {
			return writeError(conn, err)
		}
	}
	return writeFrame(conn, frameInsertAck, encodeInsertAck(ackEpoch, seq, nil))
}

// handleConfigure installs a role at an epoch. Only equal-or-newer epochs
// are accepted (a stale coordinator cannot reconfigure a fleet that moved
// on); an equal epoch may still change membership — that is how a
// rejoined replica re-enters the primary's backup list without a
// promotion. The response is the server's status, so the coordinator
// learns lastSeq in the same round trip.
func (s *Server) handleConfigure(conn net.Conn, payload []byte) error {
	epoch, role, backups, err := decodeConfigureReq(payload)
	if err != nil {
		return writeError(conn, err)
	}
	s.replMu.Lock()
	defer s.replMu.Unlock()
	if epoch < s.repl.epoch {
		return writeErrorKind(conn, errKindFenced,
			fmt.Sprintf("stale epoch %d, current %d", epoch, s.repl.epoch))
	}
	s.repl.epoch = epoch
	s.repl.role = role
	s.closeBackupsLocked()
	if role == RolePrimary {
		for _, name := range backups {
			s.repl.backups = append(s.repl.backups, &backupLink{name: name})
		}
	}
	return writeFrame(conn, frameStatusRes, encodeStatusRes(s.repl.epoch, s.repl.role, s.repl.lastSeq))
}

// handleStatus answers the coordinator's health probe: epoch, role, and
// the last applied op sequence — everything the prober needs to spot a
// lagging or diverged replica in one tiny frame.
func (s *Server) handleStatus(conn net.Conn) error {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	return writeFrame(conn, frameStatusRes, encodeStatusRes(s.repl.epoch, s.repl.role, s.repl.lastSeq))
}

// handleOps serves a slice of the op log for replay-on-rejoin: every
// retained op with seq > afterSeq, up to max per request (the coordinator
// loops). A range already trimmed from the log answers errKindLagging —
// the replica cannot be caught up from memory.
func (s *Server) handleOps(conn net.Conn, payload []byte) error {
	afterSeq, max, err := decodeOpsReq(payload)
	if err != nil {
		return writeError(conn, err)
	}
	if max == 0 || max > 1024 {
		max = 1024
	}
	s.replMu.Lock()
	defer s.replMu.Unlock()
	if afterSeq < s.repl.lastSeq {
		trimmedTo := s.repl.lastSeq
		if len(s.repl.log) > 0 {
			trimmedTo = s.repl.log[0].seq - 1
		}
		if afterSeq < trimmedTo {
			return writeErrorKind(conn, errKindLagging,
				fmt.Sprintf("op log trimmed to seq %d, want after %d", trimmedTo, afterSeq))
		}
	}
	var ops []opEntry
	for _, op := range s.repl.log {
		if op.seq <= afterSeq {
			continue
		}
		ops = append(ops, op)
		if uint64(len(ops)) >= max {
			break
		}
	}
	return writeFrame(conn, frameOpsRes, encodeOpsRes(ops))
}

// appendOpLocked records one applied op, trimming the log's head past the
// retention bound.
func (s *Server) appendOpLocked(seq uint64, table string, row relational.Row) {
	s.repl.log = append(s.repl.log, opEntry{seq: seq, table: table, row: row})
	bound := s.MaxOpLog
	if bound <= 0 {
		bound = DefaultMaxOpLog
	}
	if len(s.repl.log) > bound {
		s.repl.log = append([]opEntry(nil), s.repl.log[len(s.repl.log)-bound:]...)
	}
}

func (s *Server) closeBackupsLocked() {
	for _, b := range s.repl.backups {
		if b.conn != nil {
			b.conn.Close()
		}
	}
	s.repl.backups = nil
}

// replicateTo pushes one op to a backup synchronously, dialing the link
// lazily and retrying once on a fresh connection (a pooled link may have
// died idle). Any harder failure marks the link down for the epoch: the
// primary stops trying, the insert ack reports !ok, and the coordinator's
// replay-on-rejoin is the only road back.
func (s *Server) replicateTo(b *backupLink, epoch, seq uint64, table string, row relational.Row) bool {
	if b.down {
		return false
	}
	payload := encodeReplicateReq(epoch, seq, table, row)
	for attempt := 0; attempt < 2; attempt++ {
		if b.conn == nil && !s.dialBackup(b) {
			break
		}
		if s.sendReplicate(b, payload) {
			return true
		}
		b.conn.Close()
		b.conn, b.br = nil, nil
	}
	b.down = true
	return false
}

// dialBackup resolves and dials one backup link.
func (s *Server) dialBackup(b *backupLink) bool {
	resolve := s.Resolver
	if resolve == nil {
		timeout := s.ReplTimeout
		if timeout <= 0 {
			timeout = DefaultReplTimeout
		}
		resolve = func(name string) (net.Conn, error) {
			return net.DialTimeout("tcp", name, timeout)
		}
	}
	conn, err := resolve(b.name)
	if err != nil {
		return false
	}
	b.conn, b.br = conn, bufio.NewReader(conn)
	return true
}

// sendReplicate runs one replicate round trip on an established link.
// Only a positive ack counts: an in-band error (fenced by a newer epoch,
// lagging) means this primary must not keep pushing blind.
func (s *Server) sendReplicate(b *backupLink, payload []byte) bool {
	b.conn.SetDeadline(time.Now().Add(s.replTimeout()))
	defer b.conn.SetDeadline(time.Time{})
	if err := writeFrame(b.conn, frameReplicate, payload); err != nil {
		return false
	}
	typ, _, err := readFrame(b.br, s.maxFrame())
	return err == nil && typ == frameInsertAck
}

func (s *Server) replTimeout() time.Duration {
	if s.ReplTimeout > 0 {
		return s.ReplTimeout
	}
	return DefaultReplTimeout
}

func (s *Server) maxFrame() int {
	if s.MaxFrame > 0 {
		return s.MaxFrame
	}
	return DefaultMaxFrame
}

// ---- replication frame payload codecs ----

// backupAck is one backup's outcome inside an insert ack.
type backupAck struct {
	name string
	ok   bool
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func decodeString(buf []byte) (string, int, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 || uint64(len(buf)-sz) < n {
		return "", 0, &ProtocolError{Detail: "bad string field"}
	}
	return string(buf[sz : sz+int(n)]), sz + int(n), nil
}

func encodeInsertReq(epoch uint64, table string, row relational.Row) []byte {
	buf := binary.AppendUvarint(nil, epoch)
	buf = appendString(buf, table)
	return sql.AppendRow(buf, row)
}

func decodeInsertReq(payload []byte) (epoch uint64, table string, row relational.Row, err error) {
	epoch, sz := binary.Uvarint(payload)
	if sz <= 0 {
		return 0, "", nil, &ProtocolError{Detail: "bad insert request"}
	}
	payload = payload[sz:]
	table, sz, err = decodeString(payload)
	if err != nil {
		return 0, "", nil, err
	}
	row, _, err = sql.DecodeRow(payload[sz:])
	if err != nil {
		return 0, "", nil, &ProtocolError{Detail: err.Error()}
	}
	return epoch, table, row, nil
}

func encodeReplicateReq(epoch, seq uint64, table string, row relational.Row) []byte {
	buf := binary.AppendUvarint(nil, epoch)
	buf = binary.AppendUvarint(buf, seq)
	buf = appendString(buf, table)
	return sql.AppendRow(buf, row)
}

func decodeReplicateReq(payload []byte) (epoch, seq uint64, table string, row relational.Row, err error) {
	epoch, sz := binary.Uvarint(payload)
	if sz <= 0 {
		return 0, 0, "", nil, &ProtocolError{Detail: "bad replicate request"}
	}
	payload = payload[sz:]
	seq, sz = binary.Uvarint(payload)
	if sz <= 0 {
		return 0, 0, "", nil, &ProtocolError{Detail: "bad replicate request"}
	}
	payload = payload[sz:]
	table, sz, err = decodeString(payload)
	if err != nil {
		return 0, 0, "", nil, err
	}
	row, _, err = sql.DecodeRow(payload[sz:])
	if err != nil {
		return 0, 0, "", nil, &ProtocolError{Detail: err.Error()}
	}
	return epoch, seq, table, row, nil
}

func encodeConfigureReq(epoch uint64, role byte, backups []string) []byte {
	buf := binary.AppendUvarint(nil, epoch)
	buf = append(buf, role)
	buf = binary.AppendUvarint(buf, uint64(len(backups)))
	for _, name := range backups {
		buf = appendString(buf, name)
	}
	return buf
}

func decodeConfigureReq(payload []byte) (epoch uint64, role byte, backups []string, err error) {
	epoch, sz := binary.Uvarint(payload)
	if sz <= 0 || len(payload) < sz+1 {
		return 0, 0, nil, &ProtocolError{Detail: "bad configure request"}
	}
	role = payload[sz]
	if role != RolePrimary && role != RoleBackup {
		return 0, 0, nil, &ProtocolError{Detail: "bad configure role"}
	}
	payload = payload[sz+1:]
	n, sz := binary.Uvarint(payload)
	if sz <= 0 || n > uint64(len(payload)) {
		return 0, 0, nil, &ProtocolError{Detail: "bad configure request"}
	}
	payload = payload[sz:]
	for i := uint64(0); i < n; i++ {
		name, nsz, err := decodeString(payload)
		if err != nil {
			return 0, 0, nil, err
		}
		backups = append(backups, name)
		payload = payload[nsz:]
	}
	return epoch, role, backups, nil
}

func encodeInsertAck(epoch, seq uint64, acks []backupAck) []byte {
	buf := binary.AppendUvarint(nil, epoch)
	buf = binary.AppendUvarint(buf, seq)
	buf = binary.AppendUvarint(buf, uint64(len(acks)))
	for _, a := range acks {
		buf = appendString(buf, a.name)
		ok := byte(0)
		if a.ok {
			ok = 1
		}
		buf = append(buf, ok)
	}
	return buf
}

func decodeInsertAck(payload []byte) (epoch, seq uint64, acks []backupAck, err error) {
	epoch, sz := binary.Uvarint(payload)
	if sz <= 0 {
		return 0, 0, nil, &ProtocolError{Detail: "bad insert ack"}
	}
	payload = payload[sz:]
	seq, sz = binary.Uvarint(payload)
	if sz <= 0 {
		return 0, 0, nil, &ProtocolError{Detail: "bad insert ack"}
	}
	payload = payload[sz:]
	n, sz := binary.Uvarint(payload)
	if sz <= 0 || n > uint64(len(payload)) {
		return 0, 0, nil, &ProtocolError{Detail: "bad insert ack"}
	}
	payload = payload[sz:]
	for i := uint64(0); i < n; i++ {
		name, nsz, err := decodeString(payload)
		if err != nil {
			return 0, 0, nil, err
		}
		payload = payload[nsz:]
		if len(payload) < 1 {
			return 0, 0, nil, &ProtocolError{Detail: "bad insert ack"}
		}
		acks = append(acks, backupAck{name: name, ok: payload[0] == 1})
		payload = payload[1:]
	}
	return epoch, seq, acks, nil
}

func encodeStatusRes(epoch uint64, role byte, lastSeq uint64) []byte {
	buf := binary.AppendUvarint(nil, epoch)
	buf = append(buf, role)
	return binary.AppendUvarint(buf, lastSeq)
}

type replicaWireStatus struct {
	epoch   uint64
	role    byte
	lastSeq uint64
}

func decodeStatusRes(payload []byte) (replicaWireStatus, error) {
	var st replicaWireStatus
	epoch, sz := binary.Uvarint(payload)
	if sz <= 0 || len(payload) < sz+1 {
		return st, &ProtocolError{Detail: "bad status response"}
	}
	st.epoch = epoch
	st.role = payload[sz]
	lastSeq, sz2 := binary.Uvarint(payload[sz+1:])
	if sz2 <= 0 {
		return st, &ProtocolError{Detail: "bad status response"}
	}
	st.lastSeq = lastSeq
	return st, nil
}

func encodeOpsReq(afterSeq, max uint64) []byte {
	buf := binary.AppendUvarint(nil, afterSeq)
	return binary.AppendUvarint(buf, max)
}

func decodeOpsReq(payload []byte) (afterSeq, max uint64, err error) {
	afterSeq, sz := binary.Uvarint(payload)
	if sz <= 0 {
		return 0, 0, &ProtocolError{Detail: "bad ops request"}
	}
	max, sz = binary.Uvarint(payload[sz:])
	if sz <= 0 {
		return 0, 0, &ProtocolError{Detail: "bad ops request"}
	}
	return afterSeq, max, nil
}

func encodeOpsRes(ops []opEntry) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(ops)))
	for _, op := range ops {
		buf = binary.AppendUvarint(buf, op.seq)
		buf = appendString(buf, op.table)
		buf = sql.AppendRow(buf, op.row)
	}
	return buf
}

func decodeOpsRes(payload []byte) ([]opEntry, error) {
	n, sz := binary.Uvarint(payload)
	if sz <= 0 || n > uint64(len(payload)) {
		return nil, &ProtocolError{Detail: "bad ops response"}
	}
	payload = payload[sz:]
	var ops []opEntry
	for i := uint64(0); i < n; i++ {
		seq, sz := binary.Uvarint(payload)
		if sz <= 0 {
			return nil, &ProtocolError{Detail: "bad ops response"}
		}
		payload = payload[sz:]
		table, tsz, err := decodeString(payload)
		if err != nil {
			return nil, err
		}
		payload = payload[tsz:]
		row, rsz, err := sql.DecodeRow(payload)
		if err != nil {
			return nil, &ProtocolError{Detail: err.Error()}
		}
		payload = payload[rsz:]
		ops = append(ops, opEntry{seq: seq, table: table, row: row})
	}
	return ops, nil
}
