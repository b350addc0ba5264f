package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/relational"
	"repro/internal/sql"
	"repro/internal/wal"
	"repro/internal/wrapper"
)

// DefaultBatchRows is how many rows a server packs into one frameRows
// before flushing, so large results stream instead of arriving as one
// frame and small ones do not pay per-row syscalls.
const DefaultBatchRows = 256

// BatchByteCap is the encoded-size cut for a row batch: a batch flushes
// once it crosses this many bytes even before reaching the row-count cut.
// It is deliberately far below DefaultMaxFrame so that a client with a
// smaller configured frame cap (Options.MaxFrame, bounding coordinator
// memory) can still read default-configured servers — clients should not
// set MaxFrame below this value plus their widest row.
const BatchByteCap = 256 << 10

// scorer is the optional relevance face of a backend (mirrors the
// unexported interface in internal/shard): full-access backends answer
// keyword relevance and join-edge statistics, pure executors do not.
type scorer interface {
	AttributeScore(table, column, keyword string) float64
	EdgeDistance(e relational.JoinEdge) (float64, error)
}

// Server serves one backend over the wire protocol. The zero limits mean
// defaults; a Server is safe for concurrent use when its backend is (the
// sharded coordinator requires that of every Backend anyway). When the
// backend exposes a write face (wrapper.Inserter) the server also speaks
// the protocol-v3 replication frames: direct inserts as a primary,
// sequenced applies as a backup, role configuration and op-log replay —
// see replication.go.
type Server struct {
	backend wrapper.SourceExecutor
	stats   wrapper.StatisticsProvider // nil when the backend has none
	score   scorer                     // nil when the backend has none
	ins     wrapper.Inserter           // nil when the backend is read-only
	// tableCols caches tableColumns: lower-cased table name → []string.
	tableCols sync.Map

	// MaxFrame caps accepted request frames (DefaultMaxFrame when 0).
	MaxFrame int
	// BatchRows is the row-batch size per frameRows (DefaultBatchRows when 0).
	BatchRows int
	// Resolver dials a replication peer by the name the coordinator
	// configured (nil means the name is a TCP address). Tests inject
	// loopback registries with per-link fault switches through it.
	Resolver func(name string) (net.Conn, error)
	// ReplTimeout bounds one synchronous replicate round trip to a backup
	// (DefaultReplTimeout when 0).
	ReplTimeout time.Duration
	// MaxOpLog bounds the retained replay log (DefaultMaxOpLog when 0).
	MaxOpLog int

	replMu sync.Mutex
	repl   replState
	// wal, when attached, makes the write path durable: every applied op
	// is appended before the ack and the ack waits for its group-commit
	// batch to reach disk (see AttachWAL).
	wal *wal.Log

	// inflight is held (read side) by every request handler while it
	// executes, so Quiesce can fence population-phase writes off
	// straggling reads (a killed connection's handler may still be
	// mid-execute after the client gave up on it). An RWMutex rather than
	// a WaitGroup because requests keep arriving while Quiesce drains —
	// probes, replication traffic — and WaitGroup forbids Add concurrent
	// with Wait; here late arrivals just block until the barrier lifts.
	inflight sync.RWMutex

	// bufHighWater tracks the most result bytes any single query held
	// buffered server-side before a flush — the memory-bound evidence for
	// the streaming path. A streaming query plateaus around one batch; a
	// materialized fallback records the whole encoded result.
	bufHighWater atomic.Int64
}

// BufferHighWater reports the largest number of result bytes a single
// query has held buffered since the last reset.
func (s *Server) BufferHighWater() int64 { return s.bufHighWater.Load() }

// ResetBufferHighWater clears the gauge (benchmark harnesses measure one
// workload at a time).
func (s *Server) ResetBufferHighWater() { s.bufHighWater.Store(0) }

func (s *Server) noteBuffered(n int) {
	for {
		cur := s.bufHighWater.Load()
		if int64(n) <= cur || s.bufHighWater.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// NewServer wraps a backend, discovering its optional statistics and
// relevance faces by type assertion — a *wrapper.FullAccessSource exposes
// all of them, a bare executor only the query surface.
func NewServer(backend wrapper.SourceExecutor) *Server {
	s := &Server{backend: backend}
	if sp, ok := backend.(wrapper.StatisticsProvider); ok {
		s.stats = sp
	}
	if sc, ok := backend.(scorer); ok {
		s.score = sc
	}
	if in, ok := backend.(wrapper.Inserter); ok {
		s.ins = in
	}
	return s
}

// AttachWAL arms the durable write path: every apply (direct insert or
// replicated op) is appended to l before its ack, and the ack waits for
// the op's group-commit batch to reach disk. Attaching also seeds the
// replication state from the log's recovered sequence — the restart
// contract RecoverReplicaState describes, derived automatically from
// the WAL instead of handed in by the operator — so a restarted replica
// resumes exactly where its directory left off and fleet replay skips
// everything it already holds. Attach before the server accepts
// connections; the backend must be the database the log recovered.
func (s *Server) AttachWAL(l *wal.Log) {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	s.wal = l
	if seq := l.LastSeq(); seq > s.repl.lastSeq {
		s.repl.lastSeq = seq
	}
}

// WALStats snapshots the attached log's durability counters; ok is
// false for a memory-only server.
func (s *Server) WALStats() (st wal.Stats, ok bool) {
	s.replMu.Lock()
	l := s.wal
	s.replMu.Unlock()
	if l == nil {
		return wal.Stats{}, false
	}
	return l.Stats(), true
}

// Quiesce blocks until every request handler currently executing has
// returned. Population-phase discipline for a fleet: a client-side abort
// (killed connection, abandoned hedge) can leave a server handler
// mid-execute after the coordinator moved on, and a write racing that
// straggler would violate the engine's population-phase contract.
// Requests arriving while Quiesce drains (probes, replication) block at
// the barrier and proceed once it lifts; it remains the caller's job not
// to issue new *writes* across a quiesce, exactly as with
// relational.Database.Insert.
func (s *Server) Quiesce() {
	s.inflight.Lock()
	//lint:ignore SA2001 the critical section is the barrier itself:
	// acquiring the write lock proves every handler's read lock drained.
	s.inflight.Unlock()
}

// Serve accepts connections until the listener closes, serving each on its
// own goroutine. It returns the listener's accept error (net.ErrClosed
// after a clean Close).
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go s.ServeConn(conn)
	}
}

// ServeConn runs the request loop on one connection until the peer hangs
// up or violates the protocol, then closes it. Requests on a connection
// are strictly sequential, matching the client's request/response
// discipline.
func (s *Server) ServeConn(conn net.Conn) {
	defer conn.Close()
	maxFrame := s.MaxFrame
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	br := bufio.NewReader(conn)
	ver := ProtocolV1 // no hello yet: the original row-frame protocol
	for {
		typ, payload, err := readFrame(br, maxFrame)
		if err != nil {
			return // disconnect or corrupt stream: drop the connection
		}
		if typ == frameHello {
			// Version negotiation: grant the requested version clamped to
			// what this server speaks. The granted version sticks to the
			// connection; a client that never says hello stays on v1.
			if len(payload) != 1 || payload[0] == 0 {
				if err := writeError(conn, &ProtocolError{Detail: "bad hello payload"}); err != nil {
					return
				}
				continue
			}
			v := int(payload[0])
			if v > ProtocolLatest {
				v = ProtocolLatest
			}
			ver = v
			if err := writeFrame(conn, frameHelloAck, []byte{byte(v)}); err != nil {
				return
			}
			continue
		}
		s.inflight.RLock()
		err = s.handle(conn, typ, payload, ver)
		s.inflight.RUnlock()
		if err != nil {
			return // write-side failure: peer is gone
		}
	}
}

// handle dispatches one request. A returned error means the connection is
// unusable (write failed); backend-level rejections are answered in-band
// with frameError and keep the connection alive.
func (s *Server) handle(conn net.Conn, typ byte, payload []byte, ver int) error {
	switch typ {
	case framePing:
		return writeFrame(conn, framePong, nil)
	case frameQuery:
		return s.handleQuery(conn, payload, ver)
	case frameExists:
		stmt, err := sql.Parse(string(payload))
		if err != nil {
			return writeError(conn, err)
		}
		ok, err := s.backend.ExecuteExists(stmt)
		if err != nil {
			return writeError(conn, err)
		}
		b := byte(0)
		if ok {
			b = 1
		}
		return writeFrame(conn, frameBool, []byte{b})
	case frameStats:
		args, _, err := sql.DecodeColumns(payload)
		if err != nil || len(args) != 2 {
			return writeError(conn, &ProtocolError{Detail: "bad stats request"})
		}
		if s.stats == nil {
			return writeErrorKind(conn, errKindNoInstance, wrapper.ErrNoInstanceAccess.Error())
		}
		cs, err := s.stats.ColumnStatistics(args[0], args[1])
		if err != nil {
			if errors.Is(err, wrapper.ErrNoInstanceAccess) {
				return writeErrorKind(conn, errKindNoInstance, err.Error())
			}
			return writeError(conn, err)
		}
		return writeFrame(conn, frameStatsRes, sql.AppendColumnStats(nil, cs))
	case frameScore:
		args, _, err := sql.DecodeColumns(payload)
		if err != nil || len(args) != 3 {
			return writeError(conn, &ProtocolError{Detail: "bad score request"})
		}
		v := 0.0
		if s.score != nil {
			v = s.score.AttributeScore(args[0], args[1], args[2])
		}
		return writeFloat(conn, v)
	case frameEdge:
		args, _, err := sql.DecodeColumns(payload)
		if err != nil || len(args) != 4 {
			return writeError(conn, &ProtocolError{Detail: "bad edge request"})
		}
		if s.score == nil {
			return writeErrorKind(conn, errKindNoInstance, wrapper.ErrNoInstanceAccess.Error())
		}
		d, err := s.score.EdgeDistance(relational.JoinEdge{
			FromTable: args[0], FromColumn: args[1], ToTable: args[2], ToColumn: args[3],
		})
		if err != nil {
			if errors.Is(err, wrapper.ErrNoInstanceAccess) {
				return writeErrorKind(conn, errKindNoInstance, err.Error())
			}
			return writeError(conn, err)
		}
		return writeFloat(conn, d)
	case frameInsert, frameReplicate, frameConfigure, frameStatus, frameOps:
		// Replication frames are honored only on a connection that
		// negotiated v3; on older connections they fall through to the
		// unknown-frame answer below, exactly like any pre-v3 server —
		// a mixed-version fleet degrades to read-only, never to garbage.
		if ver >= ProtocolV3 {
			return s.handleRepl(conn, typ, payload)
		}
	}
	// Unknown request type: the peer speaks a different protocol. Answer
	// in-band once, then let the caller keep the loop; a client that sent
	// garbage will fail decoding anyway.
	return writeError(conn, &ProtocolError{Detail: "unknown request frame"})
}

// handleQuery executes a statement and streams the result: header frame,
// row batches, end frame. Rejections surface as a frameError in place of
// the header. When the backend exposes its streaming face the result
// flows through it — the server never buffers more than one batch — and
// only Execute-only backends pay full materialization. A failure after
// frames have been written cannot be retracted: it is relayed as a
// mid-stream frameError and the connection is dropped (the client treats
// it as final).
func (s *Server) handleQuery(conn net.Conn, payload []byte, ver int) error {
	stmt, err := sql.Parse(string(payload))
	if err != nil {
		return writeError(conn, err)
	}
	sink := &frameSink{
		conn:    conn,
		srv:     s,
		ver:     ver,
		batch:   s.batchRows(),
		byteCap: s.batchByteCap(),
	}
	if ver >= ProtocolV2 {
		sink.hints = s.encodingHints(stmt) // before the backend takes its locks
	}
	if se, ok := s.backend.(wrapper.StreamExecutor); ok {
		cols, err := se.ExecuteStream(stmt, sink)
		if err != nil {
			var we *sinkWriteError
			if errors.As(err, &we) {
				return we.err // the connection itself failed
			}
			if sink.wroteAny {
				// Frames are out; the error cannot replace the header.
				// Relay it mid-stream and drop the connection.
				writeError(conn, err)
				return errMidStreamAbort
			}
			return writeError(conn, err)
		}
		sink.setCols(cols)
		return sink.finish()
	}
	res, err := s.backend.Execute(stmt)
	if err != nil {
		return writeError(conn, err)
	}
	// Materialized fallback: the whole result was resident at once; the
	// gauge records it so the contrast with the streaming path is visible.
	total := 0
	for _, r := range res.Rows {
		total += sql.EncodedRowSize(r)
	}
	s.noteBuffered(total)
	sink.setCols(res.Columns)
	for _, r := range res.Rows {
		if err := sink.Push(r); err != nil {
			return unwrapSinkWrite(err)
		}
	}
	return sink.finish()
}

func (s *Server) batchRows() int {
	if s.BatchRows > 0 {
		return s.BatchRows
	}
	return DefaultBatchRows
}

// batchByteCap is the encoded-size cut for a row batch. Wide rows must
// never accumulate past the peer's frame cap, or every replica would
// deterministically send an unreadable frame and the query could never
// succeed. The cut is a fixed conservative threshold — NOT this server's
// own MaxFrame, which the client never sees — so a coordinator with a
// smaller configured cap still reads every frame; it only needs to accept
// BatchByteCap plus one row.
func (s *Server) batchByteCap() int {
	byteCap := BatchByteCap
	if s.MaxFrame > 0 && s.MaxFrame/4 < byteCap {
		byteCap = s.MaxFrame / 4
	}
	return byteCap
}

// encodingHints looks up per-column distinct counts for the statement's
// projection, feeding the columnar encoder's dictionary veto; hint i
// belongs to result column i. They are resolved before the statement
// runs, by column name against the FROM table: a backend's
// ColumnStatistics may take the read lock its streaming face holds for
// the whole stream (FullAccessSource does), and taking it again from
// inside the stream wedges behind a waiting Insert. Hints are best-effort:
// only single-table statements resolve (a joined projection's provenance
// is not tracked here), and any lookup failure degrades to the unhinted
// encoder, never to an error.
func (s *Server) encodingHints(stmt *sql.SelectStmt) []sql.EncodingHint {
	if s.stats == nil || len(stmt.Joins) > 0 {
		return nil
	}
	var names []string
	if len(stmt.Items) == 1 && stmt.Items[0].Star {
		names = s.tableColumns(stmt.From.Table)
	} else {
		names = make([]string, len(stmt.Items))
		for i, it := range stmt.Items {
			if cr, ok := it.Expr.(*sql.ColumnRef); ok {
				names[i] = cr.Column
			}
		}
	}
	hints := make([]sql.EncodingHint, len(names))
	for i, col := range names {
		if col == "" {
			continue
		}
		if cs, err := s.stats.ColumnStatistics(stmt.From.Table, col); err == nil {
			hints[i] = sql.EncodingHint{Distinct: cs.Distinct, HasStats: true}
		}
	}
	return hints
}

// tableColumns returns the FROM table's column names in schema order —
// what a bare SELECT * over it emits — or nil when the backend cannot run
// one. The backend is asked once per table, through the one face every
// backend and every decorator of one forwards: the header of a zero-row
// SELECT * run by its own Execute. A server's schema never changes, so
// the answer is cached for the server's lifetime.
func (s *Server) tableColumns(table string) []string {
	key := strings.ToLower(table)
	if names, ok := s.tableCols.Load(key); ok {
		return names.([]string)
	}
	res, err := s.backend.Execute(&sql.SelectStmt{
		Items: []sql.SelectItem{{Star: true}},
		From:  sql.TableRef{Table: table},
		Limit: 0,
	})
	if err != nil {
		return nil
	}
	names := make([]string, len(res.Columns))
	for i, qualified := range res.Columns {
		names[i] = qualified[strings.IndexByte(qualified, '.')+1:] // "table.column"
	}
	s.tableCols.Store(key, names)
	return names
}

func writeFloat(conn net.Conn, v float64) error {
	return writeFrame(conn, frameFloat, binary.BigEndian.AppendUint64(nil, math.Float64bits(v)))
}

func writeError(conn net.Conn, err error) error {
	return writeErrorKind(conn, errKindQuery, err.Error())
}

func writeErrorKind(conn net.Conn, kind byte, msg string) error {
	payload := append([]byte{kind}, msg...)
	return writeFrame(conn, frameError, payload)
}
