package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/relational"
	"repro/internal/sql"
	"repro/internal/wrapper"
)

// Options tunes a Client. The zero value selects the documented defaults.
type Options struct {
	// MaxAttempts is the total number of attempts per operation, the first
	// one included. Default 3. Only transport-level failures are retried;
	// a backend rejection (RemoteError) returns immediately because every
	// replica would reject the same way.
	MaxAttempts int
	// RetryBackoff is slept before the first retry and doubles per retry.
	// Default 5ms.
	RetryBackoff time.Duration
	// RequestTimeout bounds one attempt: connection deadline for the
	// request write and every response frame read. Default 30s.
	RequestTimeout time.Duration
	// PoolSize is how many idle connections are kept per replica. Default 2.
	PoolSize int
	// MaxFrame caps accepted response frames (a memory bound against
	// corrupt or hostile length prefixes). Default DefaultMaxFrame. Do
	// not set it below the server's BatchByteCap plus one encoded row, or
	// legitimate row batches become unreadable.
	MaxFrame int

	// Hedge enables hedged reads: when an attempt's first response frame
	// has not arrived within the hedge delay, a second attempt races it on
	// the next replica (or a fresh connection to the same replica when
	// there is only one). The first response wins; the loser's connection
	// is closed so the abandoned attempt unwinds promptly and leaks no
	// goroutine.
	Hedge bool
	// HedgeMinSamples is how many latency samples must accumulate before
	// hedging arms (default 16) — hedging off a cold distribution would
	// just double the load.
	HedgeMinSamples int
	// HedgeFixedDelay, when positive, bypasses the adaptive delay and
	// hedges after exactly this long (tests, operators with known SLOs).
	HedgeFixedDelay time.Duration

	// ProbeInterval, when positive on a replicated client
	// (NewReplicatedClient), starts a background prober that round-trips a
	// status frame per replica each tick: consecutive failures past
	// ProbeFailThreshold demote the replica (promoting a backup when it
	// was the primary), and recovered replicas are replayed back into the
	// read rotation. Zero leaves health transitions to the write path and
	// explicit ProbeNow calls.
	ProbeInterval time.Duration
	// ProbeFailThreshold is how many consecutive probe (or write) failures
	// demote a replica. Default 3.
	ProbeFailThreshold int
}

// Fixed parameters of dialing and of the adaptive hedge delay.
const (
	// dialTimeout bounds TCP connection establishment (Dial).
	dialTimeout = 5 * time.Second
	// hedgeQuantile picks the hedge delay from the recent
	// time-to-first-response distribution: hedge the slowest ~10%.
	hedgeQuantile = 0.9
	// hedgeMinDelay and hedgeMaxDelay clamp the adaptive hedge delay.
	hedgeMinDelay = time.Millisecond
	hedgeMaxDelay = 100 * time.Millisecond
)

func (o Options) withDefaults() Options {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 5 * time.Millisecond
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.PoolSize <= 0 {
		o.PoolSize = 2
	}
	if o.MaxFrame <= 0 {
		o.MaxFrame = DefaultMaxFrame
	}
	if o.HedgeMinSamples <= 0 {
		o.HedgeMinSamples = 16
	}
	if o.ProbeFailThreshold <= 0 {
		o.ProbeFailThreshold = 3
	}
	return o
}

// Dialer opens one connection to a replica.
type Dialer func() (net.Conn, error)

// ClientStats snapshots a client's counters. The fleet block is zero on
// clients built without a replica catalog (NewClient / Dial with no
// names): only NewReplicatedClient runs the write path and the prober.
type ClientStats struct {
	Operations uint64 // top-level calls (Execute, ExecuteExists, ...)
	Attempts   uint64 // exchanges started, hedges included
	Retries    uint64 // attempts after a transport failure
	Hedges     uint64 // secondary attempts launched by the hedge timer
	HedgeWins  uint64 // operations won by the hedged attempt
	Dials      uint64 // connections established (pool misses)

	BytesReceived  uint64 // response bytes read, frame headers included
	RowFrames      uint64 // plain row-batch frames decoded
	ColumnarFrames uint64 // columnar row-batch frames decoded

	Inserts         uint64 // replicated writes issued (Insert calls)
	ReplicationAcks uint64 // positive per-backup acks inside insert acks
	FencedWrites    uint64 // writes rejected by the epoch fence and re-routed
	Probes          uint64 // status round trips issued by probes
	ProbeFailures   uint64 // status round trips that failed
	Demotions       uint64 // replicas pulled from rotation at the failure threshold
	Promotions      uint64 // backups promoted to primary
	Replays         uint64 // rejoins that replayed ops from the primary's log
}

// ErrClientClosed is returned by operations on a closed client.
var ErrClientClosed = errors.New("transport: client closed")

// errLostRace marks a hedged attempt that completed after the other
// attempt had already won; it is internal bookkeeping, never surfaced.
var errLostRace = errors.New("transport: lost hedge race")

// Client is the remote SourceExecutor: it implements the full per-shard
// backend contract of internal/shard (materializing and streaming
// execution, existence probes, column statistics, keyword relevance and
// join-edge statistics) over one or more replica endpoints of the same
// shard. It is safe for concurrent use; concurrency maps to pooled
// connections.
type Client struct {
	opt    Options
	pools  []*connPool
	names  []string // replica names (catalog identity); nil without a catalog
	all    []int    // every replica index: the rotation fallback
	lat    latencyTracker
	next   atomic.Uint32
	closed atomic.Bool
	fleet  *fleetState // nil on clients built without a replica catalog

	ops, attempts, retries          atomic.Uint64
	hedges, hedgeWins, dials        atomic.Uint64
	bytesRecv, rowFrames, colFrames atomic.Uint64
	inserts, replAcks, fencedW      atomic.Uint64
	probesN, probeFails             atomic.Uint64
	demotions, promotions, replays  atomic.Uint64
}

// readFrameCounted reads one response frame and feeds the received-bytes
// counter (header included) — the measurement behind the columnar wire
// savings in the benchmark suite.
func (c *Client) readFrameCounted(r *bufio.Reader) (byte, []byte, error) {
	typ, payload, err := readFrame(r, c.opt.MaxFrame)
	if err == nil {
		c.bytesRecv.Add(uint64(frameHeaderSize + len(payload)))
	}
	return typ, payload, err
}

// NewClient builds a client over one dialer per replica.
func NewClient(dialers []Dialer, opt Options) (*Client, error) {
	if len(dialers) == 0 {
		return nil, fmt.Errorf("transport: no replica dialers")
	}
	c := &Client{opt: opt.withDefaults()}
	for i, d := range dialers {
		c.pools = append(c.pools, &connPool{
			dial:   d,
			idle:   make(chan *pooledConn, c.opt.PoolSize),
			closed: &c.closed,
			dials:  &c.dials,
		})
		c.all = append(c.all, i)
	}
	return c, nil
}

// Dial builds a replicated client over TCP replica addresses. Each
// address is also the replica's catalog name, which is what lets a
// primary resolve and dial its backups with the server's default
// resolver.
func Dial(addrs []string, opt Options) (*Client, error) {
	opt = opt.withDefaults()
	specs := make([]ReplicaSpec, len(addrs))
	for i, addr := range addrs {
		addr := addr
		specs[i] = ReplicaSpec{
			Name: addr,
			Dial: func() (net.Conn, error) {
				return net.DialTimeout("tcp", addr, dialTimeout)
			},
		}
	}
	return NewReplicatedClient(specs, opt)
}

// Close marks the client closed and closes every idle pooled connection.
// In-flight operations finish (or fail) on their own connections, which
// are closed instead of pooled afterwards.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	if c.fleet != nil {
		c.fleet.stopProber()
	}
	for _, p := range c.pools {
		p.drainClose()
	}
	return nil
}

// Stats snapshots the client counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Operations:     c.ops.Load(),
		Attempts:       c.attempts.Load(),
		Retries:        c.retries.Load(),
		Hedges:         c.hedges.Load(),
		HedgeWins:      c.hedgeWins.Load(),
		Dials:          c.dials.Load(),
		BytesReceived:  c.bytesRecv.Load(),
		RowFrames:      c.rowFrames.Load(),
		ColumnarFrames: c.colFrames.Load(),

		Inserts:         c.inserts.Load(),
		ReplicationAcks: c.replAcks.Load(),
		FencedWrites:    c.fencedW.Load(),
		Probes:          c.probesN.Load(),
		ProbeFailures:   c.probeFails.Load(),
		Demotions:       c.demotions.Load(),
		Promotions:      c.promotions.Load(),
		Replays:         c.replays.Load(),
	}
}

// Replicas returns the replica count (diagnostics).
func (c *Client) Replicas() int { return len(c.pools) }

// ExecutesConcurrently implements wrapper.ConcurrentExecutor: operations
// map onto per-connection exchanges, any number of which may be in flight.
func (c *Client) ExecutesConcurrently() bool { return true }

// Ping round-trips an empty frame (health checks, tests).
func (c *Client) Ping() error {
	_, err := c.call(framePing, nil, framePong)
	return err
}

// Execute implements wrapper.SourceExecutor by materializing the row
// stream. Retries and hedging are handled below; the returned result is
// always a complete, single-attempt stream.
func (c *Client) Execute(stmt *sql.SelectStmt) (*sql.Result, error) {
	return c.ExecuteCtx(context.Background(), stmt)
}

// ExecuteCtx implements wrapper.ContextExecutor: Execute bounded by a
// caller context. Cancellation (or an expired deadline) closes the
// in-flight attempt's connection, so the call unwinds promptly instead of
// riding out RequestTimeout, and the context error is returned.
func (c *Client) ExecuteCtx(ctx context.Context, stmt *sql.SelectStmt) (*sql.Result, error) {
	var sink wrapper.RowBuffer
	cols, err := c.ExecuteStreamCtx(ctx, stmt, &sink)
	if err != nil {
		return nil, err
	}
	return &sql.Result{Columns: cols, Rows: sink.Rows}, nil
}

// ExecuteStream implements wrapper.StreamExecutor: rows are pushed to the
// sink as row-batch frames arrive, so a coordinator can merge while the
// shard is still sending. A transport failure mid-stream resets the sink
// and replays the statement on the next attempt — the sink sees each
// aborted prefix retracted, never a duplicated row.
func (c *Client) ExecuteStream(stmt *sql.SelectStmt, sink wrapper.RowSink) ([]string, error) {
	return c.ExecuteStreamCtx(context.Background(), stmt, sink)
}

// ExecuteStreamCtx implements wrapper.ContextStreamExecutor: ExecuteStream
// bounded by a caller context (see ExecuteCtx for the cancellation
// mechanics).
func (c *Client) ExecuteStreamCtx(ctx context.Context, stmt *sql.SelectStmt, sink wrapper.RowSink) ([]string, error) {
	var cols []string
	err := c.do(ctx, frameQuery, []byte(stmt.SQL()), func(e *exchange) error {
		sink.Reset()
		if e.typ != frameColumns {
			return &ProtocolError{Detail: fmt.Sprintf("unexpected frame 0x%02x in place of result header", e.typ)}
		}
		cs, _, err := sql.DecodeColumns(e.payload)
		if err != nil {
			// Undecodable payload in a well-framed response is protocol
			// corruption like any other: typed, retried elsewhere.
			return &ProtocolError{Detail: err.Error()}
		}
		cols = cs
		total := uint64(0)
		for {
			e.pc.conn.SetReadDeadline(time.Now().Add(c.opt.RequestTimeout))
			typ, payload, err := c.readFrameCounted(e.pc.br)
			if err != nil {
				return err
			}
			switch typ {
			case frameRows:
				c.rowFrames.Add(1)
				n, sz := binary.Uvarint(payload)
				if sz <= 0 {
					return &ProtocolError{Detail: "bad row batch header"}
				}
				off := sz
				for i := uint64(0); i < n; i++ {
					row, rsz, err := sql.DecodeRow(payload[off:])
					if err != nil {
						return &ProtocolError{Detail: err.Error()}
					}
					off += rsz
					if perr := sink.Push(row); perr != nil {
						return &sinkAbort{err: perr}
					}
					total++
				}
			case frameRowsCol:
				rows, err := decodeColumnarFrame(payload)
				if err != nil {
					return err
				}
				c.colFrames.Add(1)
				for _, row := range rows {
					if perr := sink.Push(row); perr != nil {
						return &sinkAbort{err: perr}
					}
				}
				total += uint64(len(rows))
			case frameError:
				// A mid-stream error is the server relaying a backend
				// failure it discovered after frames went out. The failure
				// is deterministic — every replica would fail the same way
				// after the same prefix — so it rides the sinkAbort path:
				// final, never retried, surfaced as-is.
				return &sinkAbort{err: decodeRemoteError(payload)}
			case frameEnd:
				n, sz := binary.Uvarint(payload)
				if sz <= 0 || n != total {
					return &ProtocolError{Detail: fmt.Sprintf("stream count mismatch: end says %d, received %d", n, total)}
				}
				return nil
			default:
				return &ProtocolError{Detail: fmt.Sprintf("unexpected frame 0x%02x inside row stream", typ)}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return cols, nil
}

// ExecuteExists implements wrapper.ExistsExecutor remotely: the backend's
// own existence mode answers, so the probe's cost does not scale with the
// result size on either side of the wire.
func (c *Client) ExecuteExists(stmt *sql.SelectStmt) (bool, error) {
	return c.ExecuteExistsCtx(context.Background(), stmt)
}

// ExecuteExistsCtx implements wrapper.ContextExistsExecutor: ExecuteExists
// bounded by a caller context (see ExecuteCtx for the cancellation
// mechanics).
func (c *Client) ExecuteExistsCtx(ctx context.Context, stmt *sql.SelectStmt) (bool, error) {
	payload, err := c.callCtx(ctx, frameExists, []byte(stmt.SQL()), frameBool)
	if err != nil {
		return false, err
	}
	if len(payload) != 1 {
		return false, &ProtocolError{Detail: "bad bool payload"}
	}
	return payload[0] == 1, nil
}

// ColumnStatistics implements wrapper.StatisticsProvider over the wire:
// shards ship statistics summaries, never rows. Decoding happens inside
// the retry loop, so a corrupt snapshot payload is a protocol error that
// gets retried on another connection like any other transport fault.
func (c *Client) ColumnStatistics(table, column string) (*relational.ColumnStats, error) {
	var out *relational.ColumnStats
	err := c.do(context.Background(), frameStats, sql.AppendColumns(nil, []string{table, column}), func(e *exchange) error {
		if e.typ != frameStatsRes {
			return &ProtocolError{Detail: fmt.Sprintf("unexpected frame 0x%02x, want 0x%02x", e.typ, frameStatsRes)}
		}
		cs, _, err := sql.DecodeColumnStats(e.payload)
		if err != nil {
			return &ProtocolError{Detail: err.Error()}
		}
		out = cs
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AttributeScore relays keyword relevance from the remote backend's
// full-text evidence; a shard that cannot answer contributes zero, the
// neutral element of the coordinator's max-merge.
func (c *Client) AttributeScore(table, column, keyword string) float64 {
	payload, err := c.call(frameScore, sql.AppendColumns(nil, []string{table, column, keyword}), frameFloat)
	if err != nil || len(payload) != 8 {
		return 0
	}
	return math.Float64frombits(binary.BigEndian.Uint64(payload))
}

// EdgeDistance relays the remote backend's mutual-information distance.
func (c *Client) EdgeDistance(e relational.JoinEdge) (float64, error) {
	payload, err := c.call(frameEdge,
		sql.AppendColumns(nil, []string{e.FromTable, e.FromColumn, e.ToTable, e.ToColumn}), frameFloat)
	if err != nil {
		return 1, err
	}
	if len(payload) != 8 {
		return 1, &ProtocolError{Detail: "bad float payload"}
	}
	return math.Float64frombits(binary.BigEndian.Uint64(payload)), nil
}

// ---- operation core: retry loop, hedged start, single-frame calls ----

// call runs a single-frame request/response operation.
func (c *Client) call(reqType byte, req []byte, wantType byte) ([]byte, error) {
	return c.callCtx(context.Background(), reqType, req, wantType)
}

// callCtx is call bounded by a caller context.
func (c *Client) callCtx(ctx context.Context, reqType byte, req []byte, wantType byte) ([]byte, error) {
	var out []byte
	err := c.do(ctx, reqType, req, func(e *exchange) error {
		if e.typ != wantType {
			return &ProtocolError{Detail: fmt.Sprintf("unexpected frame 0x%02x, want 0x%02x", e.typ, wantType)}
		}
		out = e.payload
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// sinkAbort marks a consumer-side abort (the sink rejected a row): the
// operation must not be retried and the consumer's error surfaces as-is.
type sinkAbort struct{ err error }

func (s *sinkAbort) Error() string { return s.err.Error() }
func (s *sinkAbort) Unwrap() error { return s.err }

// readTargets returns the replica indexes reads may use this moment: the
// fleet's published rotation (healthy, caught-up replicas) when one
// exists and is non-empty, every replica otherwise — a fully degraded
// fleet still tries everything rather than refusing reads outright.
func (c *Client) readTargets() []int {
	if c.fleet != nil {
		if rot := c.fleet.rotation.Load(); rot != nil && len(*rot) > 0 {
			return *rot
		}
	}
	return c.all
}

// do runs one operation: hedged start, response handling, retry with
// backoff across replicas on transport failures. handle reads the rest of
// the response from e.pc; do owns the connection's fate (pool on success,
// close on failure). Replica choice walks the current read rotation —
// demoted and lagging replicas are skipped until the fleet layer readmits
// them — and transport failures feed the rotation's failure counts, so
// reads accelerate demotion instead of waiting out the probe interval.
//
// ctx bounds the whole operation, backoff sleeps included: cancellation
// closes the in-flight attempt's connection (the same mechanism a hedge
// winner uses on the loser), which unblocks any pending read immediately,
// and the context's error is returned instead of the induced read error.
func (c *Client) do(ctx context.Context, reqType byte, req []byte, handle func(e *exchange) error) error {
	if c.closed.Load() {
		return ErrClientClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	c.ops.Add(1)
	start := int(c.next.Add(1) - 1)
	backoff := c.opt.RetryBackoff
	var lastErr error
	for attempt := 0; attempt < c.opt.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			}
			backoff *= 2
		}
		if c.closed.Load() {
			return ErrClientClosed
		}
		rot := c.readTargets()
		replica := rot[(start+attempt)%len(rot)]
		e, hedged, err := c.startHedged(ctx, rot, (start+attempt)%len(rot), reqType, req)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			lastErr = err
			c.noteReadFailure(replica)
			continue
		}
		// Only un-hedged completions feed the latency tracker: a hedged
		// win's time-to-first-frame measures the fast replica, and folding
		// it in would collapse the quantile toward the hedge floor — every
		// hedge making the next one more likely, until healthy traffic
		// runs at double load.
		if !hedged {
			c.lat.record(e.firstFrame)
		}
		if e.typ == frameError {
			// In-band rejection: connection is clean, error is final.
			e.pc.release()
			return decodeRemoteError(e.payload)
		}
		// While handle reads the rest of the response, a context fire must
		// unblock it: closing the connection fails the pending read.
		stop := context.AfterFunc(ctx, e.pc.close)
		herr := handle(e)
		if herr != nil {
			stop()
			e.pc.close()
			var sa *sinkAbort
			if errors.As(herr, &sa) {
				return sa.err
			}
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			lastErr = herr
			c.noteReadFailure(replica)
			continue
		}
		if !stop() {
			// The context fired after handle finished: the response is
			// complete (return it), but the connection may have been closed
			// mid-pooling and cannot be reused.
			e.pc.close()
			return nil
		}
		e.pc.release()
		return nil
	}
	return lastErr
}

func decodeRemoteError(payload []byte) error {
	if len(payload) == 0 {
		return &ProtocolError{Detail: "empty error frame"}
	}
	kind, msg := payload[0], string(payload[1:])
	switch kind {
	case errKindNoInstance:
		return wrapper.ErrNoInstanceAccess
	case errKindFenced:
		return fmt.Errorf("%w: %s", ErrFenced, msg)
	case errKindLagging:
		return fmt.Errorf("%w: %s", ErrLagging, msg)
	case errKindReadOnly:
		return fmt.Errorf("%w: %s", ErrReadOnly, msg)
	}
	return &RemoteError{Msg: msg}
}

// exchange is one in-flight attempt that has received its first response
// frame. The rest of the response (row streams) is read from pc by the
// operation's handler.
type exchange struct {
	pc         *pooledConn
	typ        byte
	payload    []byte
	firstFrame time.Duration // request write → first response frame
}

// startExchange acquires a connection to the replica, sends the request
// and reads the first response frame. The attempt's connection is
// published to slot (when non-nil) as soon as it is acquired, so a
// concurrent winner can cancel this attempt by closing it. A context fire
// during the request write or the first-frame read closes the connection
// the same way.
func (c *Client) startExchange(ctx context.Context, replica int, reqType byte, req []byte, slot *atomic.Pointer[pooledConn]) (*exchange, error) {
	pc, err := c.pools[replica].get()
	if err != nil {
		return nil, err
	}
	if slot != nil {
		slot.Store(pc)
	}
	stop := context.AfterFunc(ctx, pc.close)
	pc.conn.SetDeadline(time.Now().Add(c.opt.RequestTimeout))
	startT := time.Now()
	if err := writeFrame(pc.conn, reqType, req); err != nil {
		stop()
		pc.close()
		return nil, err
	}
	typ, payload, err := c.readFrameCounted(pc.br)
	if err != nil {
		stop()
		pc.close()
		return nil, err
	}
	if !stop() {
		// The context fired between the frame landing and this check: the
		// connection is (being) closed and the exchange cannot continue.
		pc.close()
		return nil, ctx.Err()
	}
	return &exchange{pc: pc, typ: typ, payload: payload, firstFrame: time.Since(startT)}, nil
}

// startHedged races the attempt against a delayed second attempt on the
// next replica in the read rotation. The first attempt to deliver a
// response frame wins; the loser's connection is closed immediately
// (canceling its server-side read promptly) and its goroutine unwinds
// through the buffered results channel — nothing blocks, nothing leaks.
// hedged reports whether the secondary attempt was launched (regardless
// of which attempt won).
func (c *Client) startHedged(ctx context.Context, rot []int, pos int, reqType byte, req []byte) (e *exchange, hedged bool, err error) {
	c.attempts.Add(1)
	replica := rot[pos%len(rot)]
	delay, armed := c.hedgeDelay()
	if !armed {
		e, err = c.startExchange(ctx, replica, reqType, req, nil)
		return e, false, err
	}
	type hres struct {
		slot int
		e    *exchange
		err  error
	}
	var claimed atomic.Bool
	var conns [2]atomic.Pointer[pooledConn]
	resc := make(chan hres, 2)
	run := func(slot, rep int) {
		e, err := c.startExchange(ctx, rep, reqType, req, &conns[slot])
		if err != nil {
			resc <- hres{slot: slot, err: err}
			return
		}
		if claimed.CompareAndSwap(false, true) {
			resc <- hres{slot: slot, e: e}
			return
		}
		// The other attempt already won; this connection is mid-response
		// and cannot be pooled.
		e.pc.close()
		resc <- hres{slot: slot, err: errLostRace}
	}
	go run(0, replica)
	timer := time.NewTimer(delay)
	defer timer.Stop()
	launched, finished := 1, 0
	var firstErr error
	for {
		select {
		case r := <-resc:
			finished++
			if r.e != nil {
				if r.slot == 1 {
					c.hedgeWins.Add(1)
				}
				// Cancel the in-flight loser, if any: closing its
				// connection unblocks its read immediately.
				if launched == 2 {
					other := conns[1-r.slot].Load()
					if other != nil {
						other.close()
					}
				}
				return r.e, launched == 2, nil
			}
			if firstErr == nil && !errors.Is(r.err, errLostRace) {
				firstErr = r.err
			}
			if finished == launched {
				if firstErr == nil {
					firstErr = errLostRace // unreachable: a loser implies a winner returned
				}
				return nil, launched == 2, firstErr
			}
		case <-timer.C:
			if launched == 1 {
				c.hedges.Add(1)
				c.attempts.Add(1)
				launched = 2
				go run(1, rot[(pos+1)%len(rot)])
			}
		}
	}
}

// hedgeDelay returns the delay before launching a hedge and whether
// hedging should arm at all. armed is false when hedging is disabled or
// the latency distribution is still cold (fewer than HedgeMinSamples
// completions recorded) — callers must take the single-attempt path then,
// never hand the sentinel to a timer: a non-positive duration would fire
// it immediately and hedge every request at double load. When armed, the
// returned delay is always positive (clamped to [hedgeMinDelay,
// hedgeMaxDelay], or the positive HedgeFixedDelay).
func (c *Client) hedgeDelay() (time.Duration, bool) {
	if !c.opt.Hedge {
		return 0, false
	}
	if c.opt.HedgeFixedDelay > 0 {
		return c.opt.HedgeFixedDelay, true
	}
	d, ok := c.lat.quantile(hedgeQuantile, c.opt.HedgeMinSamples)
	if !ok {
		return 0, false
	}
	return min(max(d, hedgeMinDelay), hedgeMaxDelay), true
}

// ---- connection pool ----

type pooledConn struct {
	conn net.Conn
	br   *bufio.Reader
	pool *connPool
}

// release returns the connection to its pool (protocol state clean: the
// full response was consumed).
func (pc *pooledConn) release() { pc.pool.put(pc) }

// close discards the connection (mid-response, failed, or lost a hedge
// race). Safe to call concurrently with an in-flight read — that is the
// cancellation mechanism.
func (pc *pooledConn) close() { pc.conn.Close() }

type connPool struct {
	dial   Dialer
	idle   chan *pooledConn
	closed *atomic.Bool
	dials  *atomic.Uint64
}

func (p *connPool) get() (*pooledConn, error) {
	if p.closed.Load() {
		return nil, ErrClientClosed
	}
	select {
	case pc := <-p.idle:
		return pc, nil
	default:
	}
	conn, err := p.dial()
	if err != nil {
		return nil, err
	}
	p.dials.Add(1)
	return &pooledConn{conn: conn, br: bufio.NewReader(conn), pool: p}, nil
}

func (p *connPool) put(pc *pooledConn) {
	if p.closed.Load() {
		pc.conn.Close()
		return
	}
	pc.conn.SetDeadline(time.Time{})
	select {
	case p.idle <- pc:
		// Close() may have swapped the flag and drained between the check
		// above and this insert; re-checking after the insert closes the
		// race — one side is guaranteed to see the connection.
		if p.closed.Load() {
			p.drainClose()
		}
	default:
		pc.conn.Close()
	}
}

func (p *connPool) drainClose() {
	for {
		select {
		case pc := <-p.idle:
			pc.conn.Close()
		default:
			return
		}
	}
}

// ---- latency tracking for the hedge delay ----

const latencyWindow = 128

// latencyTracker keeps a ring of recent time-to-first-response samples
// and answers quantile queries over them.
type latencyTracker struct {
	mu  sync.Mutex
	buf [latencyWindow]time.Duration
	n   int // samples stored (caps at latencyWindow)
	idx int // next write position
}

func (t *latencyTracker) record(d time.Duration) {
	t.mu.Lock()
	t.buf[t.idx] = d
	t.idx = (t.idx + 1) % latencyWindow
	if t.n < latencyWindow {
		t.n++
	}
	t.mu.Unlock()
}

func (t *latencyTracker) quantile(q float64, minSamples int) (time.Duration, bool) {
	t.mu.Lock()
	if t.n < minSamples {
		t.mu.Unlock()
		return 0, false
	}
	samples := make([]time.Duration, t.n)
	copy(samples, t.buf[:t.n])
	t.mu.Unlock()
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	i := int(q * float64(len(samples)))
	if i >= len(samples) {
		i = len(samples) - 1
	}
	return samples[i], true
}
