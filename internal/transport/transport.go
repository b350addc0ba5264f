// Package transport is the network execution transport of the sharded
// layer: it carries the pushdown-fragment contract of internal/sql across
// a process boundary. A Server exposes any wrapper.SourceExecutor (plus
// its optional statistics and relevance faces) over a byte stream; a
// Client implements the same interfaces over one or more replica
// endpoints, with connection pooling, per-operation retry with backoff,
// and hedged reads that race a second replica when the first is slow. An
// in-process loopback dialer (net.Pipe straight into a Server) makes
// local execution the degenerate case of the same protocol — the
// coordinator in internal/shard addresses local and remote shards through
// one Backend interface either way.
//
// # Protocol
//
// The protocol is strict request/response over a persistent connection:
// the client writes one request frame, the server answers with one
// response frame — or, for queries, a response stream (header, row
// batches, end) — and only then may the client send the next request.
// There is no pipelining; concurrency comes from pooling connections.
//
// Every frame is length-prefixed:
//
//	uint32 big-endian payload length | 1 frame-type byte | payload
//
// Payloads use the row codec of internal/sql (AppendValue/AppendRow and
// friends). Queries travel as their canonical SQL text — the fragment
// contract's serialized form — so any engine that parses the dialect can
// serve a shard. Rows stream back in batches, letting the coordinator
// start merging before the shard finishes; each batch ships as a columnar
// frame, or as a plain row frame when the columnar form would not be
// smaller. There is one protocol and nothing to negotiate: every
// connection carries the read, columnar and replication frames from its
// first request, so a fleet runs one build. A frame whose declared length
// exceeds the configured maximum, whose type is unknown in context, or
// whose payload does not decode is a *ProtocolError (wrapping
// ErrMalformedFrame where applicable): typed, immediate, never a hang.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/relational"
	"repro/internal/sql"
)

// Request frame types (client → server).
const (
	frameQuery  byte = 0x01 // payload: SQL text; response: columns/rows/end stream
	frameExists byte = 0x02 // payload: SQL text; response: bool
	frameStats  byte = 0x03 // payload: table, column strings; response: stats
	frameScore  byte = 0x04 // payload: table, column, keyword strings; response: float
	frameEdge   byte = 0x05 // payload: fromTable, fromCol, toTable, toCol; response: float
	framePing   byte = 0x06 // payload: empty; response: pong

	// Replication requests (see replication.go). frameInsert and
	// frameReplicate carry a row plus the coordinator's epoch so a stale
	// primary is fenced instead of silently diverging.
	frameInsert    byte = 0x08 // uvarint epoch, table, row; response: insertAck
	frameReplicate byte = 0x09 // uvarint epoch, uvarint seq, table, row; response: insertAck
	frameConfigure byte = 0x0a // uvarint epoch, role byte, backup names; response: statusRes
	frameStatus    byte = 0x0b // payload: empty; response: statusRes
	frameOps       byte = 0x0c // uvarint afterSeq, uvarint max; response: opsRes
)

// Response frame types (server → client).
const (
	frameColumns  byte = 0x10 // result header: encoded column names
	frameRows     byte = 0x11 // row batch: uvarint row count + encoded rows
	frameEnd      byte = 0x12 // end of stream: uvarint total row count
	frameBool     byte = 0x13 // one byte, 0 or 1
	frameFloat    byte = 0x14 // 8-byte big-endian IEEE 754 bits
	frameStatsRes byte = 0x15 // encoded relational.ColumnStats
	frameError    byte = 0x16 // 1 error-kind byte + message string
	framePong     byte = 0x17 // payload: empty
	frameRowsCol  byte = 0x19 // columnar row batch (sql.AppendColumnarBatch payload)

	// Replication responses.
	frameInsertAck byte = 0x1a // uvarint epoch, uvarint seq, per-backup name+ok list
	frameStatusRes byte = 0x1b // uvarint epoch, role byte, uvarint lastSeq
	frameOpsRes    byte = 0x1c // uvarint count, then (uvarint seq, table, row) entries
)

// Codes 0x07 and 0x18 are retired: they carried the version hello and
// its ack while the protocol had versions. A fleet now runs one build, so
// nothing is negotiated; a peer that still sends 0x07 gets the in-band
// unknown-frame error. Never reuse either code.

// Error kinds carried by frameError. Query-level rejections are part of
// the result (the reference executor would reject too) and are never
// retried; transport-level failures are. The replication kinds (fenced,
// lagging, read-only) are catalog signals the fleet layer acts on — a
// fenced write refreshes the replica catalog and retries at the new
// primary, a lagging replica is pulled from the read rotation until
// replay catches it up.
const (
	errKindQuery      byte = 0 // backend rejected the request
	errKindNoInstance byte = 1 // maps back to wrapper.ErrNoInstanceAccess
	errKindFenced     byte = 2 // write carried a stale epoch, or target is not primary
	errKindLagging    byte = 3 // replica is behind the primary's op sequence
	errKindReadOnly   byte = 4 // backend accepts no writes
)

// DefaultMaxFrame bounds a frame payload. Row batches are cut well below
// it; the cap exists so a corrupt or hostile length prefix cannot force a
// multi-gigabyte allocation.
const DefaultMaxFrame = 16 << 20

// frameHeaderSize is the wire size of the length prefix plus type byte.
const frameHeaderSize = 5

// ErrMalformedFrame tags protocol corruption: a frame that is truncated,
// over-long, of an unknown type, or whose payload does not decode.
// Clients treat it like any transport failure — close the connection and
// retry elsewhere — and surface it (wrapped in a ProtocolError) when
// retries are exhausted.
var ErrMalformedFrame = errors.New("transport: malformed frame")

// ProtocolError describes a protocol violation. It wraps ErrMalformedFrame
// so callers can test with errors.Is without string matching.
type ProtocolError struct {
	Detail string
}

// Error implements error.
func (e *ProtocolError) Error() string { return "transport: protocol error: " + e.Detail }

// Unwrap makes errors.Is(err, ErrMalformedFrame) true.
func (e *ProtocolError) Unwrap() error { return ErrMalformedFrame }

// RemoteError is a backend-side rejection relayed over the wire: the
// remote executor refused the statement (unknown column, unsupported
// clause, statistics for a missing table...). It mirrors the error the
// reference executor would return locally, so error-disposition parity
// holds across the transport — and it is never retried, because every
// replica would reject the same way.
type RemoteError struct {
	Msg string
}

// Error implements error.
func (e *RemoteError) Error() string { return "transport: remote: " + e.Msg }

// ErrFenced marks a write rejected by the epoch fence: the request carried
// a stale epoch, or reached a replica that is no longer (or not yet) the
// primary. The fleet layer refreshes its catalog and retries at the
// current primary; a stale coordinator can never make a demoted replica
// diverge.
var ErrFenced = errors.New("transport: write fenced")

// ErrLagging marks a replicate or op-log request a replica cannot serve
// in sequence: the replica is behind (a gap in the op stream) or the
// primary has trimmed the requested range. The fleet layer keeps such a
// replica out of the read rotation and replays it from the primary's op
// log.
var ErrLagging = errors.New("transport: replica lagging")

// ErrReadOnly marks a write addressed at something that cannot accept it:
// a backend without an insert face, or a client built without a replica
// catalog (NewClient instead of NewReplicatedClient).
var ErrReadOnly = errors.New("transport: backend is read-only")

// decodeColumnarFrame decodes a frameRowsCol payload as the client does:
// any malformation — truncated dictionary, out-of-range index, runs that
// do not tile the batch, trailing bytes — comes back as a *ProtocolError
// (wrapping ErrMalformedFrame), never a panic and never a hang. The fuzz
// target FuzzColumnarDecode pins that contract.
func decodeColumnarFrame(payload []byte) ([]relational.Row, error) {
	rows, err := sql.DecodeColumnarRows(payload)
	if err != nil {
		return nil, &ProtocolError{Detail: err.Error()}
	}
	return rows, nil
}

// writeFrame writes one frame as a single Write call.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	buf := make([]byte, frameHeaderSize, frameHeaderSize+len(payload))
	return writeFrameBuf(w, typ, append(buf, payload...))
}

// writeFrameBuf writes one frame as a single Write call, its payload
// following frameHeaderSize reserved bytes in buf and the header filled in
// place: writeFrame without the copy, for a caller that builds frames in
// a buffer it reuses.
func writeFrameBuf(w io.Writer, typ byte, buf []byte) error {
	binary.BigEndian.PutUint32(buf[:4], uint32(len(buf)-frameHeaderSize))
	buf[4] = typ
	_, err := w.Write(buf)
	return err
}

// readFrame reads one frame, enforcing the payload cap.
func readFrame(r io.Reader, maxFrame int) (byte, []byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > uint32(maxFrame) {
		return 0, nil, &ProtocolError{Detail: fmt.Sprintf("frame length %d exceeds cap %d", n, maxFrame)}
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, &ProtocolError{Detail: fmt.Sprintf("truncated frame payload: %v", err)}
	}
	return hdr[4], payload, nil
}
