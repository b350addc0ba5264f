package transport

import (
	"encoding/binary"
	"errors"
	"net"

	"repro/internal/relational"
	"repro/internal/sql"
)

// errMidStreamAbort signals that frames had already been written when the
// backend failed: the stream can be neither completed nor retracted, so
// the server relays the error in-band and drops the connection.
var errMidStreamAbort = errors.New("transport: stream aborted mid-flight")

// sinkWriteError wraps a connection write failure raised inside a sink
// callback, so handleQuery can tell "the peer is gone" (drop silently)
// from "the backend failed" (answer in-band).
type sinkWriteError struct{ err error }

func (e *sinkWriteError) Error() string { return e.err.Error() }
func (e *sinkWriteError) Unwrap() error { return e.err }

// unwrapSinkWrite strips the sinkWriteError wrapper for return paths that
// hand the raw connection error back to the request loop.
func unwrapSinkWrite(err error) error {
	var we *sinkWriteError
	if errors.As(err, &we) {
		return we.err
	}
	return err
}

// frameSink adapts one query's response stream to wrapper.RowSink: rows
// accumulate into at most one batch (cut by row count and by encoded
// size) and flush the moment a cut is reached, so the server's working
// memory for a query is one batch, never the result. On a v2 connection a
// flushed batch goes out as a columnar frameRowsCol when the columnar
// encoding actually undercuts the row form, as plain frameRows otherwise —
// mixing the two in one stream is legal. The column header is written
// lazily with the first flush, which keeps a Reset before any write (a
// streaming backend replaying a retry) free; a Reset after frames have
// been written marks the sink broken, because written frames cannot be
// retracted, and the stream is then aborted in-band.
//
// The sink requires its ColumnSink face to be honored: a Push before
// StartColumns is an error, since no frame may precede the header.
type frameSink struct {
	conn    net.Conn
	srv     *Server
	ver     int
	batch   int
	byteCap int
	// hints are the result columns' encoding hints, resolved before the
	// stream started (Server.encodingHints); nil means unhinted.
	hints []sql.EncodingHint

	cols []string

	rows     []relational.Row // current batch, in arrival order
	rowBytes int              // encoded size of the current batch
	total    uint64           // rows delivered, flushed batches included
	wroteAny bool             // any frame written (header included)
	broken   bool             // Reset after a write: stream unsalvageable

	// Scratch reused by every batch of the stream: the columnar encoder's
	// buffers, the batch transposed into column vectors over one cell
	// array, and the outgoing frame (header included).
	enc   sql.ColumnarEncoder
	vecs  [][]relational.Value
	cells []relational.Value
	frame []byte
}

// Reset implements wrapper.RowSink.
func (k *frameSink) Reset() {
	if k.wroteAny {
		k.broken = true
		return
	}
	k.rows, k.rowBytes, k.total = k.rows[:0], 0, 0
}

// StartColumns implements wrapper.ColumnSink.
func (k *frameSink) StartColumns(cols []string) error {
	k.setCols(cols)
	return nil
}

// setCols records the header once; later calls (a replay after a free
// Reset delivers the same header) are no-ops.
func (k *frameSink) setCols(cols []string) {
	if k.cols == nil {
		k.cols = cols
	}
}

// Push implements wrapper.RowSink.
func (k *frameSink) Push(row relational.Row) error {
	if k.broken {
		return errMidStreamAbort
	}
	if k.cols == nil {
		return errors.New("transport: stream executor pushed a row before the column header")
	}
	k.rows = append(k.rows, row)
	k.rowBytes += sql.EncodedRowSize(row)
	k.total++
	if len(k.rows) >= k.batch || k.rowBytes >= k.byteCap {
		return k.flush()
	}
	return nil
}

func (k *frameSink) flush() error {
	if len(k.rows) == 0 {
		return nil
	}
	k.srv.noteBuffered(k.rowBytes)
	if err := k.writeHeader(); err != nil {
		return err
	}
	var typ byte
	if k.ver >= ProtocolV2 {
		typ = k.encodeColumnar()
	} else {
		typ = k.encodeRows()
	}
	k.rows, k.rowBytes = k.rows[:0], 0
	if err := writeFrameBuf(k.conn, typ, k.frame); err != nil {
		return &sinkWriteError{err: err}
	}
	return nil
}

// encodeColumnar encodes the current batch into k.frame as a columnar
// frame, falling back to the row form when the batch does not fit the
// columnar caps, is ragged, or simply encodes no smaller — the size check
// means a v2 stream never ships a frame worse than its v1 equivalent. It
// returns the frame type it encoded.
func (k *frameSink) encodeColumnar() byte {
	n, ncols := len(k.rows), len(k.cols)
	if n > sql.MaxColumnarRows || ncols == 0 || ncols > sql.MaxColumnarCols {
		return k.encodeRows()
	}
	for _, r := range k.rows {
		if len(r) != ncols {
			return k.encodeRows()
		}
	}
	if cap(k.cells) < n*ncols {
		k.cells = make([]relational.Value, n*ncols)
	}
	k.vecs = k.vecs[:0]
	for c := 0; c < ncols; c++ {
		vec := k.cells[c*n : (c+1)*n : (c+1)*n]
		for i, r := range k.rows {
			vec[i] = r[c]
		}
		k.vecs = append(k.vecs, vec)
	}
	k.frame = k.enc.Append(k.startFrame(), n, k.vecs, k.hints)
	if len(k.frame)-frameHeaderSize >= k.rowBytes+binary.MaxVarintLen64 {
		return k.encodeRows()
	}
	return frameRowsCol
}

// encodeRows encodes the current batch into k.frame as a row frame.
func (k *frameSink) encodeRows() byte {
	k.frame = binary.AppendUvarint(k.startFrame(), uint64(len(k.rows)))
	for _, r := range k.rows {
		k.frame = sql.AppendRow(k.frame, r)
	}
	return frameRows
}

// startFrame empties the frame buffer down to its reserved header bytes.
func (k *frameSink) startFrame() []byte {
	if cap(k.frame) < frameHeaderSize {
		k.frame = make([]byte, frameHeaderSize, frameHeaderSize+k.rowBytes+binary.MaxVarintLen64)
	}
	return k.frame[:frameHeaderSize]
}

func (k *frameSink) writeHeader() error {
	if k.wroteAny {
		return nil
	}
	k.wroteAny = true
	if err := writeFrame(k.conn, frameColumns, sql.AppendColumns(nil, k.cols)); err != nil {
		return &sinkWriteError{err: err}
	}
	return nil
}

// finish flushes the remainder and closes the stream with the end frame.
// A non-nil return means the connection must drop.
func (k *frameSink) finish() error {
	if k.broken {
		writeError(k.conn, errMidStreamAbort)
		return errMidStreamAbort
	}
	if err := k.flush(); err != nil {
		return unwrapSinkWrite(err)
	}
	if err := k.writeHeader(); err != nil {
		return unwrapSinkWrite(err)
	}
	return writeFrame(k.conn, frameEnd, binary.AppendUvarint(nil, k.total))
}
