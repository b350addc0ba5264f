package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"repro/internal/relational"
	"repro/internal/sql"
	"repro/internal/wrapper"
)

// FuzzColumnarDecode throws arbitrary bytes at the columnar frame decoder
// — the surface a hostile or corrupt shard reaches first. The contract
// under fuzz: every rejection is a typed *ProtocolError wrapping
// ErrMalformedFrame (so callers never have to string-match), every
// acceptance yields rows that re-encode, and nothing panics, hangs, or
// over-allocates past the decoder's caps.
func FuzzColumnarDecode(f *testing.F) {
	// Seed with well-formed batches of each encoding so mutation starts
	// from deep inside the format, plus the malformation families the unit
	// suite pins.
	genres := []string{"noir", "drama", "comedy"}
	var dictish, rleish, mixed [][]relational.Value
	n := 64
	dcol := make([]relational.Value, n)
	rcol := make([]relational.Value, n)
	mcol := make([]relational.Value, n)
	for i := 0; i < n; i++ {
		dcol[i] = relational.String_(genres[i%len(genres)])
		rcol[i] = relational.Int(int64(i / 16))
		switch i % 4 {
		case 0:
			mcol[i] = relational.Null()
		case 1:
			mcol[i] = relational.Float(float64(i) / 2)
		case 2:
			mcol[i] = relational.Bool(i%8 == 2)
		default:
			mcol[i] = relational.String_("x")
		}
	}
	dictish = [][]relational.Value{dcol}
	rleish = [][]relational.Value{rcol}
	mixed = [][]relational.Value{dcol, rcol, mcol}
	f.Add(sql.AppendColumnarBatch(nil, n, dictish, nil))
	f.Add(sql.AppendColumnarBatch(nil, n, rleish, nil))
	f.Add(sql.AppendColumnarBatch(nil, n, mixed, nil))
	valid := sql.AppendColumnarBatch(nil, n, mixed, nil)
	f.Add(valid[:len(valid)/2])                     // truncated mid-column
	f.Add(append(valid[:len(valid):len(valid)], 0)) // trailing byte
	f.Add([]byte{})
	f.Add(binary.AppendUvarint(binary.AppendUvarint(nil, uint64(sql.MaxColumnarRows)), uint64(sql.MaxColumnarCols)))
	f.Add(append(binary.AppendUvarint(binary.AppendUvarint(nil, 4), 1), sql.ColEncDict, 1, 0, 5, 5, 5, 5))
	f.Add(append(binary.AppendUvarint(binary.AppendUvarint(nil, 4), 1), sql.ColEncRLE, 1, 200, 0))

	f.Fuzz(func(t *testing.T, payload []byte) {
		rows, err := decodeColumnarFrame(payload)
		if err != nil {
			var pe *ProtocolError
			if !errors.As(err, &pe) {
				t.Fatalf("decode error is %T (%v), want *ProtocolError", err, err)
			}
			if !errors.Is(err, ErrMalformedFrame) {
				t.Fatalf("decode error %v does not wrap ErrMalformedFrame", err)
			}
			if rows != nil {
				t.Fatal("rows returned alongside an error")
			}
			return
		}
		// Accepted payloads must describe a batch the encoder could have
		// produced: every row re-encodes through the row codec.
		if len(rows) > sql.MaxColumnarRows {
			t.Fatalf("decoder exceeded its row cap: %d", len(rows))
		}
		for _, r := range rows {
			if len(r) > sql.MaxColumnarCols {
				t.Fatalf("decoder exceeded its column cap: %d", len(r))
			}
			_ = sql.AppendRow(nil, r)
		}
	})
}

// inputConn is the server end of a net.Pipe that reports io.EOF once the
// fuzz input has been read in full — the half-close net.Pipe lacks — so
// the request loop sees the input end while its responses still flow back
// through the pipe.
type inputConn struct {
	net.Conn
	remaining int
}

func (c *inputConn) Read(p []byte) (int, error) {
	if c.remaining == 0 {
		return 0, io.EOF
	}
	if len(p) > c.remaining {
		p = p[:c.remaining]
	}
	n, err := c.Conn.Read(p)
	c.remaining -= n
	return n, err
}

// FuzzServeConn feeds arbitrary bytes into a fresh server's request loop.
// The contract under fuzz: nothing panics; every frame the server writes
// parses under DefaultMaxFrame and is a response type; and the loop
// returns promptly once the input ends — a malformed request is answered
// in-band or drops the connection, never wedges it.
func FuzzServeConn(f *testing.F) {
	frame := func(typ byte, payload []byte) []byte {
		var b bytes.Buffer
		writeFrame(&b, typ, payload)
		return b.Bytes()
	}
	row := movieRow(9000)
	for _, seed := range [][]byte{
		frame(frameQuery, []byte("SELECT title, year FROM movie WHERE year > 2000 ORDER BY movie_id")),
		frame(frameQuery, []byte("SELECT * FROM movie")),
		frame(frameExists, []byte("SELECT movie_id FROM movie WHERE title MATCH 'storm'")),
		frame(frameStats, sql.AppendColumns(nil, []string{"movie", "year"})),
		frame(frameScore, sql.AppendColumns(nil, []string{"movie", "title", "river"})),
		frame(frameEdge, sql.AppendColumns(nil, []string{"movie", "movie_id", "movie", "year"})),
		frame(framePing, nil),
		frame(frameInsert, encodeInsertReq(0, "movie", row)),
		frame(frameReplicate, encodeReplicateReq(1, 1, "movie", row)),
		frame(frameConfigure, encodeConfigureReq(1, RolePrimary, []string{"backup"})),
		frame(frameStatus, nil),
		frame(frameOps, encodeOpsReq(0, 16)),
		append(frame(frameConfigure, encodeConfigureReq(1, RolePrimary, nil)),
			append(frame(frameInsert, encodeInsertReq(1, "movie", row)), frame(frameOps, encodeOpsReq(0, 16))...)...),
		frame(0x07, []byte{3}),             // retired hello
		{0, 0, 0, 9, frameQuery, 'S', 'E'}, // truncated payload
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, input []byte) {
		srv := NewServer(wrapper.NewFullAccessSource(testDB(t)))
		// Configure frames name backups; a primary must never dial out.
		srv.Resolver = func(string) (net.Conn, error) { return nil, errors.New("no peers") }
		cl, sv := net.Pipe()
		defer cl.Close()
		served := make(chan struct{})
		go func() {
			defer close(served)
			srv.ServeConn(&inputConn{Conn: sv, remaining: len(input)})
		}()
		go cl.Write(input) // fails once the server drops the connection
		cl.SetReadDeadline(time.Now().Add(10 * time.Second))
		br := bufio.NewReader(cl)
		for {
			typ, _, err := readFrame(br, DefaultMaxFrame)
			if err == io.EOF {
				break
			}
			if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatal("request loop did not return after the input ended")
			}
			if err != nil {
				t.Fatalf("server wrote an unparseable frame: %v", err)
			}
			if typ < frameColumns || typ > frameOpsRes || typ == 0x18 { // 0x18: retired hello ack
				t.Fatalf("server wrote frame type 0x%02x, not a response", typ)
			}
		}
		<-served // the pipe closed: ServeConn has returned or is returning
	})
}
