package transport

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/relational"
	"repro/internal/sql"
	"repro/internal/wrapper"
)

// queuedInsertSource holds every stream at its first row — inside
// FullAccessSource.ExecuteStream, under its read lock — until an Insert
// has queued on the write lock behind it.
type queuedInsertSource struct {
	*wrapper.FullAccessSource
	once     sync.Once
	queued   bool // the Insert was seen parked on the write lock
	inserted chan error
}

func (s *queuedInsertSource) ExecuteStream(stmt *sql.SelectStmt, sink wrapper.RowSink) ([]string, error) {
	return s.FullAccessSource.ExecuteStream(stmt, &firstRowHook{RowSink: sink, hook: func() {
		s.once.Do(func() {
			go func() {
				s.inserted <- s.Insert("movie", relational.Row{
					relational.Int(9001), relational.String_("late arrival"), relational.Int(2001)})
			}()
			s.queued = waitForParkedInsert()
		})
	}})
}

// waitForParkedInsert polls the goroutine dump until some goroutine is
// parked on an RWMutex write lock inside FullAccessSource.Insert, giving
// up after five seconds.
func waitForParkedInsert() bool {
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		dump := string(buf[:runtime.Stack(buf, true)])
		for _, g := range strings.Split(dump, "\n\n") {
			if strings.Contains(g, "[sync.RWMutex.Lock") && strings.Contains(g, "(*FullAccessSource).Insert") {
				return true
			}
		}
	}
	return false
}

// firstRowHook runs hook before forwarding the first row of a stream.
type firstRowHook struct {
	wrapper.RowSink
	hook func()
	seen bool
}

func (h *firstRowHook) StartColumns(cols []string) error {
	return h.RowSink.(wrapper.ColumnSink).StartColumns(cols)
}

func (h *firstRowHook) Push(r relational.Row) error {
	if !h.seen {
		h.seen = true
		h.hook()
	}
	return h.RowSink.Push(r)
}

// TestStreamFlushWithQueuedInsert pins the fix for a shard-wedging
// deadlock: a stream holds its backend's read lock from first row to last,
// so if a batch flush re-entered the backend for statistics (the columnar
// encoder's hints) behind a queued Insert, the nested read lock would wait
// on the writer, the writer on the stream, and the shard would hang for
// good. Hints are now resolved before the stream starts: the 500-row
// SELECT * (two batch flushes past the queued Insert) must finish, and the
// Insert must land after it.
func TestStreamFlushWithQueuedInsert(t *testing.T) {
	src := &queuedInsertSource{
		FullAccessSource: wrapper.NewFullAccessSource(testDB(t)),
		inserted:         make(chan error, 1),
	}
	c, err := NewLoopbackClient(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type result struct {
		rows int
		err  error
	}
	done := make(chan result, 1)
	go func() {
		res, err := c.Execute(mustParse(t, "SELECT * FROM movie"))
		if err != nil {
			done <- result{err: err}
			return
		}
		done <- result{rows: len(res.Rows)}
	}()
	select {
	case r := <-done:
		if r.err != nil || r.rows != 500 {
			t.Fatalf("stream: %d rows, err %v; want 500 rows", r.rows, r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream wedged: a batch flush waited on the backend's read lock behind the queued Insert")
	}
	if !src.queued {
		t.Fatal("the Insert never queued on the write lock behind the stream")
	}
	select {
	case err := <-src.inserted:
		if err != nil {
			t.Fatalf("queued insert: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued insert never landed")
	}
}

// discardConn is a net.Conn whose writes vanish.
type discardConn struct{ net.Conn }

func (discardConn) Write(b []byte) (int, error) { return len(b), nil }

// TestFrameSinkReusesBatchScratch bounds the allocations of a columnar
// stream: past the first batch, which sizes the sink's scratch (column
// vectors, cell array, encoder buffers, dictionary map, frame buffer),
// a batch may allocate only the dictionary's new string keys.
func TestFrameSinkReusesBatchScratch(t *testing.T) {
	const batch = DefaultBatchRows
	genres := []string{"noir", "drama", "comedy", "thriller"}
	rows := make([]relational.Row, 12*batch)
	for i := range rows {
		rows[i] = relational.Row{
			relational.Int(int64(i)),                       // unique: the hint vetoes the dictionary
			relational.String_(genres[i%len(genres)]),      // 4 dictionary keys per batch
			relational.Int(int64(1960 + i/64)),             // sorted runs: 4 dictionary keys per batch
			relational.String_(fmt.Sprintf("title %d", i)), // unique, unhinted
		}
	}
	hints := []sql.EncodingHint{{Distinct: len(rows), HasStats: true}, {}, {}, {Distinct: len(rows), HasStats: true}}
	srv := &Server{}
	stream := func(n int) {
		k := &frameSink{conn: discardConn{}, srv: srv, batch: batch,
			byteCap: BatchByteCap, hints: hints}
		if err := k.StartColumns([]string{"id", "genre", "year", "title"}); err != nil {
			t.Fatal(err)
		}
		for _, r := range rows[:n*batch] {
			if err := k.Push(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := k.finish(); err != nil {
			t.Fatal(err)
		}
	}
	short := testing.AllocsPerRun(20, func() { stream(2) })
	long := testing.AllocsPerRun(20, func() { stream(12) })
	perBatch := (long - short) / 10
	// The genre and year columns each insert their 4 keys into the cleared
	// dictionary once per batch; nothing else may allocate per batch.
	if perBatch > 8 {
		t.Errorf("%.1f allocations per extra batch (2 batches %.0f, 12 batches %.0f); want <= 8",
			perBatch, short, long)
	}
}
