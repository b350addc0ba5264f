package transport

import (
	"testing"

	"repro/internal/sql"
	"repro/internal/wrapper"
)

// materializedOnly hides the backend's streaming face, forcing the server
// onto the Execute fallback (the embedded interface carries only the
// SourceExecutor methods).
type materializedOnly struct {
	wrapper.SourceExecutor
}

// TestMixedFrameStream: a stream decodes to the reference result whatever
// batch forms it carries. "columnar" is a default-batch stream that ships
// columnar frames. "mixed" projects ten columns and cuts the batch to leave
// a one-row remainder, whose columnar form (a tag per column) outgrows its
// row form (a cell count per row): the full batch ships columnar, the
// remainder falls back to a plain row frame.
func TestMixedFrameStream(t *testing.T) {
	db := testDB(t)
	src := wrapper.NewFullAccessSource(db)

	run := func(t *testing.T, query string, batchCut int) ClientStats {
		t.Helper()
		stmt := mustParse(t, query)
		want, err := src.Execute(stmt)
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(src)
		if batchCut > 0 {
			srv.BatchRows = len(want.Rows) - batchCut
		}
		c, err := NewClient([]Dialer{LoopbackDialer(srv)}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		got, err := c.Execute(stmt)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, got, want)
		return c.Stats()
	}

	t.Run("columnar", func(t *testing.T) {
		st := run(t, "SELECT title, year FROM movie ORDER BY year", 0)
		if st.ColumnarFrames == 0 {
			t.Errorf("stream shipped no columnar frames: %+v", st)
		}
	})
	t.Run("mixed", func(t *testing.T) {
		st := run(t, `SELECT movie_id, title, year, movie_id, title, year,
			movie_id, title, year, year FROM movie ORDER BY movie_id`, 1)
		if st.ColumnarFrames != 1 || st.RowFrames != 1 {
			t.Errorf("stream decoded %d columnar and %d row frames, want 1 and 1", st.ColumnarFrames, st.RowFrames)
		}
	})
}

// TestServerBufferHighWaterBounded is the memory-bound evidence for the
// tentpole: a no-LIMIT full-table query through a streaming backend holds
// at most one batch server-side, while the same query against an
// Execute-only backend records the whole materialized result.
func TestServerBufferHighWaterBounded(t *testing.T) {
	db := testDB(t)
	src := wrapper.NewFullAccessSource(db)
	stmt := mustParse(t, "SELECT * FROM movie")

	res, err := src.Execute(stmt)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, r := range res.Rows {
		total += sql.EncodedRowSize(r)
	}

	streaming := NewServer(src)
	c, err := NewClient([]Dialer{LoopbackDialer(streaming)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(stmt); err != nil {
		t.Fatal(err)
	}
	c.Close()
	hw := streaming.BufferHighWater()
	// One batch plus the row that crossed the cut, never the result.
	bound := int64(streaming.batchByteCap() + 4096)
	if hw == 0 || hw > bound {
		t.Errorf("streaming high-water %d, want (0, %d]", hw, bound)
	}
	if hw >= int64(total) {
		t.Errorf("streaming high-water %d not below materialized size %d", hw, total)
	}

	mat := NewServer(&materializedOnly{SourceExecutor: src})
	c2, err := NewClient([]Dialer{LoopbackDialer(mat)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Execute(stmt); err != nil {
		t.Fatal(err)
	}
	c2.Close()
	if hw := mat.BufferHighWater(); hw < int64(total) {
		t.Errorf("materialized high-water %d, want >= %d", hw, total)
	}

	mat.ResetBufferHighWater()
	if mat.BufferHighWater() != 0 {
		t.Error("reset did not clear the gauge")
	}
}
