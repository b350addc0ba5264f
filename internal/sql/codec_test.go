package sql

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/relational"
)

func TestValueCodecRoundTrip(t *testing.T) {
	vals := []relational.Value{
		relational.Null(),
		relational.Int(0),
		relational.Int(-1),
		relational.Int(math.MaxInt64),
		relational.Int(math.MinInt64),
		relational.Float(0),
		relational.Float(3.5),
		relational.Float(-1e300),
		relational.Float(math.Inf(1)),
		relational.String_(""),
		relational.String_("dark river"),
		relational.String_("quote ' and \x00 byte"),
		relational.Bool(true),
		relational.Bool(false),
	}
	var buf []byte
	for _, v := range vals {
		buf = AppendValue(buf, v)
	}
	off := 0
	for i, want := range vals {
		got, n, err := DecodeValue(buf[off:])
		if err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		off += n
		if got.Type() != want.Type() || got.Key() != want.Key() {
			t.Errorf("value %d: got %v (%v), want %v (%v)", i, got, got.Type(), want, want.Type())
		}
	}
	if off != len(buf) {
		t.Errorf("decoded %d of %d bytes", off, len(buf))
	}
	// Int(3) and Float(3) must stay distinct types on the wire even though
	// their comparison keys coincide.
	b := AppendValue(nil, relational.Float(3))
	v, _, err := DecodeValue(b)
	if err != nil || v.Type() != relational.TypeFloat {
		t.Errorf("Float(3) round-tripped to %v (%v), err=%v", v, v.Type(), err)
	}
}

func TestRowAndColumnsCodecRoundTrip(t *testing.T) {
	row := relational.Row{
		relational.Int(7), relational.Null(), relational.String_("x"), relational.Float(1.25),
	}
	buf := AppendRow(nil, row)
	got, n, err := DecodeRow(buf)
	if err != nil || n != len(buf) {
		t.Fatalf("DecodeRow: n=%d err=%v", n, err)
	}
	if len(got) != len(row) {
		t.Fatalf("row length %d, want %d", len(got), len(row))
	}
	for i := range row {
		if got[i].Key() != row[i].Key() || got[i].Type() != row[i].Type() {
			t.Errorf("cell %d: got %v, want %v", i, got[i], row[i])
		}
	}

	cols := []string{"movie.title", "c", ""}
	cb := AppendColumns(nil, cols)
	gcols, cn, err := DecodeColumns(cb)
	if err != nil || cn != len(cb) {
		t.Fatalf("DecodeColumns: n=%d err=%v", cn, err)
	}
	for i := range cols {
		if gcols[i] != cols[i] {
			t.Errorf("column %d: got %q, want %q", i, gcols[i], cols[i])
		}
	}
}

// TestCodecMalformed pins the decoder's behavior on truncated or
// corrupted input: a typed error, never a panic or oversized allocation.
func TestCodecMalformed(t *testing.T) {
	cases := [][]byte{
		{},
		{tagInt},           // varint missing
		{tagFloat, 1, 2},   // float truncated
		{tagStr, 0xff, 10}, // string length exceeds payload
		{0x7f},             // unknown tag
	}
	for i, b := range cases {
		if _, _, err := DecodeValue(b); err == nil {
			t.Errorf("case %d: malformed value accepted", i)
		}
	}
	// Row claiming 2^30 cells in a 3-byte payload must be rejected up front.
	rowHdr := []byte{0x80, 0x80, 0x80, 0x80, 0x04}
	if _, _, err := DecodeRow(rowHdr); err == nil {
		t.Error("oversized row cell count accepted")
	}
	if _, _, err := DecodeColumns(rowHdr); err == nil {
		t.Error("oversized column count accepted")
	}
	if _, _, err := DecodeColumnStats([]byte{0x02, 'a'}); err == nil {
		t.Error("truncated stats accepted")
	}
}

// TestColumnStatsCodecRoundTrip covers the statistics frame: the column
// name, version, row, NULL and distinct counts, Min and Max survive a round
// trip exactly, and so does a snapshot of an all-NULL column.
func TestColumnStatsCodecRoundTrip(t *testing.T) {
	s := relational.NewSchema()
	if err := s.AddTable(&relational.TableSchema{
		Name: "t",
		Columns: []relational.Column{
			{Name: "id", Type: relational.TypeInt, NotNull: true},
			{Name: "v", Type: relational.TypeInt},
			{Name: "f", Type: relational.TypeFloat},
			{Name: "n", Type: relational.TypeString},
		},
		PrimaryKey: "id",
	}); err != nil {
		t.Fatal(err)
	}
	db := relational.MustNewDatabase("codec", s)
	for i := 0; i < 200; i++ {
		v := relational.Value(relational.Int(int64(i % 7)))
		if i%11 == 0 {
			v = relational.Null()
		}
		f := relational.Float(float64(i) / 4)
		if err := db.Insert("t", relational.Row{relational.Int(int64(i)), v, f, relational.Null()}); err != nil {
			t.Fatal(err)
		}
	}
	for _, col := range []string{"id", "v", "f", "n"} {
		want, err := db.Table("t").Stats(col)
		if err != nil {
			t.Fatal(err)
		}
		buf := AppendColumnStats(nil, want)
		got, n, err := DecodeColumnStats(buf)
		if err != nil || n != len(buf) {
			t.Fatalf("%s: DecodeColumnStats: n=%d of %d, err=%v", col, n, len(buf), err)
		}
		if *got != *want {
			t.Errorf("%s: decoded %+v, want %+v", col, *got, *want)
		}
	}
}

// FuzzColumnStatsDecode holds the client's decoding of a statistics
// response: arbitrary bytes never panic, and a payload that decodes
// re-encodes to a frame that decodes to the same snapshot, consuming all
// of it (`make fuzz-smoke`).
func FuzzColumnStatsDecode(f *testing.F) {
	I, F, S := relational.Int, relational.Float, relational.String_
	for _, cs := range []*relational.ColumnStats{
		{Column: "year", Version: 42, Rows: 400, NullCount: 37, Distinct: 50, Min: I(1960), Max: I(2009)},
		{Column: "rating", Version: 1, Rows: 3, Distinct: 2, Min: F(-0.5), Max: F(9.75)},
		{Column: "name", Rows: 9, Distinct: 9, Min: S(""), Max: S("zoë")},
		{Column: "note", Rows: 5, NullCount: 5},
	} {
		f.Add(AppendColumnStats(nil, cs))
	}
	f.Add([]byte{0x02, 'a'})
	f.Fuzz(func(t *testing.T, b []byte) {
		cs, n, err := DecodeColumnStats(b)
		if err != nil {
			return
		}
		if n < 0 || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		enc := AppendColumnStats(nil, cs)
		again, m, err := DecodeColumnStats(enc)
		if err != nil || m != len(enc) {
			t.Fatalf("re-encoding of %+v: consumed %d of %d bytes, err %v", *cs, m, len(enc), err)
		}
		if again.Column != cs.Column || again.Version != cs.Version || again.Rows != cs.Rows ||
			again.NullCount != cs.NullCount || again.Distinct != cs.Distinct {
			t.Fatalf("round trip changed the snapshot: %+v, then %+v", *cs, *again)
		}
		// Min and Max compare by encoding, which tells NaNs and types apart.
		if !bytes.Equal(AppendColumnStats(nil, again), enc) {
			t.Fatalf("round trip changed Min/Max: %+v, then %+v", *cs, *again)
		}
	})
}
