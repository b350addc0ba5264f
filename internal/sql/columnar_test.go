package sql

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"repro/internal/relational"
)

// transpose flips rows into the per-column vectors the encoder consumes.
func transpose(rows []relational.Row, ncols int) [][]relational.Value {
	cols := make([][]relational.Value, ncols)
	for c := range cols {
		cols[c] = make([]relational.Value, len(rows))
		for i, r := range rows {
			cols[c][i] = r[c]
		}
	}
	return cols
}

func encodeBatch(t *testing.T, rows []relational.Row, ncols int, hints []EncodingHint) []byte {
	t.Helper()
	return AppendColumnarBatch(nil, len(rows), transpose(rows, ncols), hints)
}

// requireRoundTrip encodes, decodes and demands byte-exact row equality
// (the row codec is the arbiter of exactness, as in the conformance suite).
func requireRoundTrip(t *testing.T, rows []relational.Row, ncols int, hints []EncodingHint) []byte {
	t.Helper()
	payload := encodeBatch(t, rows, ncols, hints)
	got, err := DecodeColumnarRows(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(rows) {
		t.Fatalf("decoded %d rows, want %d", len(got), len(rows))
	}
	for i := range rows {
		if !bytes.Equal(AppendRow(nil, got[i]), AppendRow(nil, rows[i])) {
			t.Fatalf("row %d mismatch: got %v want %v", i, got[i], rows[i])
		}
	}
	return payload
}

// columnEncoding walks the payload and returns the encoding byte chosen
// for column c.
func columnEncoding(t *testing.T, payload []byte, c int) byte {
	t.Helper()
	rows, err := DecodeColumnarRows(payload)
	if err != nil {
		t.Fatalf("decode for inspection: %v", err)
	}
	_, sz1 := binary.Uvarint(payload)
	_, sz2 := binary.Uvarint(payload[sz1:])
	off := sz1 + sz2
	for ci := 0; ; ci++ {
		enc := payload[off]
		if ci == c {
			return enc
		}
		// Re-encode just this column to skip it.
		var ce ColumnarEncoder
		vals := make([]relational.Value, len(rows))
		for i, r := range rows {
			vals[i] = r[ci]
		}
		one := ce.appendColumn(nil, vals, EncodingHint{})
		off += len(one)
	}
}

func TestColumnarRoundTripMixedTypes(t *testing.T) {
	rows := []relational.Row{
		{relational.Int(1), relational.Float(1.5), relational.String_("a"), relational.Bool(true), relational.Null()},
		{relational.Int(-7), relational.Float(3), relational.String_(""), relational.Bool(false), relational.Int(0)},
		{relational.Null(), relational.Float(-2.25), relational.String_("göteborg"), relational.Null(), relational.String_("x")},
	}
	requireRoundTrip(t, rows, 5, nil)
}

func TestColumnarIntFloatStayDistinct(t *testing.T) {
	// Compare-equal but type-distinct values must never collapse through a
	// dictionary or run: the wire is byte-exact.
	rows := make([]relational.Row, 40)
	for i := range rows {
		if i%2 == 0 {
			rows[i] = relational.Row{relational.Int(3)}
		} else {
			rows[i] = relational.Row{relational.Float(3)}
		}
	}
	payload := requireRoundTrip(t, rows, 1, nil)
	got, _ := DecodeColumnarRows(payload)
	for i, r := range got {
		want := relational.TypeInt
		if i%2 == 1 {
			want = relational.TypeFloat
		}
		if r[0].Type() != want {
			t.Fatalf("row %d: type %v, want %v", i, r[0].Type(), want)
		}
	}
}

func TestColumnarEncodingSelection(t *testing.T) {
	n := 256
	rows := make([]relational.Row, n)
	genres := []string{"noir", "drama", "comedy", "thriller"}
	long := strings.Repeat("x", 24)
	for i := range rows {
		rows[i] = relational.Row{
			relational.String_(long + fmt.Sprint(i)),  // unique: plain
			relational.String_(genres[i%len(genres)]), // low-cardinality: dict
			relational.Int(int64(i / 64)),             // sorted runs: RLE
			relational.String_("constant"),            // constant: RLE
		}
	}
	payload := requireRoundTrip(t, rows, 4, nil)
	if enc := columnEncoding(t, payload, 0); enc != ColEncPlain {
		t.Errorf("unique column: encoding %d, want plain", enc)
	}
	if enc := columnEncoding(t, payload, 1); enc != ColEncDict {
		t.Errorf("low-cardinality column: encoding %d, want dict", enc)
	}
	if enc := columnEncoding(t, payload, 2); enc != ColEncRLE {
		t.Errorf("sorted column: encoding %d, want RLE", enc)
	}
	if enc := columnEncoding(t, payload, 3); enc != ColEncRLE {
		t.Errorf("constant column: encoding %d, want RLE", enc)
	}

	// The whole point: the columnar form undercuts the row codec.
	var rowForm []byte
	for _, r := range rows {
		rowForm = AppendRow(rowForm, r)
	}
	if len(payload) >= len(rowForm) {
		t.Errorf("columnar %d bytes, row form %d: expected compression", len(payload), len(rowForm))
	}
}

func TestColumnarStatsHintSkipsDictionary(t *testing.T) {
	// A high-distinct hint must veto the dictionary even though the data
	// would fit one — the vector here is low-cardinality, but the hint says
	// the column (globally) is not, so the encoder trusts the statistics.
	n := 64
	rows := make([]relational.Row, n)
	for i := range rows {
		rows[i] = relational.Row{relational.String_([]string{"aaaaaaaa", "bbbbbbbb"}[i%2])}
	}
	hinted := encodeBatch(t, rows, 1, []EncodingHint{{Distinct: DictMaxCardinality + 1, HasStats: true}})
	if enc := columnEncoding(t, hinted, 0); enc == ColEncDict {
		t.Errorf("hinted high-cardinality column still dictionary-encoded")
	}
	// Decode still round-trips regardless of the encoding chosen.
	if _, err := DecodeColumnarRows(hinted); err != nil {
		t.Fatalf("decode hinted batch: %v", err)
	}
}

func TestColumnarHighCardinalityAbandonsDictionary(t *testing.T) {
	n := DictMaxCardinality + 64
	rows := make([]relational.Row, n)
	for i := range rows {
		rows[i] = relational.Row{relational.Int(int64(i))}
	}
	requireRoundTrip(t, rows, 1, nil)
}

func TestColumnarEmptyBatch(t *testing.T) {
	payload := AppendColumnarBatch(nil, 0, [][]relational.Value{{}, {}}, nil)
	rows, err := DecodeColumnarRows(payload)
	if err != nil {
		t.Fatalf("decode empty batch: %v", err)
	}
	if len(rows) != 0 {
		t.Fatalf("decoded %d rows from empty batch", len(rows))
	}
}

func TestColumnarDecodeRejectsMalformed(t *testing.T) {
	valid := encodeBatch(t, []relational.Row{
		{relational.String_("noir"), relational.Int(1)},
		{relational.String_("noir"), relational.Int(2)},
		{relational.String_("drama"), relational.Int(3)},
	}, 2, nil)

	cases := map[string][]byte{
		"empty":               {},
		"truncated header":    {0x80},
		"row cap":             binary.AppendUvarint(binary.AppendUvarint(nil, MaxColumnarRows+1), 1),
		"col cap":             binary.AppendUvarint(binary.AppendUvarint(nil, 1), MaxColumnarCols+1),
		"cell cap":            binary.AppendUvarint(binary.AppendUvarint(nil, MaxColumnarRows), MaxColumnarCols),
		"missing encoding":    binary.AppendUvarint(binary.AppendUvarint(nil, 1), 1),
		"unknown encoding":    append(binary.AppendUvarint(binary.AppendUvarint(nil, 1), 1), 0x7f),
		"plain truncated":     append(binary.AppendUvarint(binary.AppendUvarint(nil, 2), 1), ColEncPlain, tagInt),
		"dict size overflow":  append(binary.AppendUvarint(binary.AppendUvarint(nil, 1), 1), ColEncDict, 0xff, 0xff, 0x03),
		"dict index range":    append(binary.AppendUvarint(binary.AppendUvarint(nil, 1), 1), ColEncDict, 1, tagNull, 5),
		"rle run count":       append(binary.AppendUvarint(binary.AppendUvarint(nil, 1), 1), ColEncRLE, 9),
		"rle empty run":       append(binary.AppendUvarint(binary.AppendUvarint(nil, 1), 1), ColEncRLE, 1, 0, tagNull),
		"rle run overflow":    append(binary.AppendUvarint(binary.AppendUvarint(nil, 2), 1), ColEncRLE, 1, 3, tagNull),
		"rle under-tiled":     append(binary.AppendUvarint(binary.AppendUvarint(nil, 3), 1), ColEncRLE, 1, 2, tagNull),
		"trailing bytes":      append(append([]byte{}, valid...), 0x00),
		"truncated mid-batch": valid[:len(valid)-1],
	}
	for name, payload := range cases {
		if _, err := DecodeColumnarRows(payload); err == nil {
			t.Errorf("%s: decode accepted malformed payload", name)
		}
	}
}

func TestEncodedRowSizeMatchesCodec(t *testing.T) {
	rows := []relational.Row{
		{},
		{relational.Null()},
		{relational.Int(0), relational.Int(-1), relational.Int(1 << 40)},
		{relational.Float(3.14), relational.Bool(true), relational.Bool(false)},
		{relational.String_(""), relational.String_(strings.Repeat("y", 200))},
	}
	for i, r := range rows {
		if got, want := EncodedRowSize(r), len(AppendRow(nil, r)); got != want {
			t.Errorf("row %d: EncodedRowSize %d, AppendRow %d", i, got, want)
		}
	}
}
