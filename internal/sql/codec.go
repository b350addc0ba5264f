package sql

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/relational"
)

// This file is the row codec of the shard wire protocol (see the package
// doc's "Wire protocol" section): a compact, self-describing binary
// encoding for values, rows, result headers and column-statistics
// snapshots. The fragment side of the wire contract is textual — a
// TableFragment ships as its Stmt.SQL() — but result rows move in bulk, so
// they get a binary form: one tag byte per value, varint integers,
// length-prefixed strings. Every Append* function appends to dst and
// returns the extended slice; every Decode* function returns the decoded
// value plus the number of bytes consumed, so frames concatenate without
// per-item framing.
//
// The encoding is exact: a decoded value compares equal (relational.Compare
// and Value.Key alike) to the encoded one, type included — Int(3) and
// Float(3) stay distinct on the wire, which the conformance harness's
// byte-identical comparison depends on.

// Value tag bytes. The tag is the first byte of every encoded value.
const (
	tagNull  byte = 0
	tagInt   byte = 1 // varint
	tagFloat byte = 2 // 8-byte big-endian IEEE 754 bits
	tagStr   byte = 3 // uvarint length + bytes
	tagTrue  byte = 4
	tagFalse byte = 5
)

// AppendValue appends the wire encoding of one value.
func AppendValue(dst []byte, v relational.Value) []byte {
	switch v.Type() {
	case relational.TypeNull:
		return append(dst, tagNull)
	case relational.TypeInt:
		dst = append(dst, tagInt)
		return binary.AppendVarint(dst, v.AsInt())
	case relational.TypeFloat:
		dst = append(dst, tagFloat)
		return binary.BigEndian.AppendUint64(dst, math.Float64bits(v.AsFloat()))
	case relational.TypeString:
		dst = append(dst, tagStr)
		return appendString(dst, v.AsString())
	case relational.TypeBool:
		if v.AsBool() {
			return append(dst, tagTrue)
		}
		return append(dst, tagFalse)
	}
	// Unreachable for values built through the public constructors; encode
	// as NULL rather than panic so a corrupt value cannot take a server down.
	return append(dst, tagNull)
}

// DecodeValue decodes one value and reports how many bytes it consumed.
func DecodeValue(b []byte) (relational.Value, int, error) {
	if len(b) == 0 {
		return relational.Null(), 0, fmt.Errorf("sql: truncated value")
	}
	switch b[0] {
	case tagNull:
		return relational.Null(), 1, nil
	case tagInt:
		n, sz := binary.Varint(b[1:])
		if sz <= 0 {
			return relational.Null(), 0, fmt.Errorf("sql: truncated varint value")
		}
		return relational.Int(n), 1 + sz, nil
	case tagFloat:
		if len(b) < 9 {
			return relational.Null(), 0, fmt.Errorf("sql: truncated float value")
		}
		return relational.Float(math.Float64frombits(binary.BigEndian.Uint64(b[1:9]))), 9, nil
	case tagStr:
		s, sz, err := decodeString(b[1:])
		if err != nil {
			return relational.Null(), 0, err
		}
		return relational.String_(s), 1 + sz, nil
	case tagTrue:
		return relational.Bool(true), 1, nil
	case tagFalse:
		return relational.Bool(false), 1, nil
	}
	return relational.Null(), 0, fmt.Errorf("sql: unknown value tag 0x%02x", b[0])
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func decodeString(b []byte) (string, int, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return "", 0, fmt.Errorf("sql: truncated string length")
	}
	if n > uint64(len(b)-sz) {
		return "", 0, fmt.Errorf("sql: string length %d exceeds remaining %d bytes", n, len(b)-sz)
	}
	return string(b[sz : sz+int(n)]), sz + int(n), nil
}

// AppendRow appends one row: uvarint cell count, then each value.
func AppendRow(dst []byte, r relational.Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r)))
	for _, v := range r {
		dst = AppendValue(dst, v)
	}
	return dst
}

// DecodeRow decodes one row and reports how many bytes it consumed.
func DecodeRow(b []byte) (relational.Row, int, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return nil, 0, fmt.Errorf("sql: truncated row header")
	}
	// A cell takes at least one byte, so the count cannot legitimately
	// exceed the remaining payload — reject before allocating.
	if n > uint64(len(b)-sz) {
		return nil, 0, fmt.Errorf("sql: row cell count %d exceeds remaining %d bytes", n, len(b)-sz)
	}
	off := sz
	row := make(relational.Row, n)
	for i := range row {
		v, vsz, err := DecodeValue(b[off:])
		if err != nil {
			return nil, 0, err
		}
		row[i] = v
		off += vsz
	}
	return row, off, nil
}

// AppendColumns appends a result header: uvarint column count, then each
// name length-prefixed.
func AppendColumns(dst []byte, cols []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(cols)))
	for _, c := range cols {
		dst = appendString(dst, c)
	}
	return dst
}

// DecodeColumns decodes a result header and reports the bytes consumed.
func DecodeColumns(b []byte) ([]string, int, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return nil, 0, fmt.Errorf("sql: truncated column header")
	}
	if n > uint64(len(b)-sz) {
		return nil, 0, fmt.Errorf("sql: column count %d exceeds remaining %d bytes", n, len(b)-sz)
	}
	off := sz
	cols := make([]string, n)
	for i := range cols {
		s, ssz, err := decodeString(b[off:])
		if err != nil {
			return nil, 0, err
		}
		cols[i] = s
		off += ssz
	}
	return cols, off, nil
}

// AppendColumnStats appends a per-column statistics snapshot — the payload
// of the wire protocol's statistics response: the column name, version,
// row, NULL and distinct counts, then Min and Max.
func AppendColumnStats(dst []byte, cs *relational.ColumnStats) []byte {
	dst = appendString(dst, cs.Column)
	dst = binary.AppendUvarint(dst, cs.Version)
	dst = binary.AppendVarint(dst, int64(cs.Rows))
	dst = binary.AppendVarint(dst, int64(cs.NullCount))
	dst = binary.AppendVarint(dst, int64(cs.Distinct))
	dst = AppendValue(dst, cs.Min)
	return AppendValue(dst, cs.Max)
}

// DecodeColumnStats decodes a statistics snapshot and reports the bytes
// consumed.
func DecodeColumnStats(b []byte) (*relational.ColumnStats, int, error) {
	cs := &relational.ColumnStats{}
	col, off, err := decodeString(b)
	if err != nil {
		return nil, 0, err
	}
	cs.Column = col
	ver, sz := binary.Uvarint(b[off:])
	if sz <= 0 {
		return nil, 0, fmt.Errorf("sql: truncated stats version")
	}
	cs.Version = ver
	off += sz
	ints := [3]*int{&cs.Rows, &cs.NullCount, &cs.Distinct}
	for _, p := range ints {
		n, isz := binary.Varint(b[off:])
		if isz <= 0 {
			return nil, 0, fmt.Errorf("sql: truncated stats counter")
		}
		*p = int(n)
		off += isz
	}
	for _, p := range [2]*relational.Value{&cs.Min, &cs.Max} {
		v, vsz, verr := DecodeValue(b[off:])
		if verr != nil {
			return nil, 0, verr
		}
		*p = v
		off += vsz
	}
	return cs, off, nil
}
