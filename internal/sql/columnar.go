package sql

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/relational"
)

// This file is the columnar batch codec of the shard wire protocol: a row
// batch transposed into per-column vectors, each vector carrying its own
// lightweight encoding. Shipped results are dominated by a few repetitive
// columns — low-cardinality attributes (genres, roles), sorted merge keys,
// constant predicate echoes — and a per-column encoding choice captures
// that redundancy without a general-purpose compressor:
//
//   - ColEncPlain: the row codec's values back to back, one per row.
//   - ColEncDict:  distinct values once (first-appearance order) followed
//     by one uvarint dictionary index per row. Wins on low-cardinality
//     columns.
//   - ColEncRLE:   runs of byte-identical adjacent values as (uvarint run
//     length, value) pairs. Wins on sorted and constant columns.
//
// The encoder picks, per column, whichever encoding yields the fewest
// bytes, so a columnar batch is never larger than its plain transposition
// plus one encoding byte per column. Values reuse AppendValue/DecodeValue,
// so the encoding stays exact: a decoded batch is byte-for-byte the rows
// that went in, types included — Int(3) and Float(3) never share a
// dictionary slot because dictionary and run equality compare encoded
// bytes, not Compare order.
//
// Decoding is strict: every count is bounds-checked before allocation,
// dictionary indexes must address the dictionary, run lengths must tile
// the row count exactly, and trailing bytes are an error. Because RLE
// legitimately expands (a 4-byte run can decode to thousands of rows), the
// row count cannot be bounded by the payload length the way DecodeRow
// bounds cell counts; fixed caps bound the decoder's allocation instead.

// Column encodings. The encoding byte leads each encoded column.
const (
	// ColEncPlain is one row-codec value per row, in row order.
	ColEncPlain byte = 0
	// ColEncDict is a uvarint dictionary size, the dictionary's values in
	// first-appearance order, then one uvarint dictionary index per row.
	ColEncDict byte = 1
	// ColEncRLE is a uvarint run count, then (uvarint run length, value)
	// pairs whose lengths sum exactly to the batch's row count.
	ColEncRLE byte = 2
)

// Decoder allocation caps. A well-formed server batch is far smaller (the
// transport cuts batches at hundreds of rows); the caps exist so a corrupt
// or hostile payload whose counts RLE-expand far beyond its byte length
// cannot force a huge allocation.
const (
	// MaxColumnarRows caps the row count of one columnar batch.
	MaxColumnarRows = 1 << 16
	// MaxColumnarCols caps the column count of one columnar batch.
	MaxColumnarCols = 1 << 12
	// maxColumnarCells caps rows × columns, bounding total Value storage.
	maxColumnarCells = 1 << 21
)

// DictMaxCardinality is the most distinct values a dictionary encoding will
// hold. Columns whose statistics report more distinct values skip the
// dictionary attempt entirely — the stats hint saves the map build that
// would only discover the same thing row by row.
const DictMaxCardinality = 512

// EncodingHint carries per-column statistics evidence into the encoder's
// encoding selection. The zero value means "unknown": the encoder still
// tries every encoding, abandoning the dictionary once it sees more than
// DictMaxCardinality distinct values.
type EncodingHint struct {
	// Distinct is the column's distinct non-null count from table
	// statistics (relational.ColumnStats.Distinct).
	Distinct int
	// HasStats reports whether Distinct is real evidence; false leaves the
	// encoder adaptive.
	HasStats bool
}

// AppendColumnarBatch appends the columnar wire encoding of a batch:
// uvarint row count, uvarint column count, then each column as one
// encoding byte plus its payload. cols holds the batch transposed — one
// vector of nrows values per result column. hints may be nil or shorter
// than cols; missing entries mean no statistics evidence.
func AppendColumnarBatch(dst []byte, nrows int, cols [][]relational.Value, hints []EncodingHint) []byte {
	var enc ColumnarEncoder
	return enc.Append(dst, nrows, cols, hints)
}

// ColumnarEncoder is AppendColumnarBatch with memory: the scratch it
// encodes a column in (encoded values, their offsets, dictionary indexes
// and the dictionary map) is kept and reused for the next column and the
// next batch, so a stream of batches allocates it once. The zero value is
// ready to use; an encoder must not be used concurrently.
type ColumnarEncoder struct {
	buf       []byte // every value of the current column, encoded back to back
	offs      []int  // offs[i]..offs[i+1] bounds value i inside buf
	idx       []int  // dictionary index per row
	dictFirst []int  // first-occurrence row per dictionary entry
	dict      map[string]int
}

// Append appends one batch's columnar encoding to dst, exactly as
// AppendColumnarBatch does.
func (e *ColumnarEncoder) Append(dst []byte, nrows int, cols [][]relational.Value, hints []EncodingHint) []byte {
	dst = binary.AppendUvarint(dst, uint64(nrows))
	dst = binary.AppendUvarint(dst, uint64(len(cols)))
	for ci, vals := range cols {
		var hint EncodingHint
		if ci < len(hints) {
			hint = hints[ci]
		}
		dst = e.appendColumn(dst, vals, hint)
	}
	return dst
}

// appendColumn encodes one column vector, choosing the smallest encoding.
func (e *ColumnarEncoder) appendColumn(dst []byte, vals []relational.Value, hint EncodingHint) []byte {
	n := len(vals)
	buf, offs := e.buf[:0], e.offs[:0]
	offs = append(offs, 0)
	for _, v := range vals {
		buf = AppendValue(buf, v)
		offs = append(offs, len(buf))
	}
	e.buf, e.offs = buf, offs
	plainSize := len(buf)
	valBytes := func(i int) []byte { return buf[offs[i]:offs[i+1]] }

	// Run-length size: runs break wherever the encoded bytes change.
	runs, rleSize, runStart := 0, 0, 0
	for i := 1; i <= n; i++ {
		if i < n && bytes.Equal(valBytes(i), valBytes(runStart)) {
			continue
		}
		runs++
		rleSize += uvarintLen(uint64(i-runStart)) + len(valBytes(runStart))
		runStart = i
	}
	rleTotal := uvarintLen(uint64(runs)) + rleSize

	// Dictionary size: skipped outright when statistics already say the
	// column's cardinality is beyond what a dictionary can hold.
	dictTotal := -1
	dictFirst, idx := e.dictFirst[:0], e.idx[:0]
	if n > 0 && !(hint.HasStats && hint.Distinct > DictMaxCardinality) {
		if e.dict == nil {
			e.dict = make(map[string]int, 16)
		} else {
			clear(e.dict)
		}
		m := e.dict
		dictBytes, idxBytes := 0, 0
		fits := true
		for i := 0; i < n; i++ {
			k := valBytes(i)
			id, ok := m[string(k)]
			if !ok {
				if len(m) >= DictMaxCardinality {
					fits = false
					break
				}
				id = len(m)
				m[string(k)] = id
				dictFirst = append(dictFirst, i)
				dictBytes += len(k)
			}
			idx = append(idx, id)
			idxBytes += uvarintLen(uint64(id))
		}
		if fits {
			dictTotal = uvarintLen(uint64(len(dictFirst))) + dictBytes + idxBytes
		}
	}
	e.dictFirst, e.idx = dictFirst, idx

	switch {
	case dictTotal >= 0 && dictTotal < plainSize && dictTotal <= rleTotal:
		dst = append(dst, ColEncDict)
		dst = binary.AppendUvarint(dst, uint64(len(dictFirst)))
		for _, fi := range dictFirst {
			dst = append(dst, valBytes(fi)...)
		}
		for _, id := range idx {
			dst = binary.AppendUvarint(dst, uint64(id))
		}
	case rleTotal < plainSize:
		dst = append(dst, ColEncRLE)
		dst = binary.AppendUvarint(dst, uint64(runs))
		runStart = 0
		for i := 1; i <= n; i++ {
			if i < n && bytes.Equal(valBytes(i), valBytes(runStart)) {
				continue
			}
			dst = binary.AppendUvarint(dst, uint64(i-runStart))
			dst = append(dst, valBytes(runStart)...)
			runStart = i
		}
	default:
		dst = append(dst, ColEncPlain)
		dst = append(dst, buf...)
	}
	return dst
}

// DecodeColumnarRows decodes one columnar batch payload back into rows.
// The payload must be exactly one batch: trailing bytes are an error, as
// is any count that fails its bounds check — truncated vectors, dictionary
// indexes past the dictionary, runs that under- or over-tile the row count.
func DecodeColumnarRows(b []byte) ([]relational.Row, error) {
	nrows64, sz := binary.Uvarint(b)
	if sz <= 0 {
		return nil, fmt.Errorf("sql: truncated columnar row count")
	}
	off := sz
	ncols64, sz := binary.Uvarint(b[off:])
	if sz <= 0 {
		return nil, fmt.Errorf("sql: truncated columnar column count")
	}
	off += sz
	if nrows64 > MaxColumnarRows {
		return nil, fmt.Errorf("sql: columnar row count %d exceeds cap %d", nrows64, MaxColumnarRows)
	}
	if ncols64 > MaxColumnarCols {
		return nil, fmt.Errorf("sql: columnar column count %d exceeds cap %d", ncols64, MaxColumnarCols)
	}
	nrows, ncols := int(nrows64), int(ncols64)
	if nrows*ncols > maxColumnarCells {
		return nil, fmt.Errorf("sql: columnar batch %d×%d exceeds %d cells", nrows, ncols, maxColumnarCells)
	}
	rows := make([]relational.Row, nrows)
	cells := make(relational.Row, nrows*ncols)
	for i := range rows {
		rows[i] = cells[i*ncols : (i+1)*ncols : (i+1)*ncols]
	}
	for c := 0; c < ncols; c++ {
		if off >= len(b) {
			return nil, fmt.Errorf("sql: truncated column %d encoding byte", c)
		}
		enc := b[off]
		off++
		switch enc {
		case ColEncPlain:
			for i := 0; i < nrows; i++ {
				v, vsz, err := DecodeValue(b[off:])
				if err != nil {
					return nil, err
				}
				rows[i][c] = v
				off += vsz
			}
		case ColEncDict:
			dn, dsz := binary.Uvarint(b[off:])
			if dsz <= 0 {
				return nil, fmt.Errorf("sql: truncated dictionary size")
			}
			off += dsz
			// Every dictionary value takes at least one byte, so the size
			// cannot legitimately exceed the remaining payload.
			if dn > uint64(len(b)-off) {
				return nil, fmt.Errorf("sql: dictionary size %d exceeds remaining %d bytes", dn, len(b)-off)
			}
			dict := make([]relational.Value, dn)
			for i := range dict {
				v, vsz, err := DecodeValue(b[off:])
				if err != nil {
					return nil, err
				}
				dict[i] = v
				off += vsz
			}
			for i := 0; i < nrows; i++ {
				id, isz := binary.Uvarint(b[off:])
				if isz <= 0 {
					return nil, fmt.Errorf("sql: truncated dictionary index")
				}
				if id >= dn {
					return nil, fmt.Errorf("sql: dictionary index %d out of range %d", id, dn)
				}
				rows[i][c] = dict[id]
				off += isz
			}
		case ColEncRLE:
			rn, rsz := binary.Uvarint(b[off:])
			if rsz <= 0 {
				return nil, fmt.Errorf("sql: truncated run count")
			}
			off += rsz
			if rn > uint64(nrows) {
				return nil, fmt.Errorf("sql: run count %d exceeds %d rows", rn, nrows)
			}
			filled := 0
			for r := uint64(0); r < rn; r++ {
				rl, lsz := binary.Uvarint(b[off:])
				if lsz <= 0 {
					return nil, fmt.Errorf("sql: truncated run length")
				}
				off += lsz
				if rl == 0 {
					return nil, fmt.Errorf("sql: empty run")
				}
				if rl > uint64(nrows-filled) {
					return nil, fmt.Errorf("sql: run of %d overflows %d remaining rows", rl, nrows-filled)
				}
				v, vsz, err := DecodeValue(b[off:])
				if err != nil {
					return nil, err
				}
				off += vsz
				for k := 0; k < int(rl); k++ {
					rows[filled+k][c] = v
				}
				filled += int(rl)
			}
			if filled != nrows {
				return nil, fmt.Errorf("sql: runs cover %d of %d rows", filled, nrows)
			}
		default:
			return nil, fmt.Errorf("sql: unknown column encoding 0x%02x", enc)
		}
	}
	if off != len(b) {
		return nil, fmt.Errorf("sql: %d trailing bytes after columnar batch", len(b)-off)
	}
	return rows, nil
}

// EncodedRowSize returns the row-codec wire size of a row without encoding
// it — how the transport server sizes its batch cuts while accumulating
// column vectors that are only encoded at flush time.
func EncodedRowSize(r relational.Row) int {
	n := uvarintLen(uint64(len(r)))
	for _, v := range r {
		n += encodedValueSize(v)
	}
	return n
}

func encodedValueSize(v relational.Value) int {
	switch v.Type() {
	case relational.TypeInt:
		x := v.AsInt()
		return 1 + uvarintLen(uint64(x)<<1^uint64(x>>63)) // zigzag, as AppendVarint
	case relational.TypeFloat:
		return 9
	case relational.TypeString:
		s := v.AsString()
		return 1 + uvarintLen(uint64(len(s))) + len(s)
	default: // NULL and booleans are a lone tag byte
		return 1
	}
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}
