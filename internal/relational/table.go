package relational

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Row is one tuple; cells are positionally aligned with the table schema.
type Row []Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Table is a populated relation: schema plus rows plus maintained indexes.
//
// Bulk population (loaders, generators) remains a distinct phase that must
// not run concurrently with reads. After population, all read paths are
// safe to share between goroutines, and the lazy builds (EnsureIndex,
// Stats) additionally tolerate concurrent Inserts: Insert performs every
// shared-structure mutation — row append, version bump, index and
// statistics maintenance — under idxMu, the same lock those builds take.
// Unlocked access (Rows, Row, LookupPK, the index probes Lookup,
// LookupOrdinals, ProbeOrdinals and DistinctCount, reads of a map
// EnsureIndex returned, executor scans) is still reads-only territory;
// callers that interleave scans with writes serialize at a higher layer
// (wrapper.FullAccessSource holds an RWMutex around Execute/Insert).
//
// Index invalidation rules: an equality index built by EnsureIndex is
// maintained incrementally by Insert (the new ordinal is appended to its
// posting), so indexes built mid-population stay correct. Insert also
// folds each cell into its column's statistics summary (see maintain.go);
// statistics snapshots are version-checked, so reads after writes avoid
// full rebuilds. Every Insert also bumps the table's Version; consumers that
// cache derived state outside the table (the SQL planner's plan cache,
// the engine's query cache) key it on the version and so observe
// mutations as cache misses rather than stale reads.
type Table struct {
	Schema *TableSchema

	rows []Row

	// version counts mutations (Inserts); external caches key on it.
	// Atomic so cache-key reads (Version) never race Insert.
	version atomic.Uint64

	// pkIndex maps PK value key -> row ordinal (unique).
	pkIndex map[string]int
	// idxMu guards every lazily written structure below and the
	// shared-state mutations Insert performs.
	idxMu sync.Mutex
	// colIndexes maps column ordinal -> (value key -> row ordinals);
	// maintained lazily for FK columns and on demand.
	colIndexes map[int]map[string][]int
	// indexBuilds counts how many times EnsureIndex actually built an
	// index (operator-facing statistic; rebuilds after DropIndexes count
	// again).
	indexBuilds int
	// summaries holds the insert-maintained statistics of each column
	// Stats has been asked for (see stats.go); statsBuilds counts their
	// builds from the rows, statsFolds the inserts folded into them.
	summaries   map[int]*colSummary
	statsBuilds int
	statsFolds  int
}

func columnError(t *Table, column string) error {
	return fmt.Errorf("relational: table %s has no column %s", t.Schema.Name, column)
}

// NewTable returns an empty table for the given schema.
func NewTable(schema *TableSchema) *Table {
	t := &Table{
		Schema:     schema,
		colIndexes: make(map[int]map[string][]int),
	}
	if schema.PrimaryKey != "" {
		t.pkIndex = make(map[string]int)
	}
	return t
}

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.rows) }

// Row returns row i (shared, not copied).
func (t *Table) Row(i int) Row { return t.rows[i] }

// Rows returns the backing row slice (shared; callers must not mutate).
func (t *Table) Rows() []Row { return t.rows }

// Insert validates, coerces and appends a tuple, maintaining indexes.
func (t *Table) Insert(row Row) error {
	if len(row) != len(t.Schema.Columns) {
		return fmt.Errorf("relational: table %s: insert arity %d, want %d",
			t.Schema.Name, len(row), len(t.Schema.Columns))
	}
	coerced := make(Row, len(row))
	for i, v := range row {
		col := &t.Schema.Columns[i]
		if v.IsNull() {
			if col.NotNull {
				return fmt.Errorf("relational: table %s: NULL in NOT NULL column %s",
					t.Schema.Name, col.Name)
			}
			coerced[i] = v
			continue
		}
		cv, err := Coerce(v, col.Type)
		if err != nil {
			return fmt.Errorf("relational: table %s column %s: %w", t.Schema.Name, col.Name, err)
		}
		coerced[i] = cv
	}
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	if t.pkIndex != nil {
		pkOrd := t.Schema.ColumnIndex(t.Schema.PrimaryKey)
		key := coerced[pkOrd].Key()
		if coerced[pkOrd].IsNull() {
			return fmt.Errorf("relational: table %s: NULL primary key", t.Schema.Name)
		}
		if _, dup := t.pkIndex[key]; dup {
			return fmt.Errorf("relational: table %s: duplicate primary key %s",
				t.Schema.Name, coerced[pkOrd])
		}
		t.pkIndex[key] = len(t.rows)
	}
	ord := len(t.rows)
	t.rows = append(t.rows, coerced)
	t.version.Add(1)
	for colOrd, idx := range t.colIndexes {
		if coerced[colOrd].IsNull() {
			continue
		}
		k := coerced[colOrd].Key()
		idx[k] = append(idx[k], ord)
	}
	t.maintainInsertLocked(coerced)
	return nil
}

// maintainInsertLocked folds each cell of an inserted row into its
// column's statistics summary, and counts the insert once when it reached
// at least one. Caller holds idxMu.
func (t *Table) maintainInsertLocked(row Row) {
	for colOrd, s := range t.summaries {
		s.note(row[colOrd])
	}
	if len(t.summaries) > 0 {
		t.statsFolds++
	}
}

// Version returns the table's mutation counter. It changes on every Insert,
// so any state derived from the rows can be cached against it.
func (t *Table) Version() uint64 { return t.version.Load() }

// MustInsert inserts and panics on error; used by generators and tests where
// schema correctness is established by construction.
func (t *Table) MustInsert(row Row) {
	if err := t.Insert(row); err != nil {
		panic(err)
	}
}

// LookupPK returns the row with the given primary key value, if any.
func (t *Table) LookupPK(v Value) (Row, bool) {
	if t.pkIndex == nil {
		return nil, false
	}
	if i, ok := t.pkIndex[v.Key()]; ok {
		return t.rows[i], true
	}
	return nil, false
}

// EnsureIndex builds (if needed) and returns the equality index for the
// named column: value key -> row ordinals. Safe for concurrent use with
// other readers after population; callers must treat the returned map as
// read-only.
func (t *Table) EnsureIndex(column string) (map[string][]int, error) {
	ord := t.Schema.ColumnIndex(column)
	if ord < 0 {
		return nil, columnError(t, column)
	}
	return t.ensureIndexAt(ord), nil
}

// ensureIndexAt is EnsureIndex by column ordinal.
func (t *Table) ensureIndexAt(ord int) map[string][]int {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	if idx, ok := t.colIndexes[ord]; ok {
		return idx
	}
	t.indexBuilds++
	idx := make(map[string][]int)
	for i, r := range t.rows {
		if r[ord].IsNull() {
			continue
		}
		k := r[ord].Key()
		idx[k] = append(idx[k], i)
	}
	t.colIndexes[ord] = idx
	return idx
}

// Lookup returns the rows whose column equals v, using (and building) the
// equality index.
func (t *Table) Lookup(column string, v Value) ([]Row, error) {
	idx, err := t.EnsureIndex(column)
	if err != nil {
		return nil, err
	}
	ords := idx[v.Key()]
	out := make([]Row, len(ords))
	for i, o := range ords {
		out[i] = t.rows[o]
	}
	return out, nil
}

// LookupOrdinals returns the ascending ordinals of the rows whose column
// equals v: ProbeOrdinals with a single probe value, so primary-key probes
// are answered straight from pkIndex (no duplicate index build for the most
// common planner access path) and other columns use, and build, the
// equality index. The returned slice belongs to the caller.
func (t *Table) LookupOrdinals(column string, v Value) ([]int, error) {
	if v.IsNull() {
		// NULL never equals anything; indexes do not record NULL cells.
		return nil, nil
	}
	ord := t.Schema.ColumnIndex(column)
	if ord < 0 {
		return nil, columnError(t, column)
	}
	ords, _ := t.ProbeOrdinals(nil, ord, []Row{{v}}, 0, -1)
	return ords, nil
}

// probeKeyBuf sizes the stack buffer ProbeOrdinals encodes keys into;
// longer keys (long strings) spill to the heap.
const probeKeyBuf = 64

// ProbeOrdinals returns, ascending and without duplicates, the ordinals of
// the rows whose column at ordinal col key-equals (Value.Key) some probe
// value, the probe values being probes[i][probeCol]. NULL probe values
// match nothing. A primary-key column is answered from the PK index, any
// other column from its equality index, built on first use.
//
// A counting pass runs first. Once the candidates reach limit (limit < 0:
// no limit) the probe stops and reports ok=false, so the caller can fall
// back to a scan without paying for the collection. Otherwise the result
// is collected into dst, grown at most once to the counted size. Probe
// values are encoded into a stack buffer and looked up as m[string(buf)],
// so with enough capacity in dst a probe against a built index allocates
// nothing. A value equal to the previous non-NULL probe value is looked up
// once; other repeats count once per occurrence, which can only make the
// limit trip earlier.
//
// Concurrency: the same read-path contract as LookupOrdinals — safe
// alongside other readers once population is over, never alongside Insert
// (see Table).
func (t *Table) ProbeOrdinals(dst []int, col int, probes []Row, probeCol, limit int) (ords []int, ok bool) {
	pk := t.pkIndex != nil && col == t.Schema.ColumnIndex(t.Schema.PrimaryKey)
	var idx map[string][]int
	if !pk {
		idx = t.ensureIndexAt(col)
	}
	var buf [probeKeyBuf]byte
	// walk looks up every non-NULL probe value that differs from the one
	// looked up before it, counting the candidates and, when collecting,
	// appending them to out. It stops once the count reaches limit.
	walk := func(collect bool, out []int) (int, []int) {
		n := 0
		last := Null()
		for _, r := range probes {
			v := r[probeCol]
			if v.IsNull() || v == last {
				continue
			}
			last = v
			k := v.appendKey(buf[:0])
			if pk {
				if o, hit := t.pkIndex[string(k)]; hit {
					n++
					if collect {
						out = append(out, o)
					}
				}
			} else {
				posting := idx[string(k)]
				n += len(posting)
				if collect {
					out = append(out, posting...)
				}
			}
			if limit >= 0 && n >= limit {
				break
			}
		}
		return n, out
	}
	n, _ := walk(false, nil)
	if limit >= 0 && n >= limit {
		return dst[:0], false
	}
	if n == 0 {
		return dst[:0], true
	}
	if cap(dst) < n {
		dst = make([]int, 0, n)
	}
	_, out := walk(true, dst[:0])
	// Each posting is ascending; several postings need a merge by sort,
	// and non-adjacent repeats of a probe value leave duplicates.
	if !slices.IsSorted(out) {
		slices.Sort(out)
	}
	w := 1
	for _, o := range out[1:] {
		if o != out[w-1] {
			out[w] = o
			w++
		}
	}
	return out[:w], true
}

// DistinctCount returns the number of distinct non-NULL values in a column.
func (t *Table) DistinctCount(column string) (int, error) {
	idx, err := t.EnsureIndex(column)
	if err != nil {
		return 0, err
	}
	return len(idx), nil
}

// HasIndex reports whether an equality index is already built for the
// column (it does not trigger a build).
func (t *Table) HasIndex(column string) bool {
	ord := t.Schema.ColumnIndex(column)
	if ord < 0 {
		return false
	}
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	_, ok := t.colIndexes[ord]
	return ok
}

// IndexedColumns returns the names of the columns with a built equality
// index, in schema order (operator-facing statistic).
func (t *Table) IndexedColumns() []string {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	var out []string
	for i := range t.Schema.Columns {
		if _, ok := t.colIndexes[i]; ok {
			out = append(out, t.Schema.Columns[i].Name)
		}
	}
	return out
}

// IndexBuildCount returns how many equality-index builds this table has
// performed (lazy builds triggered by EnsureIndex, Lookup, LookupOrdinals,
// DistinctCount or the SQL planner).
func (t *Table) IndexBuildCount() int {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	return t.indexBuilds
}

// DropIndexes discards every lazily built equality index and statistics
// summary (the primary-key index is schema-declared and kept).
// Like Insert it belongs to the population phase: call it after bulk row
// replacement, never concurrently with readers.
func (t *Table) DropIndexes() {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	t.colIndexes = make(map[int]map[string][]int)
	t.summaries = nil
	t.version.Add(1)
}

// Database is a named collection of populated tables sharing one Schema.
type Database struct {
	Name   string
	Schema *Schema

	id     uint64
	tables map[string]*Table
}

// dbIDs hands every Database a process-unique identity (see ID).
var dbIDs atomic.Uint64

// ID returns a process-unique identifier for this database instance.
// External caches (the SQL planner's plan cache) key on it instead of the
// pointer, which the garbage collector could reuse for a later instance.
func (db *Database) ID() uint64 { return db.id }

// NewDatabase creates a database with empty tables for every table in the
// schema. The schema must validate.
func NewDatabase(name string, schema *Schema) (*Database, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	db := &Database{Name: name, Schema: schema, id: dbIDs.Add(1), tables: make(map[string]*Table)}
	for _, ts := range schema.Tables() {
		db.tables[lower(ts.Name)] = NewTable(ts)
	}
	return db, nil
}

// MustNewDatabase is NewDatabase panicking on error.
func MustNewDatabase(name string, schema *Schema) *Database {
	db, err := NewDatabase(name, schema)
	if err != nil {
		panic(err)
	}
	return db
}

// Table returns the populated table with the given name, or nil.
func (db *Database) Table(name string) *Table {
	return db.tables[lower(name)]
}

// Tables returns the populated tables in schema order.
func (db *Database) Tables() []*Table {
	out := make([]*Table, 0, len(db.tables))
	for _, ts := range db.Schema.Tables() {
		out = append(out, db.tables[lower(ts.Name)])
	}
	return out
}

// TotalRows returns the number of tuples across all tables.
func (db *Database) TotalRows() int {
	n := 0
	for _, t := range db.tables {
		n += t.Len()
	}
	return n
}

// Insert adds a row to the named table.
func (db *Database) Insert(table string, row Row) error {
	t := db.Table(table)
	if t == nil {
		return fmt.Errorf("relational: unknown table %s", table)
	}
	return t.Insert(row)
}

// CheckForeignKeys verifies that every non-NULL FK value resolves to an
// existing referenced row. Generators call it once after population.
func (db *Database) CheckForeignKeys() error {
	for _, ts := range db.Schema.Tables() {
		t := db.Table(ts.Name)
		for _, fk := range ts.ForeignKeys {
			ord := ts.ColumnIndex(fk.Column)
			ref := db.Table(fk.RefTable)
			refIdx, err := ref.EnsureIndex(fk.RefColumn)
			if err != nil {
				return err
			}
			for i, r := range t.rows {
				v := r[ord]
				if v.IsNull() {
					continue
				}
				if len(refIdx[v.Key()]) == 0 {
					return fmt.Errorf("relational: %s row %d: dangling FK %s=%s -> %s.%s",
						ts.Name, i, fk.Column, v, fk.RefTable, fk.RefColumn)
				}
			}
		}
	}
	return nil
}

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}
