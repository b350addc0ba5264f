package conformance

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/relational"
	"repro/internal/shard"
	"repro/internal/sql"
	"repro/internal/transport"
	"repro/internal/wrapper"
)

// unreducedGather is the coordinator's gather before semi-join reduction:
// every fragment shipped whole from every shard, concatenated in shard
// order, then ExecuteRows. It is the reference the reduced gather must
// reproduce row for row, in order.
func unreducedGather(t *testing.T, parts []*relational.Database, stmt *sql.SelectStmt) (*sql.Result, int) {
	t.Helper()
	frags, err := sql.Fragments(parts[0].Schema, stmt)
	if err != nil {
		t.Fatal(err)
	}
	tables := make([][]relational.Row, len(frags))
	shipped := 0
	for fi, f := range frags {
		for _, p := range parts {
			res, err := sql.Execute(p, f.Stmt)
			if err != nil {
				t.Fatalf("fragment %s: %v", f.SQL(), err)
			}
			tables[fi] = append(tables[fi], res.Rows...)
			shipped += len(res.Rows)
		}
	}
	res, err := sql.ExecuteRows(parts[0].Schema, stmt, tables)
	if err != nil {
		t.Fatalf("ExecuteRows(%s): %v", stmt.SQL(), err)
	}
	return res, shipped
}

// candidateStatements reads the SQL of every statement pinned by the
// candidate golden: the join shapes QUEST generates on IMDB.
func candidateStatements(t *testing.T) []*sql.SelectStmt {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []*sql.SelectStmt
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		_, src, ok := strings.Cut(sc.Text(), "\t")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		stmt, err := sql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, stmt)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSemiJoinReductionOrderedIMDB holds the coordinator's semi-join
// reduction to "same rows, same order": every candidate statement of the
// IMDB golden, run through a 3-shard ShardedSource in process and behind
// the wire protocol, must return exactly the ordered rows the unreduced
// gather returns, and Exists must agree with them. It also requires that
// the reduction fires, that refuted joins skip fragments, and that the
// rows shipped fall at least tenfold.
func TestSemiJoinReductionOrderedIMDB(t *testing.T) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 4})
	parts, err := shard.Partition(db, 3)
	if err != nil {
		t.Fatal(err)
	}
	owned, err := shard.New(db.Name, parts, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	remote, _ := newRemoteSharded(t, db.Name, parts, transport.Options{})
	defer remote.Close()

	// Rows shipped are compared on join statements only: single-table ones
	// push down whole and never gathered whole tables to begin with.
	refShipped, gotShipped := 0, 0
	for _, stmt := range candidateStatements(t) {
		want, shipped := unreducedGather(t, parts, stmt)
		if len(stmt.Joins) > 0 {
			refShipped += shipped
		}
		for _, cand := range []struct {
			name string
			src  *shard.ShardedSource
		}{{"in-process", owned}, {"remote", remote}} {
			before := cand.src.Stats().RowsShipped
			got, err := cand.src.Execute(stmt)
			if err != nil {
				t.Fatalf("%s %s: %v", cand.name, stmt.SQL(), err)
			}
			if cand.src == owned && len(stmt.Joins) > 0 {
				gotShipped += int(owned.Stats().RowsShipped - before)
			}
			if strings.Join(got.Columns, "\x1f") != strings.Join(want.Columns, "\x1f") {
				t.Fatalf("%s %s: columns %v, want %v", cand.name, stmt.SQL(), got.Columns, want.Columns)
			}
			if len(got.Rows) != len(want.Rows) {
				t.Fatalf("%s %s: %d rows, want %d", cand.name, stmt.SQL(), len(got.Rows), len(want.Rows))
			}
			for i := range got.Rows {
				if g, w := canonicalRow(got.Rows[i]), canonicalRow(want.Rows[i]); g != w {
					t.Fatalf("%s %s: row %d is %s, want %s", cand.name, stmt.SQL(), i, g, w)
				}
			}
			ok, err := wrapper.ExecuteExists(cand.src, stmt)
			if err != nil || ok != (len(want.Rows) > 0) {
				t.Fatalf("%s %s: exists=%v (%v), want %v", cand.name, stmt.SQL(), ok, err, len(want.Rows) > 0)
			}
		}
	}

	if st := owned.Stats(); st.ReducedFragments == 0 || st.SkippedFragments == 0 {
		t.Fatalf("reduction never fired: %+v", st)
	}
	if gotShipped*10 > refShipped {
		t.Errorf("join statements shipped %d rows, want <= 1/10 of the unreduced %d", gotShipped, refShipped)
	}
	t.Logf("join statements: %d rows shipped, unreduced gather %d", gotShipped, refShipped)
}

// tableDigests hashes every row of every table of every partition, in
// storage order, through the exact value encoding.
func tableDigests(parts []*relational.Database) []string {
	var out []string
	for _, p := range parts {
		for _, name := range p.Schema.TableNames() {
			h := sha256.New()
			for _, r := range p.Table(name).Rows() {
				h.Write(sql.AppendRow(nil, r))
			}
			out = append(out, p.Name+"."+name+"="+hex.EncodeToString(h.Sum(nil)))
		}
	}
	return out
}

// TestGatherLeavesTablesUntouched holds the read-only row contract of
// wrapper.RowSink: in-process sources stream a bare SELECT * fragment as
// the stored rows themselves, so the coordinator's gather, reduction and
// ExecuteRows must never write through a row they were handed. Every
// IMDB candidate statement runs through the in-process and the loopback
// gather, and every table of every shard must hash the same afterwards.
func TestGatherLeavesTablesUntouched(t *testing.T) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 4})
	parts, err := shard.Partition(db, 3)
	if err != nil {
		t.Fatal(err)
	}
	owned, err := shard.New(db.Name, parts, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	remote, _ := newRemoteSharded(t, db.Name, parts, transport.Options{})
	defer remote.Close()

	before := tableDigests(parts)
	for _, stmt := range candidateStatements(t) {
		for _, src := range []*shard.ShardedSource{owned, remote} {
			if _, err := src.Execute(stmt); err != nil {
				t.Fatalf("%s: %v", stmt.SQL(), err)
			}
		}
	}
	after := tableDigests(parts)
	for i := range before {
		if before[i] != after[i] {
			t.Errorf("table changed by the gathers: %s became %s", before[i], after[i])
		}
	}
}
