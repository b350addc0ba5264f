package conformance

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/relational"
	"repro/internal/sql"
)

const planGoldenPath = "testdata/imdb_plans.golden"

// restrictKeys is how many join-key values each restricted fragment
// pushes as `col IN (...)`.
const restrictKeys = 40

// TestIMDBCandidatesPlanGolden pins the planner's output on the statements
// QUEST generates and on the fragments a fleet ships for them: one line
// per sql.Explain over IMDB{Seed:42, Scale:32}, for every statement of
// imdb_candidates.golden, each of its per-table fragments (Fragments),
// each key-only existence fragment (ExistsFragments), and each fragment
// restricted on each of its join-key columns (Restrict, as the
// coordinator's semi-join reduction does) with up to restrictKeys of that
// column's values, and each fragment with two or more join keys
// restricted on all of them. Explain renders access paths, index-probe estimates,
// join order and build sides, and the digest adds every scan's and join's
// QueryPlan.EstRows, which Explain prints only for index scans before
// execution. So a change to statistics or costing that moves any plan or
// any estimate moves a line, while TestIMDBCandidatesGolden, which digests
// rows, would not notice. Regenerate (only for an intended plan
// change) with `go test ./internal/conformance -run
// TestIMDBCandidatesPlanGolden -update`.
func TestIMDBCandidatesPlanGolden(t *testing.T) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 32})
	srcs, _ := candidateSQL(t)
	var got []string
	emit := func(label string, stmt *sql.SelectStmt) {
		got = append(got, explainDigest(db, stmt)+" "+label)
	}
	for i, src := range srcs {
		stmt, err := sql.Parse(src)
		if err != nil {
			t.Fatalf("statement %d: %v", i, err)
		}
		emit(fmt.Sprintf("stmt %d", i), stmt)
		frags, err := sql.Fragments(db.Schema, stmt)
		if err != nil {
			t.Fatalf("statement %d: %v", i, err)
		}
		for fi := range frags {
			emit(fmt.Sprintf("frag %d.%d", i, fi), frags[fi].Stmt)
		}
		if efrags, _, ok := sql.ExistsFragments(db.Schema, stmt); ok {
			for fi := range efrags {
				emit(fmt.Sprintf("exists %d.%d", i, fi), efrags[fi].Stmt)
			}
		}
		edges, _ := sql.InnerJoinKeys(db.Schema, stmt)
		keyCols := make([][]int, len(frags))
		for _, e := range edges {
			for _, end := range [2][2]int{{e.A, e.ACol}, {e.B, e.BCol}} {
				f := frags[end[0]]
				r := f.Restrict(db.Schema, end[1], columnKeys(db.Table(f.Ref.Table), end[1]))
				emit(fmt.Sprintf("restrict %d.%d.%d", i, end[0], end[1]), r.Stmt)
				if !slices.Contains(keyCols[end[0]], end[1]) {
					keyCols[end[0]] = append(keyCols[end[0]], end[1])
				}
			}
		}
		// A fragment between two gathered neighbours is restricted on
		// both join keys, smallest key list first, as the coordinator's
		// reduceWave does: the first IN is an index probe, the others stay
		// pushed and are costed from column statistics.
		for fi, cols := range keyCols {
			if len(cols) < 2 {
				continue
			}
			f := frags[fi]
			tb := db.Table(f.Ref.Table)
			lists := make([][]relational.Value, len(cols))
			for ci, col := range cols {
				lists[ci] = columnKeys(tb, col)
			}
			order := make([]int, len(cols))
			for ci := range order {
				order[ci] = ci
			}
			sort.SliceStable(order, func(a, b int) bool { return len(lists[order[a]]) < len(lists[order[b]]) })
			for _, ci := range order {
				f = f.Restrict(db.Schema, cols[ci], lists[ci])
			}
			emit(fmt.Sprintf("restrict-all %d.%d", i, fi), f.Stmt)
		}
	}
	if *updateGolden {
		if err := os.WriteFile(planGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(planGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d plans, %s has %d", len(got), planGoldenPath, len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			bad++
			if bad <= 5 {
				t.Errorf("plan %d diverges from %s:\n  got  %s\n  want %s", i, planGoldenPath, got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d plans diverge", bad, len(got))
	}
}

// explainDigest returns a SHA-256 prefix of the statement's Explain text
// followed by the EstRows of every scan and join of its QueryPlan.
func explainDigest(db *relational.Database, stmt *sql.SelectStmt) string {
	text, err := sql.Explain(db, stmt)
	if err != nil {
		return "error"
	}
	qp, err := sql.Plan(db, stmt)
	if err != nil {
		return "error"
	}
	for _, sp := range qp.Scans {
		text += fmt.Sprintf("\nest scan %s %d", sp.Binding, sp.EstRows)
	}
	for _, jp := range qp.Joins {
		text += fmt.Sprintf("\nest join %s %d", jp.Binding, jp.EstRows)
	}
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])[:24]
}

// columnKeys returns up to restrictKeys distinct non-NULL values of the
// column at ordinal col, taken at an even stride through the rows.
func columnKeys(tb *relational.Table, col int) []relational.Value {
	var keys []relational.Value
	seen := map[string]bool{}
	stride := tb.Len()/restrictKeys + 1
	for i := 0; i < tb.Len() && len(keys) < restrictKeys; i += stride {
		v := tb.Row(i)[col]
		if v.IsNull() || seen[v.Key()] {
			continue
		}
		seen[v.Key()] = true
		keys = append(keys, v)
	}
	return keys
}
