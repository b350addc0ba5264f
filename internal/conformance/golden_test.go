package conformance

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/ontology"
	"repro/internal/relational"
	"repro/internal/sql"
	"repro/internal/wrapper"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current executor")

// goldenQueries is how many pool queries feed the candidate golden: the
// first N of the benchmark's shuffled IMDB pool, sized so the test stays a
// few seconds.
const goldenQueries = 150

const goldenPath = "testdata/imdb_candidates.golden"

// TestIMDBCandidatesGolden pins the ordered output of the planned executor
// on the statements QUEST actually generates: every candidate explanation
// (PruneEmpty off, so empty join paths are included) of the first
// goldenQueries pool queries over IMDB{Seed:42, Scale:32}. Each line holds,
// per distinct statement, the row count and a digest of the ordered
// Value.Key() rows of Execute, the Exists answer, and the digest of the
// same statement under LIMIT 20. Executor changes must reproduce the file
// exactly — same rows, same order, same short-circuit prefix — which is a
// stronger check than the conformance suite's multiset comparison. The
// file was generated before index-narrowed scans existed, and the test
// also requires that some of these executions narrow a scan.
// Regenerate (only for an intended output change) with
// `go test ./internal/conformance -run TestIMDBCandidatesGolden -update`.
func TestIMDBCandidatesGolden(t *testing.T) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 32})
	narrowed := sql.Stats().NarrowedScans
	got := candidateDigests(t, db, goldenQueries)
	if sql.Stats().NarrowedScans == narrowed {
		t.Error("no candidate execution took an index-narrowed scan; the golden no longer guards them")
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("golden has %d statements, executor produced %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("statement %d diverges from %s:\n  got  %s\n  want %s", i, goldenPath, got[i], want[i])
		}
	}
}

// candidateDigests generates the candidate statements of the first n pool
// queries (first occurrence order, de-duplicated by SQL text) and renders
// one golden line per statement.
func candidateDigests(t *testing.T, db *relational.Database, n int) []string {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Thesaurus = ontology.DefaultThesaurus()
	opts.QueryCacheSize = -1
	eng := core.NewEngine(wrapper.NewFullAccessSource(db), opts)

	pool := goldenPool(db)
	if n > len(pool) {
		n = len(pool)
	}
	seen := make(map[string]bool)
	var lines []string
	for _, q := range pool[:n] {
		exps, err := eng.Search(q.String())
		if err != nil {
			t.Fatalf("search %q: %v", q, err)
		}
		for _, ex := range exps {
			if seen[ex.SQL] {
				continue
			}
			seen[ex.SQL] = true
			lines = append(lines, digestStatement(db, ex.SQL))
		}
	}
	return lines
}

// goldenPool is the benchmark's query pool: the de-duplicated IMDB
// template workload under seed 42, shuffled with the same seed.
func goldenPool(db *relational.Database) []*eval.Query {
	w := eval.NewGenerator(db, 42).Generate("imdb", eval.IMDBTemplates(), 800)
	seen := make(map[string]bool, len(w.Queries))
	var pool []*eval.Query
	for _, q := range w.Queries {
		if s := q.String(); !seen[s] {
			seen[s] = true
			pool = append(pool, q)
		}
	}
	rand.New(rand.NewSource(42)).Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

// digestStatement renders "rows exec=<sha> exists=<bool> limit20=<sha>\t<sql>".
func digestStatement(db *relational.Database, src string) string {
	stmt, err := sql.Parse(src)
	if err != nil {
		return "parse-error\t" + src
	}
	rows, execDigest := executeDigest(db, stmt)
	exists := "error"
	if ok, err := sql.Exists(db, stmt); err == nil {
		exists = fmt.Sprint(ok)
	}
	limited := *stmt
	if limited.Limit < 0 || limited.Limit > 20 {
		limited.Limit = 20
	}
	_, limitDigest := executeDigest(db, &limited)
	return fmt.Sprintf("%s exec=%s exists=%s limit20=%s\t%s", rows, execDigest, exists, limitDigest, src)
}

// executeDigest returns the row count and a SHA-256 prefix over the
// ordered canonical rows of one Execute.
func executeDigest(db *relational.Database, stmt *sql.SelectStmt) (rows, digest string) {
	res, err := sql.Execute(db, stmt)
	if err != nil {
		return "error", "error"
	}
	h := sha256.New()
	h.Write([]byte(strings.Join(res.Columns, "\x1f")))
	h.Write([]byte{'\n'})
	for _, r := range res.Rows {
		h.Write([]byte(canonicalRow(r)))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprint(len(res.Rows)), hex.EncodeToString(h.Sum(nil))[:24]
}
