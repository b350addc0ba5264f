package conformance

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/relational"
	"repro/internal/sql"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current executor")

const goldenPath = "testdata/imdb_candidates.golden"

// TestIMDBCandidatesGolden pins the ordered output of the planned executor
// on the statements QUEST generates: the file lists every distinct
// candidate explanation (PruneEmpty off, so empty join paths are included)
// of the first 150 queries of the benchmark's shuffled IMDB pool, and the
// test re-digests exactly that list over IMDB{Seed:42, Scale:32}, so the
// ranker never decides which statements are pinned. Each line holds, per
// statement, the row count and a digest of the ordered Value.Key() rows of
// Execute, the Exists answer, and the digest of the same statement under
// LIMIT 20. Executor changes must reproduce the file exactly — same rows,
// same order, same short-circuit prefix, same existence verdict — which is
// a stronger check than the conformance suite's multiset comparison. The
// file was generated before index-narrowed scans and the existence index
// walk existed; the test also requires that some executions narrow a scan
// and that the index walk answers at least 90 % of the joined statements'
// Exists calls. Regenerate (only for an intended output change) with
// `go test ./internal/conformance -run TestIMDBCandidatesGolden -update`,
// which re-digests the statements already in the file.
func TestIMDBCandidatesGolden(t *testing.T) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 32})
	srcs, want := candidateSQL(t)
	before := sql.Stats()
	got := make([]string, len(srcs))
	joined := 0
	for i, src := range srcs {
		got[i] = digestStatement(db, src)
		if stmt, err := sql.Parse(src); err == nil && len(stmt.Joins) > 0 {
			joined++
		}
	}
	after := sql.Stats()
	if after.NarrowedScans == before.NarrowedScans {
		t.Error("no candidate execution took an index-narrowed scan; the golden no longer guards them")
	}
	walked := after.ExistsSemiJoins - before.ExistsSemiJoins
	t.Logf("the existence index walk answered %d of %d joined statements", walked, joined)
	if walked*10 < uint64(joined)*9 {
		t.Errorf("the existence index walk answered %d of %d joined statements, want >= 90 %%", walked, joined)
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("statement %d diverges from %s:\n  got  %s\n  want %s", i, goldenPath, got[i], want[i])
		}
	}
}

// candidateSQL reads the candidate golden: the statement text of every
// line, and the lines themselves.
func candidateSQL(t *testing.T) (srcs, lines []string) {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		_, src, ok := strings.Cut(sc.Text(), "\t")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		srcs = append(srcs, src)
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return srcs, lines
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
