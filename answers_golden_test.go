package quest_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"testing"

	quest "repro"
	"repro/internal/eval"
	"repro/internal/serve"
)

var updateAnswers = flag.Bool("update", false, "rewrite testdata/served_answers.golden from the current engine")

const answersGolden = "testdata/served_answers.golden"

// TestServedAnswersGolden pins what a client of /v1/search?execute=1&limit=20
// receives, byte for byte, over a single-process engine and over a 3-shard
// engine: for a fixed prefix of the eval-generated IMDB queries, every
// explanation's SQL, its belief as IEEE-754 bits, and a SHA-256 of the
// served columns and rows of the executed top-1, in order. The engine runs
// the benchmark's options (PruneEmpty, K=10). Regenerate only for an
// intended output change, on the commit before the change:
// `go test -run TestServedAnswersGolden -update .`
func TestServedAnswersGolden(t *testing.T) {
	db := quest.BuildIMDB(quest.DatasetConfig{Seed: 42, Scale: 32})
	queries := eval.NewGenerator(db, 42).Generate("imdb", eval.IMDBTemplates(), 16).Queries
	opts := quest.Defaults()
	opts.PruneEmpty = true
	sharded, err := quest.OpenSharded(db, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	shapes := []struct {
		name string
		eng  *quest.Engine
	}{{"local", quest.Open(db, opts)}, {"sharded3", sharded}}

	var got []string
	for _, shape := range shapes {
		srv := serve.New(shape.eng, serve.Options{TenantRate: -1})
		for _, q := range queries {
			got = append(got, servedAnswer(t, srv, shape.name, q.String())...)
		}
	}
	if *updateAnswers {
		if err := os.WriteFile(answersGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(answersGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("line %d diverges from %s:\n  got  %s\n  want %s", i+1, answersGolden, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d answer lines, %s has %d", len(got), answersGolden, len(want))
	}
}

// servedAnswer renders one search's payload as one line per explanation:
// "shape\tquery\trank\tbelief-bits\trows-sha\tsql". rows-sha is "-" for
// the explanations the server does not execute.
func servedAnswer(t *testing.T, srv http.Handler, shape, q string) []string {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/search?execute=1&limit=20&q="+url.QueryEscape(q), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %q: status %d: %s", shape, q, rec.Code, rec.Body)
	}
	var payload struct {
		Explanations []struct {
			Rank    int             `json:"rank"`
			Belief  float64         `json:"belief"`
			SQL     string          `json:"sql"`
			Columns json.RawMessage `json:"columns"`
			Rows    json.RawMessage `json:"rows"`
		} `json:"explanations"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatalf("%s %q: %v", shape, q, err)
	}
	if len(payload.Explanations) == 0 {
		return []string{fmt.Sprintf("%s\t%s\tnone", shape, q)}
	}
	var lines []string
	for _, ex := range payload.Explanations {
		digest := "-"
		if ex.Columns != nil {
			h := sha256.New()
			h.Write(ex.Columns)
			h.Write([]byte{'\n'})
			h.Write(ex.Rows)
			digest = hex.EncodeToString(h.Sum(nil))
		}
		lines = append(lines, fmt.Sprintf("%s\t%s\t%d\t%016x\t%s\t%s",
			shape, q, ex.Rank, math.Float64bits(ex.Belief), digest, ex.SQL))
	}
	return lines
}
