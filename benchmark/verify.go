package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"

	quest "repro"
	"repro/internal/eval"
	"repro/internal/serve"
	"repro/internal/sql"
)

// oracle holds the reference engines answers are checked against, both
// behind the same serving tier (called in process, no network) so that
// their answers have the exact shape of the served ones.
//
// ranking is a single-process engine of the deployment's own shape: for
// the fleet an in-process 3-partition sharded engine, because the sharded
// relevance evidence (per-shard maximum) ranks differently from an
// unsharded engine by design. unsharded is quest.Open on the whole
// dataset: executed SQL must return the same tuples on every shape.
type oracle struct {
	ranking   *serve.Server
	unsharded *serve.Server
}

func newOracle(deploy deployment, db *quest.Database) (*oracle, error) {
	o := &oracle{unsharded: serve.New(quest.Open(db, engineOptions()), serveOptions())}
	o.ranking = o.unsharded
	if deploy == deployFleet {
		eng, err := quest.OpenSharded(db, fleetShards, engineOptions())
		if err != nil {
			return nil, err
		}
		o.ranking = serve.New(eng, serveOptions())
	}
	return o, nil
}

func (o *oracle) answer(q *eval.Query) (*searchAnswer, error) {
	rec := httptest.NewRecorder()
	o.ranking.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, searchURL("", q), nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("oracle status %d: %.200s", rec.Code, rec.Body.String())
	}
	var ans searchAnswer
	if err := json.Unmarshal(rec.Body.Bytes(), &ans); err != nil {
		return nil, err
	}
	return &ans, nil
}

// rowsDiff checks the executed rows of an answer against the unsharded
// database: the served rows must be the first searchLimit rows of some
// ordering of the full result (the generated SQL has no ORDER BY), i.e. a
// sub-multiset of it with the right size.
func (o *oracle) rowsDiff(ans *searchAnswer) string {
	if len(ans.Explanations) == 0 || ans.Explanations[0].Columns == nil {
		return ""
	}
	top := &ans.Explanations[0]
	body, err := json.Marshal(map[string]string{"sql": top.SQL})
	if err != nil {
		return err.Error()
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/sql?limit=100000000", strings.NewReader(string(body)))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	o.unsharded.ServeHTTP(rec, req)
	var full struct {
		Rows [][]json.RawMessage `json:"rows"`
	}
	if rec.Code != http.StatusOK {
		return fmt.Sprintf("unsharded execution of %q: status %d", top.SQL, rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &full); err != nil {
		return err.Error()
	}
	want := len(full.Rows)
	if want > searchLimit {
		want = searchLimit
	}
	if len(top.Rows) != want {
		return fmt.Sprintf("%d rows served, unsharded execution has %d (limit %d)", len(top.Rows), len(full.Rows), searchLimit)
	}
	have := map[string]int{}
	for _, k := range rowKeys(full.Rows) {
		have[k]++
	}
	for _, k := range rowKeys(top.Rows) {
		if have[k] == 0 {
			return fmt.Sprintf("served row %q is not in the unsharded result of %q", k, top.SQL)
		}
		have[k]--
	}
	return ""
}

// verifySearches compares the first answer the system gave to every
// distinct query (repeats were checked against it as they arrived) with
// the oracle's. It returns the queries whose answer is wrong.
func (o *oracle) verifySearches(pool []*eval.Query, first map[int]*searchAnswer, report func(query int, diff string)) (wrong []int, err error) {
	idx := make([]int, 0, len(first))
	for i := range first {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
	)
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(idx); k += workers {
				want, err := o.answer(pool[idx[k]])
				diff := ""
				if err == nil {
					if diff = answerDiff(want, first[idx[k]]); diff == "" {
						diff = o.rowsDiff(first[idx[k]])
					}
				}
				mu.Lock()
				switch {
				case err != nil && firstErr == nil:
					firstErr = err
				case diff != "":
					wrong = append(wrong, idx[k])
					report(idx[k], diff)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	sort.Ints(wrong)
	return wrong, firstErr
}

// reciprocalRank judges one answer against the generator's gold table set:
// each returned SQL is parsed back and its joined tables compared.
func reciprocalRank(q *eval.Query, ans *searchAnswer) float64 {
	sets := make([][]string, len(ans.Explanations))
	for i, ex := range ans.Explanations {
		stmt, err := sql.Parse(ex.SQL)
		if err != nil {
			continue // an unparsable explanation can never match the gold
		}
		for _, t := range stmt.Tables() {
			sets[i] = append(sets[i], t.Table)
		}
	}
	if j := eval.JudgeTables(q, sets); j.TablesRank > 0 {
		return 1 / float64(j.TablesRank)
	}
	return 0
}

// meanReciprocalRank is the mean over the correctly served searches of
// res; first holds the answer every one of them was checked to equal. It
// sums per query in pool order, so equal op multisets give the identical
// float whatever order the ops were served in.
func meanReciprocalRank(pool []*eval.Query, first map[int]*searchAnswer, res []opResult) float64 {
	served := map[int]int{}
	n := 0
	for _, r := range res {
		if r.kind == opSearch && r.ok {
			served[r.query]++
			n++
		}
	}
	queries := make([]int, 0, len(served))
	for q := range served {
		queries = append(queries, q)
	}
	sort.Ints(queries)
	var sum float64
	for _, q := range queries {
		sum += float64(served[q]) * reciprocalRank(pool[q], first[q])
	}
	return ratio(sum, float64(n))
}

// runSQL posts one statement to /v1/sql and returns its rows.
func runSQL(c *http.Client, base, stmt string) ([][]json.RawMessage, error) {
	body, err := json.Marshal(map[string]string{"sql": stmt})
	if err != nil {
		return nil, err
	}
	resp, err := c.Post(base+"/v1/sql?limit=1000000", "application/json", strings.NewReader(string(body)))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/v1/sql %q: status %d: %.200s", stmt, resp.StatusCode, out)
	}
	var payload struct {
		Rows [][]json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal(out, &payload); err != nil {
		return nil, err
	}
	return payload.Rows, nil
}

// verifyInserts checks, through the served SQL endpoint, that every
// acknowledged insert is present exactly once and nothing else was added,
// and on a fleet that both replicas of every shard group applied the same
// number of ops. It returns one description per violated check.
func verifyInserts(sys *system, c *http.Client, initialMovies int, acked []int64) []string {
	var bad []string
	rows, err := runSQL(c, sys.url, "SELECT COUNT(*) FROM movie")
	if err != nil || len(rows) != 1 || len(rows[0]) != 1 {
		return append(bad, fmt.Sprintf("count query failed: %v (%d rows)", err, len(rows)))
	}
	if got, want := string(rows[0][0]), fmt.Sprint(initialMovies+len(acked)); got != want {
		bad = append(bad, fmt.Sprintf("COUNT(*) of movie = %s, want %s (initial %d + %d acked)", got, want, initialMovies, len(acked)))
	}
	rows, err = runSQL(c, sys.url, fmt.Sprintf("SELECT movie_id FROM movie WHERE movie_id > %d", insertIDBase))
	if err != nil {
		return append(bad, fmt.Sprintf("inserted-id query failed: %v", err))
	}
	seen := make(map[string]int, len(rows))
	for _, r := range rows {
		seen[string(r[0])]++
	}
	for _, id := range acked {
		if n := seen[fmt.Sprint(id)]; n != 1 {
			bad = append(bad, fmt.Sprintf("acked insert %d present %d times", id, n))
		}
	}
	if len(rows) != len(acked) {
		bad = append(bad, fmt.Sprintf("%d benchmark rows present, %d acked", len(rows), len(acked)))
	}
	var applied uint64
	for i, group := range sys.shards {
		_, _, seq0 := group[0].srv.ReplicationStatus()
		applied += seq0
		for r, p := range group[1:] {
			if _, _, seq := p.srv.ReplicationStatus(); seq != seq0 {
				bad = append(bad, fmt.Sprintf("shard %d: replica %d at seq %d, replica 0 at %d", i, r+1, seq, seq0))
			}
		}
	}
	if sys.deploy == deployFleet && applied != uint64(len(acked)) {
		bad = append(bad, fmt.Sprintf("fleet applied %d ops, %d acked", applied, len(acked)))
	}
	if len(bad) > 10 {
		bad = bad[:10]
	}
	return bad
}
