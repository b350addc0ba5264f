package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/eval"
)

// opTimeout bounds one client operation. The serving tier's default
// deadline is 5s, so a healthy system always answers (if only with a 504)
// well inside it; an op that does not is a stall and counts as failed.
const opTimeout = 15 * time.Second

// searchAnswer is the part of a /v1/search response that must be equal
// across deployments and repeats (elapsed_ms and the coalesced/cached
// delivery flags are not).
type searchAnswer struct {
	Explanations []answerExplanation `json:"explanations"`
}

type answerExplanation struct {
	Rank    int                 `json:"rank"`
	Belief  float64             `json:"belief"`
	SQL     string              `json:"sql"`
	Columns []string            `json:"columns"`
	Rows    [][]json.RawMessage `json:"rows"`
}

// sameAnswer compares two answers: explanation SQL and columns exactly,
// beliefs to 1e-9, and the executed rows as a multiset.
func sameAnswer(a, b *searchAnswer) bool { return answerDiff(a, b) == "" }

// answerDiff describes the first difference between two answers, or
// returns "" when they agree.
func answerDiff(a, b *searchAnswer) string {
	if len(a.Explanations) != len(b.Explanations) {
		return fmt.Sprintf("%d explanations vs %d", len(a.Explanations), len(b.Explanations))
	}
	for i := range a.Explanations {
		x, y := &a.Explanations[i], &b.Explanations[i]
		switch {
		case x.Rank != y.Rank || x.SQL != y.SQL:
			return fmt.Sprintf("explanation %d: rank %d %q vs rank %d %q", i, x.Rank, x.SQL, y.Rank, y.SQL)
		case math.Abs(x.Belief-y.Belief) > 1e-9:
			return fmt.Sprintf("explanation %d: belief %.12f vs %.12f", i, x.Belief, y.Belief)
		case strings.Join(x.Columns, "\x1f") != strings.Join(y.Columns, "\x1f"):
			return fmt.Sprintf("explanation %d: columns %v vs %v", i, x.Columns, y.Columns)
		case !sameRowMultiset(x.Rows, y.Rows):
			return fmt.Sprintf("explanation %d: %d rows vs %d rows, or different rows", i, len(x.Rows), len(y.Rows))
		}
	}
	return ""
}

func sameRowMultiset(a, b [][]json.RawMessage) bool {
	if len(a) != len(b) {
		return false
	}
	ka, kb := rowKeys(a), rowKeys(b)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

func rowKeys(rows [][]json.RawMessage) []string {
	keys := make([]string, len(rows))
	for i, row := range rows {
		var b strings.Builder
		for _, cell := range row {
			b.Write(cell)
			b.WriteByte(0x1f)
		}
		keys[i] = b.String()
	}
	sort.Strings(keys)
	return keys
}

// opResult is the outcome of one issued op.
type opResult struct {
	kind    opKind
	query   int // pool index of a search
	ok      bool
	latency time.Duration
}

// loadClient issues ops against one system over HTTP keep-alive
// connections and verifies what comes back.
type loadClient struct {
	sys  *system
	pool []*eval.Query
	http *http.Client

	nextInsert *atomic.Int64 // shared fresh-id counter
	respBytes  atomic.Int64  // search response body bytes read

	mu       sync.Mutex
	first    map[int]*searchAnswer // first verified-shape answer per query
	acked    []int64               // movie ids of acknowledged inserts
	failures []string              // first few failure descriptions
}

func newLoadClient(sys *system, pool []*eval.Query, conns int, nextInsert *atomic.Int64) *loadClient {
	tr := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		IdleConnTimeout:     time.Minute,
	}
	return &loadClient{
		sys:        sys,
		pool:       pool,
		http:       &http.Client{Transport: tr, Timeout: opTimeout},
		nextInsert: nextInsert,
		first:      map[int]*searchAnswer{},
	}
}

func (c *loadClient) closeIdle() { c.http.CloseIdleConnections() }

func (c *loadClient) fail(format string, args ...any) {
	c.mu.Lock()
	if len(c.failures) < 10 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

func searchURL(base string, q *eval.Query) string {
	return base + "/v1/search?q=" + url.QueryEscape(q.String()) +
		"&execute=1&limit=" + fmt.Sprint(searchLimit)
}

// do issues one op and reports its client-observed latency: from sending
// the request to having read the whole response body. Parsing and checking
// the answer happen after the clock stops but inside the closed loop.
func (c *loadClient) do(o op) opResult {
	if o.kind == opInsert {
		return c.insert()
	}
	q := c.pool[o.query]
	start := time.Now()
	resp, err := c.http.Get(searchURL(c.sys.url, q))
	if err != nil {
		c.fail("search %q: %v", q, err)
		return opResult{kind: opSearch, query: o.query}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	c.respBytes.Add(int64(len(body)))
	if err != nil || resp.StatusCode != http.StatusOK {
		c.fail("search %q: status %d, read error %v, body %.200s", q, resp.StatusCode, err, body)
		return opResult{kind: opSearch, query: o.query}
	}
	var ans searchAnswer
	if err := json.Unmarshal(body, &ans); err != nil {
		c.fail("search %q: bad JSON: %v", q, err)
		return opResult{kind: opSearch, query: o.query}
	}
	c.mu.Lock()
	prev := c.first[o.query]
	if prev == nil {
		c.first[o.query] = &ans
	}
	c.mu.Unlock()
	if prev != nil && !sameAnswer(prev, &ans) {
		c.fail("search %q: answer changed between repeats", q)
		return opResult{kind: opSearch, query: o.query}
	}
	return opResult{kind: opSearch, query: o.query, ok: true, latency: lat}
}

// insert posts one movie row with a fresh id. The row's title is a token
// no pool query contains and its other attributes are NULL, so no search
// answer can change because of it and the static oracle stays valid.
func (c *loadClient) insert() opResult {
	id := insertIDBase + c.nextInsert.Add(1)
	body := fmt.Sprintf(`{"table":"movie","rows":[[%d,"zzbenchrow%d",null,null,null]]}`, id, id)
	start := time.Now()
	resp, err := c.http.Post(c.sys.url+"/v1/insert", "application/json", strings.NewReader(body))
	if err != nil {
		c.fail("insert %d: %v", id, err)
		return opResult{kind: opInsert}
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil || resp.StatusCode != http.StatusOK {
		c.fail("insert %d: status %d, read error %v, body %.200s", id, resp.StatusCode, err, out)
		return opResult{kind: opInsert}
	}
	c.mu.Lock()
	c.acked = append(c.acked, id)
	c.mu.Unlock()
	return opResult{kind: opInsert, ok: true, latency: lat}
}

// runSequential issues ops one at a time (warm-up, probes, trace replays).
func (c *loadClient) runSequential(ops []op, after func()) []opResult {
	res := make([]opResult, len(ops))
	for i, o := range ops {
		res[i] = c.do(o)
		if after != nil {
			after()
		}
	}
	return res
}

// runClosedLoop drives `clients` callers over the fixed op list, once:
// each takes the next op from a shared cursor and issues it only after its
// previous reply. It returns every result, in op-list order, and the wall
// time from the first request to the last reply.
func (c *loadClient) runClosedLoop(ops []op, clients int) ([]opResult, time.Duration) {
	var next atomic.Int64
	results := make([]opResult, len(ops))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; int(i) < len(ops); i = next.Add(1) - 1 {
				results[i] = c.do(ops[i])
			}
		}()
	}
	wg.Wait()
	return results, time.Since(start)
}

// percentile returns the q-quantile (0..1) of sorted latencies by the
// nearest-rank rule.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// highestPercentile picks, from candidates in ascending order, the highest
// percentile that still has at least minBeyond samples beyond it; ok is
// false when not even the first candidate does.
func highestPercentile(n int, candidates []float64, minBeyond int) (q float64, ok bool) {
	for _, c := range candidates {
		if float64(n)*(1-c) >= float64(minBeyond) {
			q, ok = c, true
		}
	}
	return q, ok
}

func sortedLatencies(res []opResult, kind opKind) []time.Duration {
	var out []time.Duration
	for _, r := range res {
		if r.kind == kind && r.ok {
			out = append(out, r.latency)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
