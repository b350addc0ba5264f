package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	quest "repro"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/sql"
	"repro/internal/wrapper"
)

// gateSource wraps the full-access source so tests can hold every
// PruneEmpty existence probe at a gate: a search admitted by the server
// then blocks inside the engine until the test releases it (or its
// context fires), which is how the overload, deadline and coalescing
// paths are made deterministic.
type gateSource struct {
	*wrapper.FullAccessSource
	mu      sync.Mutex
	block   chan struct{} // non-nil: probes wait here
	entered chan struct{} // one signal per probe that reached the gate
}

func (g *gateSource) ExecuteExistsCtx(ctx context.Context, stmt *sql.SelectStmt) (bool, error) {
	g.mu.Lock()
	block := g.block
	g.mu.Unlock()
	if block != nil {
		select {
		case g.entered <- struct{}{}:
		default:
		}
		select {
		case <-block:
		case <-ctx.Done():
			return false, ctx.Err()
		}
	}
	return g.FullAccessSource.ExecuteExists(stmt)
}

func (g *gateSource) close() {
	g.mu.Lock()
	if g.block != nil {
		close(g.block)
		g.block = nil
	}
	g.mu.Unlock()
}

// newGateServer builds a serve.Server whose engine validates candidates
// through the gate. The query cache is off so every request exercises the
// full admission + execution path.
func newGateServer(t *testing.T, blocked bool, o serve.Options) (*serve.Server, *gateSource) {
	t.Helper()
	db := quest.BuildIMDB(quest.DatasetConfig{Seed: 42, Scale: 1})
	g := &gateSource{
		FullAccessSource: wrapper.NewFullAccessSource(db),
		entered:          make(chan struct{}, 64),
	}
	if blocked {
		g.block = make(chan struct{})
	}
	opts := quest.Defaults()
	opts.PruneEmpty = true
	opts.QueryCacheSize = -1
	eng := core.NewEngine(g, opts)
	return serve.New(eng, o), g
}

const testQuery = "spielberg drama"

func doSearch(s *serve.Server, q string, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, "/v1/search?q="+strings.ReplaceAll(q, " ", "+"), nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func postJSON(s *serve.Server, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func errorCode(t *testing.T, w *httptest.ResponseRecorder) string {
	t.Helper()
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatalf("response %q is not a typed error body: %v", w.Body.String(), err)
	}
	return body.Error
}

func TestSearchSQLStatsHealthz(t *testing.T) {
	s, _ := newGateServer(t, false, serve.Options{})

	req := httptest.NewRequest(http.MethodGet, "/v1/search?q=spielberg+drama&execute=1&k=3", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("search: code %d body %s", w.Code, w.Body.String())
	}
	var res struct {
		Keywords     []string `json:"keywords"`
		Explanations []struct {
			Rank   int     `json:"rank"`
			Belief float64 `json:"belief"`
			SQL    string  `json:"sql"`
			Rows   [][]any `json:"rows"`
		} `json:"explanations"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatalf("decode search: %v", err)
	}
	if len(res.Keywords) != 2 || len(res.Explanations) == 0 {
		t.Fatalf("unexpected payload: %+v", res)
	}
	if len(res.Explanations) > 3 {
		t.Fatalf("k=3 returned %d explanations", len(res.Explanations))
	}
	if res.Explanations[0].SQL == "" {
		t.Fatal("top explanation has no SQL")
	}

	body := strings.NewReader(`{"sql": "SELECT title FROM movie WHERE production_year BETWEEN 1972 AND 1990"}`)
	sreq := httptest.NewRequest(http.MethodPost, "/v1/sql", body)
	sreq.Header.Set("Content-Type", "application/json")
	sw := httptest.NewRecorder()
	s.ServeHTTP(sw, sreq)
	if sw.Code != http.StatusOK {
		t.Fatalf("sql: code %d body %s", sw.Code, sw.Body.String())
	}
	var sqlRes struct {
		Columns  []string `json:"columns"`
		RowCount int      `json:"row_count"`
	}
	if err := json.Unmarshal(sw.Body.Bytes(), &sqlRes); err != nil {
		t.Fatalf("decode sql: %v", err)
	}
	if len(sqlRes.Columns) != 1 || sqlRes.RowCount == 0 {
		t.Fatalf("unexpected sql payload: %+v", sqlRes)
	}

	hw := httptest.NewRecorder()
	s.ServeHTTP(hw, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if hw.Code != http.StatusOK || !strings.Contains(hw.Body.String(), "ok") {
		t.Fatalf("healthz: code %d body %q", hw.Code, hw.Body.String())
	}

	stw := httptest.NewRecorder()
	s.ServeHTTP(stw, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st serve.Stats
	if err := json.Unmarshal(stw.Body.Bytes(), &st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if st.Searches != 1 || st.SQLQueries != 1 || st.RowsReturned == 0 {
		t.Fatalf("stats don't reflect the traffic: %+v", st)
	}
}

func TestTypedBadRequests(t *testing.T) {
	s, _ := newGateServer(t, false, serve.Options{})
	cases := []struct {
		name string
		req  *http.Request
	}{
		{"missing q", httptest.NewRequest(http.MethodGet, "/v1/search", nil)},
		{"bad k", httptest.NewRequest(http.MethodGet, "/v1/search?q=x&k=zebra", nil)},
		{"bad deadline header", func() *http.Request {
			r := httptest.NewRequest(http.MethodGet, "/v1/search?q=spielberg", nil)
			r.Header.Set(serve.DeadlineHeader, "soon")
			return r
		}()},
		{"sql wrong method", httptest.NewRequest(http.MethodGet, "/v1/sql?sql=SELECT", nil)},
		{"sql missing statement", httptest.NewRequest(http.MethodPost, "/v1/sql", nil)},
		{"sql parse error", httptest.NewRequest(http.MethodPost, "/v1/sql",
			strings.NewReader("sql=FROBNICATE+ALL+THE+THINGS"))},
	}
	cases[5].req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := httptest.NewRecorder()
			s.ServeHTTP(w, tc.req)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("code %d body %s, want 400", w.Code, w.Body.String())
			}
			if code := errorCode(t, w); code != "bad_request" {
				t.Fatalf("error code %q, want bad_request", code)
			}
		})
	}
	if st := s.Stats(); st.BadRequests != uint64(len(cases)) {
		t.Fatalf("BadRequests = %d, want %d", st.BadRequests, len(cases))
	}
}

// TestSQLHavingWithoutGroup: a HAVING clause with nothing to group used to
// answer every row of the table; /v1/sql now refuses it as the client's
// statement, a typed 400 naming HAVING, and returns no rows.
func TestSQLHavingWithoutGroup(t *testing.T) {
	s, _ := newGateServer(t, false, serve.Options{})
	w := postJSON(s, "/v1/sql", `{"sql": "SELECT movie.title FROM movie HAVING movie.year > 3000"}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("code %d body %s, want 400", w.Code, w.Body.String())
	}
	if code := errorCode(t, w); code != "bad_request" {
		t.Fatalf("error code %q, want bad_request", code)
	}
	if body := w.Body.String(); !strings.Contains(body, "HAVING") || strings.Contains(body, `"rows"`) {
		t.Fatalf("body %s: want the HAVING rejection and no rows", body)
	}
}

// TestInsertEndpointErrors pins the write endpoint's typed failures:
// unknown table, malformed values, and mid-batch failures that report how
// many rows landed before the bad one.
func TestInsertEndpointErrors(t *testing.T) {
	s, _ := newGateServer(t, false, serve.Options{TenantRate: -1})

	w := postJSON(s, "/v1/insert", `{"table": "nope", "rows": [[1]]}`)
	if w.Code != http.StatusBadRequest || errorCode(t, w) != "bad_request" {
		t.Fatalf("unknown table: status %d body %s", w.Code, w.Body.String())
	}

	w = postJSON(s, "/v1/insert", `{"table": "movie", "rows": [[9003, ["nested"], 2025, "drama", 1.0]]}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("nested value: status %d body %s", w.Code, w.Body.String())
	}

	w = postJSON(s, "/v1/insert", `{"rows": [[1]]}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("missing table: status %d body %s", w.Code, w.Body.String())
	}
	w = postJSON(s, "/v1/insert", `{"table": "movie"}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("missing rows: status %d body %s", w.Code, w.Body.String())
	}

	// A duplicate primary key mid-batch: the first row lands, the second
	// fails, and the error says so.
	w = postJSON(s, "/v1/insert",
		`{"table": "movie", "rows": [[9004, "First", 2025, "drama", 5.0], [9004, "Dup", 2025, "drama", 5.0]]}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("dup pk: status %d body %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "1 rows inserted before the failure") {
		t.Fatalf("dup pk error should report partial progress: %s", w.Body.String())
	}
}

// padTo builds a body of exactly n bytes by filling format's one %s with
// 'x's, so the decoder must read every byte to finish the value.
func padTo(format string, n int) string {
	return fmt.Sprintf(format, strings.Repeat("x", n-len(fmt.Sprintf(format, ""))))
}

// TestBodyCaps: a /v1/sql or /v1/insert body one byte over its cap is
// refused with a typed 413 before admission — no row lands and no tenant
// token is spent — while a body exactly at the cap is served.
func TestBodyCaps(t *testing.T) {
	const (
		sqlCap    = 1 << 20
		insertCap = 8 << 20
		sqlBody   = `{"sql": "SELECT COUNT(*) AS n FROM movie WHERE title = '%s'"}`
		formBody  = `sql=SELECT+COUNT(*)+AS+n+FROM+movie+WHERE+title+%%3D+'%s'`
		insertRow = `{"table": "movie", "rows": [[9005, "%s", 2025, "drama", 5.0]]}`
	)
	// One token per tenant, refilled only after ~17 minutes: a request
	// that spent one would leave the next in-cap request rate-limited.
	s, _ := newGateServer(t, false, serve.Options{TenantRate: 0.001, TenantBurst: 1})
	do := func(path, ctype, body, tenant string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		req.Header.Set("Content-Type", ctype)
		req.Header.Set(serve.TenantHeader, tenant)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		return w
	}
	countMovies := func(tenant string) float64 {
		t.Helper()
		w := do("/v1/sql", "application/json", `{"sql": "SELECT COUNT(*) AS n FROM movie"}`, tenant)
		var body struct {
			Rows [][]float64 `json:"rows"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &body); w.Code != http.StatusOK || err != nil || len(body.Rows) != 1 {
			t.Fatalf("count: status %d body %s", w.Code, w.Body.String())
		}
		return body.Rows[0][0]
	}
	const form = "application/x-www-form-urlencoded"
	before := countMovies("count-before")

	for _, tc := range []struct {
		name, path, ctype, format string
		cap                       int
	}{
		{"sql json", "/v1/sql", "application/json", sqlBody, sqlCap},
		{"sql form", "/v1/sql", form, formBody, sqlCap},
		{"insert", "/v1/insert", "application/json", insertRow, insertCap},
	} {
		t.Run(tc.name, func(t *testing.T) {
			over := padTo(tc.format, tc.cap+1)
			if len(over) != tc.cap+1 {
				t.Fatalf("over-cap body is %d bytes, want %d", len(over), tc.cap+1)
			}
			w := do(tc.path, tc.ctype, over, tc.name)
			if w.Code != http.StatusRequestEntityTooLarge || errorCode(t, w) != "too_large" {
				t.Fatalf("over cap: status %d body %.200s, want 413 too_large", w.Code, w.Body.String())
			}
			// The same tenant's one token is still there: the at-cap body
			// is admitted and served.
			w = do(tc.path, tc.ctype, padTo(tc.format, tc.cap), tc.name)
			if w.Code != http.StatusOK {
				t.Fatalf("at cap: status %d body %.200s, want 200", w.Code, w.Body.String())
			}
		})
	}

	st := s.Stats()
	if st.BadRequests != 3 || st.RateLimited != 0 {
		t.Fatalf("BadRequests = %d, RateLimited = %d; want 3 and 0", st.BadRequests, st.RateLimited)
	}
	if st.Inserts != 1 || st.RowsInserted != 1 {
		t.Fatalf("Inserts = %d, RowsInserted = %d; want only the at-cap row", st.Inserts, st.RowsInserted)
	}
	if after := countMovies("count-after"); after != before+1 {
		t.Fatalf("movie count %v after the cap tests, want %v", after, before+1)
	}
}

// TestKeywordCap: a search of more keywords than the cap is refused with a
// typed 400 before admission, so it is quick and spends no tenant token;
// a search exactly at the cap (8 keywords matching nothing, so the
// pipeline stays cheap) is admitted on that same token.
func TestKeywordCap(t *testing.T) {
	s, _ := newGateServer(t, false, serve.Options{TenantRate: 0.001, TenantBurst: 1})
	hdr := map[string]string{serve.TenantHeader: "wordy"}
	words := make([]string, 10000)
	for i := range words {
		words[i] = fmt.Sprintf("zqx%d", i)
	}
	started := time.Now()
	w := doSearch(s, strings.Join(words, " "), hdr)
	if w.Code != http.StatusBadRequest || errorCode(t, w) != "too_many_keywords" {
		t.Fatalf("10000 keywords: status %d body %.200s, want 400 too_many_keywords", w.Code, w.Body.String())
	}
	if el := time.Since(started); el > 2*time.Second {
		t.Fatalf("10000-keyword rejection took %v", el)
	}
	if w := doSearch(s, strings.Join(words[:8], " "), hdr); w.Code != http.StatusOK {
		t.Fatalf("8 keywords: status %d body %.200s, want 200", w.Code, w.Body.String())
	}
	st := s.Stats()
	if st.BadRequests != 1 || st.RateLimited != 0 || st.Searches != 1 {
		t.Fatalf("BadRequests = %d, RateLimited = %d, Searches = %d; want 1, 0, 1",
			st.BadRequests, st.RateLimited, st.Searches)
	}
}

func TestRateLimitTyped(t *testing.T) {
	s, _ := newGateServer(t, false, serve.Options{TenantRate: 0.5, TenantBurst: 1})

	if w := doSearch(s, testQuery, map[string]string{serve.TenantHeader: "miner"}); w.Code != http.StatusOK {
		t.Fatalf("first request: code %d body %s", w.Code, w.Body.String())
	}
	w := doSearch(s, testQuery, map[string]string{serve.TenantHeader: "miner"})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("second request: code %d, want 429", w.Code)
	}
	if code := errorCode(t, w); code != "rate_limited" {
		t.Fatalf("error code %q, want rate_limited", code)
	}
	if ra := w.Header().Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want a positive estimate", ra)
	}
	// One tenant's empty bucket must not starve another's.
	if w := doSearch(s, testQuery, map[string]string{serve.TenantHeader: "analyst"}); w.Code != http.StatusOK {
		t.Fatalf("other tenant: code %d body %s", w.Code, w.Body.String())
	}
	if st := s.Stats(); st.RateLimited != 1 {
		t.Fatalf("RateLimited = %d, want 1", st.RateLimited)
	}
}

func TestOverloadShedsTyped(t *testing.T) {
	// One execution slot plus one admitted waiter: the third concurrent
	// request is past MaxConcurrent+MaxQueue and must shed.
	s, g := newGateServer(t, true, serve.Options{MaxConcurrent: 1, MaxQueue: 1, TenantRate: -1})

	first := make(chan *httptest.ResponseRecorder, 1)
	go func() { first <- doSearch(s, testQuery, nil) }()
	<-g.entered // the first search is inside the engine, holding the slot

	second := make(chan *httptest.ResponseRecorder, 1)
	go func() { second <- doSearch(s, "spielberg thriller", nil) }()
	waitFor(t, func() bool { return s.Stats().Requests >= 2 })
	// Give the second request time to enter the slot queue.
	time.Sleep(50 * time.Millisecond)

	w := doSearch(s, "lucas action", nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("third request: code %d body %s, want 503", w.Code, w.Body.String())
	}
	if code := errorCode(t, w); code != "overloaded" {
		t.Fatalf("error code %q, want overloaded", code)
	}
	if ra := w.Header().Get("Retry-After"); ra == "" {
		t.Fatal("503 without Retry-After")
	}

	g.close()
	if w := <-first; w.Code != http.StatusOK {
		t.Fatalf("gated request after release: code %d body %s", w.Code, w.Body.String())
	}
	if w := <-second; w.Code != http.StatusOK {
		t.Fatalf("queued request after release: code %d body %s", w.Code, w.Body.String())
	}
	if st := s.Stats(); st.Shed != 1 {
		t.Fatalf("Shed = %d, want 1", st.Shed)
	}
}

func TestDeadlineTyped(t *testing.T) {
	s, g := newGateServer(t, true, serve.Options{TenantRate: -1})
	defer g.close()

	start := time.Now()
	w := doSearch(s, testQuery, map[string]string{serve.DeadlineHeader: "50"})
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("deadline response took %v, want prompt", elapsed)
	}
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("code %d body %s, want 504", w.Code, w.Body.String())
	}
	if code := errorCode(t, w); code != "deadline_exceeded" {
		t.Fatalf("error code %q, want deadline_exceeded", code)
	}
	if st := s.Stats(); st.DeadlineExceeded != 1 {
		t.Fatalf("DeadlineExceeded = %d, want 1", st.DeadlineExceeded)
	}
}

func TestCoalescing(t *testing.T) {
	const n = 5
	s, g := newGateServer(t, true, serve.Options{TenantRate: -1, MaxConcurrent: 2})

	results := make(chan *httptest.ResponseRecorder, n)
	for i := 0; i < n; i++ {
		go func() { results <- doSearch(s, testQuery, nil) }()
	}
	<-g.entered // a leader holds the gate inside the engine
	// Wait until all n handlers have at least entered the request path,
	// then a beat more so the followers reach the singleflight table.
	waitFor(t, func() bool { return s.Stats().Requests >= n })
	time.Sleep(100 * time.Millisecond)
	g.close()

	coalesced := 0
	for i := 0; i < n; i++ {
		w := <-results
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: code %d body %s", i, w.Code, w.Body.String())
		}
		var res struct {
			Coalesced bool `json:"coalesced"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if res.Coalesced {
			coalesced++
		}
	}
	st := s.Stats()
	if st.Searches+st.Coalesced != n {
		t.Fatalf("Searches %d + Coalesced %d != %d requests", st.Searches, st.Coalesced, n)
	}
	if st.Searches != 1 || st.Coalesced != n-1 {
		t.Fatalf("Searches = %d, Coalesced = %d; want 1 engine run serving %d followers", st.Searches, st.Coalesced, n-1)
	}
	if uint64(coalesced) != st.Coalesced {
		t.Fatalf("%d responses marked coalesced, stats say %d", coalesced, st.Coalesced)
	}
}

// TestServeSmoke is the `make serve-smoke` entry point: boot the server
// on a real listener, fire a short open-loop burst from a tenant whose
// bucket cannot sustain it, and check the shed traffic is typed while an
// interactive tenant rides through untouched.
func TestServeSmoke(t *testing.T) {
	s, _ := newGateServer(t, false, serve.Options{
		TenantRate:  2,
		TenantBurst: 3,
		MaxQueue:    8,
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s}
	go hs.Serve(l)
	defer hs.Close()
	base := "http://" + l.Addr().String()

	get := func(tenant, q string) (*http.Response, error) {
		req, err := http.NewRequest(http.MethodGet, base+"/v1/search?q="+strings.ReplaceAll(q, " ", "+"), nil)
		if err != nil {
			return nil, err
		}
		req.Header.Set(serve.TenantHeader, tenant)
		return http.DefaultClient.Do(req)
	}

	// Open-loop burst: 12 requests at ~100/s from a bucket refilling at 2/s
	// with burst 3 — most of it must come back as typed 429s.
	const burst = 12
	var wg sync.WaitGroup
	codes := make(chan int, burst)
	bodies := make(chan string, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := get("bulk", testQuery)
			if err != nil {
				t.Errorf("burst request: %v", err)
				return
			}
			defer resp.Body.Close()
			var body struct {
				Error string `json:"error"`
			}
			_ = json.NewDecoder(resp.Body).Decode(&body)
			codes <- resp.StatusCode
			bodies <- body.Error
		}()
		time.Sleep(10 * time.Millisecond)
	}
	wg.Wait()
	close(codes)
	close(bodies)

	var ok200, limited int
	for code := range codes {
		switch code {
		case http.StatusOK:
			ok200++
		case http.StatusTooManyRequests:
			limited++
		default:
			t.Fatalf("unexpected status %d in burst", code)
		}
	}
	for e := range bodies {
		if e != "" && e != "rate_limited" {
			t.Fatalf("unexpected error code %q in burst", e)
		}
	}
	if limited == 0 {
		t.Fatal("burst of 12 at 100/s against a 2/s bucket saw zero 429s")
	}
	if ok200 == 0 {
		t.Fatal("burst admitted nothing; the bucket's burst capacity should pass a few")
	}

	// The interactive tenant is unaffected by the bulk tenant's debt.
	resp, err := get("interactive", testQuery)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("interactive tenant: code %d", resp.StatusCode)
	}

	st := s.Stats()
	if int(st.RateLimited) != limited {
		t.Fatalf("RateLimited = %d, burst observed %d", st.RateLimited, limited)
	}
	if st.Requests != burst+1 {
		t.Fatalf("Requests = %d, want %d", st.Requests, burst+1)
	}
}

// TestClientDisconnectCancels pins the serving tier's half of deadline
// propagation: a client that goes away mid-search cancels the engine call
// and is accounted as a 499, not an error.
func TestClientDisconnectCancels(t *testing.T) {
	s, g := newGateServer(t, true, serve.Options{TenantRate: -1})
	defer g.close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s}
	go hs.Serve(l)
	defer hs.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("http://%s/v1/search?q=spielberg+drama", l.Addr()), nil)
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errCh <- err
	}()
	<-g.entered // the search is blocked inside the engine
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("canceled request returned a response")
	}
	waitFor(t, func() bool { return s.Stats().ClientCanceled == 1 })
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// topExplanation is the executed top-1 of a /v1/search response.
type topExplanation struct {
	SQL     string   `json:"sql"`
	Columns []string `json:"columns"`
	Rows    [][]any  `json:"rows"`
}

// searchTop runs /v1/search?execute=1 at the given limit and returns the
// executed top explanation.
func searchTop(t *testing.T, s *serve.Server, q string, limit int) topExplanation {
	t.Helper()
	path := fmt.Sprintf("/v1/search?q=%s&execute=1&limit=%d", strings.ReplaceAll(q, " ", "+"), limit)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	if w.Code != http.StatusOK {
		t.Fatalf("%s: code %d body %s", path, w.Code, w.Body.String())
	}
	var res struct {
		Explanations []topExplanation `json:"explanations"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatalf("decode %s: %v", path, err)
	}
	if len(res.Explanations) == 0 {
		t.Fatalf("%s: no explanation", path)
	}
	return res.Explanations[0]
}

// TestSearchExecutesUnderLimit: the served top-1 runs under the request's
// limit, so the executor stops at the last row served, and the rows are
// the first limit rows of the whole result.
func TestSearchExecutesUnderLimit(t *testing.T) {
	s, _ := newGateServer(t, false, serve.Options{TenantRate: -1})
	const q = "drama"
	all := searchTop(t, s, q, 1<<20)
	const n = 3
	if len(all.Rows) <= n {
		t.Fatalf("top-1 of %q has %d rows; the test needs more than %d", q, len(all.Rows), n)
	}

	before := sql.Stats().LimitShortCircuits
	lim := searchTop(t, s, q, n)
	if sql.Stats().LimitShortCircuits == before {
		t.Errorf("limit=%d over %d rows did not stop the executor early", n, len(all.Rows))
	}
	if lim.SQL != all.SQL || fmt.Sprint(lim.Columns) != fmt.Sprint(all.Columns) ||
		fmt.Sprint(lim.Rows) != fmt.Sprint(all.Rows[:n]) {
		t.Errorf("limit=%d served %v %v, want the first %d rows %v", n, lim.Columns, lim.Rows, n, all.Rows[:n])
	}

	none := searchTop(t, s, q, 0)
	if len(none.Rows) != 0 || fmt.Sprint(none.Columns) != fmt.Sprint(all.Columns) {
		t.Errorf("limit=0 served columns %v and %d rows, want columns %v and none", none.Columns, len(none.Rows), all.Columns)
	}

	over := searchTop(t, s, q, len(all.Rows)+5)
	if fmt.Sprint(over.Rows) != fmt.Sprint(all.Rows) {
		t.Errorf("a limit above the result size served %d rows, want all %d", len(over.Rows), len(all.Rows))
	}
}

// TestLimitLeavesCachedExplanationAlone: the query cache hands every
// request a copy of the explanation that shares one statement, so
// executing it under a request's limit must not write to that statement.
// Concurrent searches at different limits (distinct coalescing keys, one
// cached statement) race on it under -race if it does.
func TestLimitLeavesCachedExplanationAlone(t *testing.T) {
	db := quest.BuildIMDB(quest.DatasetConfig{Seed: 42, Scale: 1})
	opts := quest.Defaults()
	opts.PruneEmpty = true
	eng := core.NewEngine(wrapper.NewFullAccessSource(db), opts)
	s := serve.New(eng, serve.Options{TenantRate: -1})
	exps, err := eng.Search(testQuery)
	if err != nil || len(exps) == 0 {
		t.Fatalf("search %q: %v, %d explanations", testQuery, err, len(exps))
	}
	top := exps[0]
	want := top.Stmt.SQL()

	var wg sync.WaitGroup
	for i := range 16 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			path := fmt.Sprintf("/v1/search?q=spielberg+drama&execute=1&limit=%d", i%4)
			w := httptest.NewRecorder()
			s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
			if w.Code != http.StatusOK {
				t.Errorf("%s: code %d body %s", path, w.Code, w.Body.String())
			}
		}()
	}
	wg.Wait()

	again, err := eng.Search(testQuery)
	if err != nil || len(again) == 0 || again[0].Stmt != top.Stmt {
		t.Fatalf("the repeated search should share the cached top statement (err %v)", err)
	}
	if got := top.Stmt.SQL(); got != want || top.SQL != want {
		t.Errorf("cached statement became %q (SQL field %q), want %q", got, top.SQL, want)
	}
}
