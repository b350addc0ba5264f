// Package serve is QUEST's front-door serving tier: an HTTP/JSON keyword
// search service over a core.Engine, carrying the production-traffic
// toolkit the engine itself stays agnostic of. It works identically over
// every deployment shape — a single-process engine, in-process hash
// partitions (quest.OpenSharded) or a remote shard fleet
// (quest.OpenRemote) — because it only speaks to core.Engine.
//
// Endpoints:
//
//	GET  /healthz    liveness ("ok")
//	GET  /v1/stats   per-request counters (Stats, JSON)
//	GET  /v1/search  ?q=keywords [&k=N] [&execute=1] [&limit=N]
//	POST /v1/search  same parameters as a form body
//	POST /v1/sql     {"sql": "SELECT ..."} or sql=... form body
//	POST /v1/insert  {"table": ..., "rows": [[...], ...]} row appends
//
// A search with execute=1 runs its top explanation under limit (default
// 100), so the executor stops at the last row served; /v1/sql runs its
// statement whole, because its row_count is the full count.
//
// Request headers:
//
//	X-Quest-Tenant       admission-control identity; "default" when absent
//	X-Quest-Deadline-Ms  per-request deadline in milliseconds, clamped to
//	                     Options.MaxDeadline (DefaultDeadline when absent)
//
// The deadline becomes a context.Context that propagates through
// engine search, PruneEmpty validation, the shard scatter-gather and the
// remote transport, so a request that gives up (client disconnect
// included — the server folds the connection context in) stops paying
// for shard work promptly.
//
// Admission control is a per-tenant token bucket (Options.TenantRate /
// TenantBurst): an empty bucket answers 429 with a Retry-After estimating
// when one token refills. Load shedding bounds the admitted requests in
// flight at MaxConcurrent + MaxQueue; past that the server answers 503
// with Retry-After rather than building an unbounded queue, so admitted
// p99 stays near the at-capacity tail under past-capacity arrival rates.
// Identical concurrent keyword searches coalesce into one engine call
// (singleflight) layered on the engine's own query cache, so a thundering
// herd on a cold key runs the pipeline once.
//
// Request bodies are capped (1 MiB for /v1/sql, 8 MiB for /v1/insert);
// a body past its cap is refused with a 413 before admission, so it
// spends no tenant token. A search of more than 8 keywords (after
// core.Tokenize) is refused the same way with a 400 too_many_keywords:
// the Steiner backward stage is exponential in the keyword count, and no
// deadline reaches it.
//
// Every typed failure is a JSON body {"error": code, "message": ...} with
// code one of bad_request, too_many_keywords, too_large, rate_limited,
// overloaded, deadline_exceeded, canceled, internal.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/relational"
)

// Request headers understood by the server.
const (
	TenantHeader   = "X-Quest-Tenant"
	DeadlineHeader = "X-Quest-Deadline-Ms"
)

// DefaultTenant is the admission identity of requests without a tenant
// header.
const DefaultTenant = "default"

// maxKeywords caps a search's keywords as serving policy: it bounds the
// forward stage's work and the size of the statements built from a query.
// The backward stage does not need it: an 8-keyword search on scale-1 IMDB
// takes a few milliseconds with every cache off.
const maxKeywords = 8

// StatusClientClosedRequest is the non-standard (nginx-convention) status
// code reported when the client went away before its response was ready.
// The client never sees it — it is gone — but the access side of the
// counters distinguishes "we timed out" from "they hung up".
const StatusClientClosedRequest = 499

// Request body caps, enforced before admission.
const (
	maxSQLBody    = 1 << 20 // /v1/sql
	maxInsertBody = 8 << 20 // /v1/insert
)

// Options tunes a Server. The zero value selects the documented defaults.
type Options struct {
	// DefaultDeadline applies to requests without a deadline header.
	// Default 5s.
	DefaultDeadline time.Duration
	// MaxDeadline clamps the per-request deadline header — a client
	// cannot opt out of deadlines, only shorten them. Default 30s.
	MaxDeadline time.Duration
	// MaxConcurrent bounds the searches/SQL executions running at once.
	// 0 selects runtime.GOMAXPROCS(0).
	MaxConcurrent int
	// MaxQueue bounds how many admitted requests may wait for an
	// execution slot beyond the MaxConcurrent running ones; an arrival
	// past MaxConcurrent+MaxQueue is shed with a typed 503. 0 selects 64;
	// negative disables shedding (unbounded queue).
	MaxQueue int
	// TenantRate is each tenant's token-bucket refill rate in requests
	// per second. 0 selects 50; negative disables rate limiting.
	TenantRate float64
	// TenantBurst is the bucket capacity (requests that may land at
	// once). 0 selects max(1, 2*TenantRate).
	TenantBurst int
}

func (o Options) withDefaults() Options {
	if o.DefaultDeadline <= 0 {
		o.DefaultDeadline = 5 * time.Second
	}
	if o.MaxDeadline <= 0 {
		o.MaxDeadline = 30 * time.Second
	}
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if o.MaxQueue == 0 {
		o.MaxQueue = 64
	}
	if o.TenantRate == 0 {
		o.TenantRate = 50
	}
	if o.TenantBurst <= 0 {
		b := int(2 * o.TenantRate)
		if b < 1 {
			b = 1
		}
		o.TenantBurst = b
	}
	return o
}

// Stats snapshots the server's per-request counters — plain uint64
// fields read atomically, the same flat shape as transport.ClientStats,
// exposed on /v1/stats.
type Stats struct {
	Requests   uint64 // HTTP requests received across all endpoints
	Searches   uint64 // keyword searches executed (coalesce leaders)
	SQLQueries uint64 // /v1/sql statements executed
	Inserts    uint64 // /v1/insert requests executed
	Coalesced  uint64 // searches served by another request's in-flight result

	RateLimited      uint64 // 429s: tenant bucket empty
	Shed             uint64 // 503s: admitted-load bound exceeded
	DeadlineExceeded uint64 // 504s: request deadline fired
	ClientCanceled   uint64 // 499s: client went away mid-request
	BadRequests      uint64 // 400s (too_many_keywords included) and 413s (body over its cap)
	Errors           uint64 // 500s

	RowsReturned uint64 // data rows written into responses
	RowsInserted uint64 // data rows appended via /v1/insert
	QueueWaitNs  uint64 // total ns admitted requests waited for a slot
	ExecNs       uint64 // total ns spent executing searches and SQL
}

type counters struct {
	requests, searches, sqlQueries, coalesced atomic.Uint64
	rateLimited, shed, deadlineExceeded       atomic.Uint64
	clientCanceled, badRequests, errors       atomic.Uint64
	rowsReturned, queueWaitNs, execNs         atomic.Uint64
	inserts, rowsInserted                     atomic.Uint64
}

// tenantBucket is one tenant's token bucket; the server's tenant map is
// guarded by tmu, and each bucket is only touched under it.
type tenantBucket struct {
	tokens float64
	last   time.Time
}

// flightCall is one in-flight coalesced search: followers wait on done
// and share res/err.
type flightCall struct {
	done chan struct{}
	res  *searchPayload
	err  error
}

// Server is the HTTP serving tier over one engine. It implements
// http.Handler; Close is not needed (the server holds no goroutines —
// lifecycle belongs to the http.Server around it).
type Server struct {
	eng *core.Engine
	opt Options
	mux *http.ServeMux

	// inflight counts admitted requests (queued + executing); sem holds
	// the MaxConcurrent execution slots.
	inflight atomic.Int64
	sem      chan struct{}

	tmu     sync.Mutex
	tenants map[string]*tenantBucket

	fmu    sync.Mutex
	flight map[string]*flightCall

	c counters
}

// New builds a Server over an engine.
func New(eng *core.Engine, opt Options) *Server {
	s := &Server{
		eng:     eng,
		opt:     opt.withDefaults(),
		tenants: map[string]*tenantBucket{},
		flight:  map[string]*flightCall{},
	}
	s.sem = make(chan struct{}, s.opt.MaxConcurrent)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/search", s.handleSearch)
	s.mux.HandleFunc("/v1/sql", s.handleSQL)
	s.mux.HandleFunc("/v1/insert", s.handleInsert)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	return Stats{
		Requests:   s.c.requests.Load(),
		Searches:   s.c.searches.Load(),
		SQLQueries: s.c.sqlQueries.Load(),
		Inserts:    s.c.inserts.Load(),
		Coalesced:  s.c.coalesced.Load(),

		RateLimited:      s.c.rateLimited.Load(),
		Shed:             s.c.shed.Load(),
		DeadlineExceeded: s.c.deadlineExceeded.Load(),
		ClientCanceled:   s.c.clientCanceled.Load(),
		BadRequests:      s.c.badRequests.Load(),
		Errors:           s.c.errors.Load(),

		RowsReturned: s.c.rowsReturned.Load(),
		RowsInserted: s.c.rowsInserted.Load(),
		QueueWaitNs:  s.c.queueWaitNs.Load(),
		ExecNs:       s.c.execNs.Load(),
	}
}

// ---- typed error responses ----

type errorBody struct {
	Error   string `json:"error"`
	Message string `json:"message,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func (s *Server) failBadRequest(w http.ResponseWriter, msg string) {
	s.c.badRequests.Add(1)
	writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad_request", Message: msg})
}

// failBody answers a request whose body could not be read: too_large
// (413) when the body ran past its cap, bad_request otherwise.
func (s *Server) failBody(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if !errors.As(err, &tooLarge) {
		s.failBadRequest(w, err.Error())
		return
	}
	s.c.badRequests.Add(1)
	writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: "too_large",
		Message: fmt.Sprintf("request body over its %d-byte cap", tooLarge.Limit)})
}

// failCtx maps a context error to its typed response: deadline_exceeded
// when the server-imposed deadline fired, canceled when the client went
// away first.
func (s *Server) failCtx(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		s.c.deadlineExceeded.Add(1)
		writeJSON(w, http.StatusGatewayTimeout, errorBody{Error: "deadline_exceeded", Message: "request deadline exceeded"})
		return
	}
	s.c.clientCanceled.Add(1)
	writeJSON(w, StatusClientClosedRequest, errorBody{Error: "canceled", Message: "client closed request"})
}

// ---- admission ----

func tenantOf(r *http.Request) string {
	if t := r.Header.Get(TenantHeader); t != "" {
		return t
	}
	return DefaultTenant
}

// takeToken debits one token from the tenant's bucket, reporting how long
// until a token refills when it cannot. Tenants materialize lazily with a
// full bucket. The map is never evicted — tenant identities are an
// operator-controlled set, not attacker-controlled input, and one bucket
// is two words.
func (s *Server) takeToken(tenant string) (time.Duration, bool) {
	rate, burst := s.opt.TenantRate, float64(s.opt.TenantBurst)
	if rate < 0 {
		return 0, true
	}
	now := time.Now()
	s.tmu.Lock()
	defer s.tmu.Unlock()
	b := s.tenants[tenant]
	if b == nil {
		b = &tenantBucket{tokens: burst, last: now}
		s.tenants[tenant] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * rate
	if b.tokens > burst {
		b.tokens = burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return 0, true
	}
	wait := time.Duration((1 - b.tokens) / rate * float64(time.Second))
	return wait, false
}

func retryAfterSeconds(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// admit runs the admission pipeline shared by search and SQL: tenant
// token bucket, then the admitted-load bound. On success the caller owns
// one inflight slot and must call the returned release.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	wait, allowed := s.takeToken(tenantOf(r))
	if !allowed {
		s.c.rateLimited.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds(wait))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: "rate_limited",
			Message: fmt.Sprintf("tenant %q over its request rate", tenantOf(r))})
		return nil, false
	}
	if s.opt.MaxQueue >= 0 {
		limit := int64(s.opt.MaxConcurrent + s.opt.MaxQueue)
		if s.inflight.Add(1) > limit {
			s.inflight.Add(-1)
			s.c.shed.Add(1)
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "overloaded",
				Message: fmt.Sprintf("server at its admitted-load bound (%d)", limit)})
			return nil, false
		}
	} else {
		s.inflight.Add(1)
	}
	return func() { s.inflight.Add(-1) }, true
}

// requestContext derives the request's execution context: the connection
// context (client disconnect cancels it) bounded by the header deadline
// clamped to MaxDeadline.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	d := s.opt.DefaultDeadline
	if h := r.Header.Get(DeadlineHeader); h != "" {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil || ms <= 0 {
			return nil, nil, fmt.Errorf("bad %s header %q: want a positive integer of milliseconds", DeadlineHeader, h)
		}
		d = time.Duration(ms) * time.Millisecond
	}
	if d > s.opt.MaxDeadline {
		d = s.opt.MaxDeadline
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

// acquireSlot waits for an execution slot or the context, whichever comes
// first, feeding the queue-wait counter.
func (s *Server) acquireSlot(ctx context.Context) (func(), error) {
	enq := time.Now()
	select {
	case s.sem <- struct{}{}:
		s.c.queueWaitNs.Add(uint64(time.Since(enq)))
		return func() { <-s.sem }, nil
	case <-ctx.Done():
		s.c.queueWaitNs.Add(uint64(time.Since(enq)))
		return nil, ctx.Err()
	}
}

// ---- handlers ----

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.c.requests.Add(1)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.c.requests.Add(1)
	writeJSON(w, http.StatusOK, s.Stats())
}

// searchPayload is /v1/search's response body.
type searchPayload struct {
	Query        string            `json:"query"`
	Keywords     []string          `json:"keywords"`
	Explanations []explanationJSON `json:"explanations"`
	Coalesced    bool              `json:"coalesced,omitempty"`
	ElapsedMs    float64           `json:"elapsed_ms"`
}

type explanationJSON struct {
	Rank    int      `json:"rank"`
	Belief  float64  `json:"belief"`
	SQL     string   `json:"sql"`
	Columns []string `json:"columns,omitempty"`
	Rows    [][]any  `json:"rows,omitempty"`
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	s.c.requests.Add(1)
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		w.Header().Set("Allow", "GET, POST")
		s.failBadRequest(w, "use GET or POST")
		return
	}
	q := strings.TrimSpace(r.FormValue("q"))
	if q == "" {
		s.failBadRequest(w, "missing q parameter (keyword query)")
		return
	}
	keywords := core.Tokenize(q)
	if len(keywords) > maxKeywords {
		s.c.badRequests.Add(1)
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "too_many_keywords",
			Message: fmt.Sprintf("%d keywords, at most %d", len(keywords), maxKeywords)})
		return
	}
	k, err := formInt(r, "k", 0)
	if err != nil {
		s.failBadRequest(w, err.Error())
		return
	}
	limit, err := formInt(r, "limit", 100)
	if err != nil {
		s.failBadRequest(w, err.Error())
		return
	}
	execute := formBool(r, "execute")

	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()

	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		s.failBadRequest(w, err.Error())
		return
	}
	defer cancel()

	res, coalesced, err := s.searchCoalesced(ctx, q, keywords, k, execute, limit)
	if err != nil {
		if ctx.Err() != nil {
			s.failCtx(w, ctx.Err())
			return
		}
		s.c.errors.Add(1)
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "internal", Message: err.Error()})
		return
	}
	if coalesced {
		s.c.coalesced.Add(1)
		cp := *res
		cp.Coalesced = true
		res = &cp
	}
	for _, ex := range res.Explanations {
		s.c.rowsReturned.Add(uint64(len(ex.Rows)))
	}
	writeJSON(w, http.StatusOK, res)
}

// coalesceKey identifies a search result shape exactly: the tokenized
// keywords plus every response-shaping parameter.
func coalesceKey(keywords []string, k int, execute bool, limit int) string {
	return strings.Join(keywords, "\x1f") + "\x00" + strconv.Itoa(k) + "\x00" +
		strconv.FormatBool(execute) + "\x00" + strconv.Itoa(limit)
}

// searchCoalesced collapses identical concurrent searches into one
// engine call. The leader runs under its own request context; when the
// leader is cancelled mid-flight its waiters do not inherit the failure —
// each waiter whose own context is still live retries the loop and the
// first one in becomes the new leader.
func (s *Server) searchCoalesced(ctx context.Context, q string, keywords []string, k int, execute bool, limit int) (*searchPayload, bool, error) {
	if len(keywords) == 0 {
		return nil, false, fmt.Errorf("query %q has no keywords", q)
	}
	key := coalesceKey(keywords, k, execute, limit)
	for {
		s.fmu.Lock()
		if c := s.flight[key]; c != nil {
			s.fmu.Unlock()
			select {
			case <-c.done:
				if c.err != nil && isCtxErr(c.err) && ctx.Err() == nil {
					// The leader's client gave up; this waiter is still
					// live — take over.
					continue
				}
				return c.res, true, c.err
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
		c := &flightCall{done: make(chan struct{})}
		s.flight[key] = c
		s.fmu.Unlock()
		c.res, c.err = s.runSearch(ctx, q, keywords, k, execute, limit)
		s.fmu.Lock()
		delete(s.flight, key)
		s.fmu.Unlock()
		close(c.done)
		return c.res, false, c.err
	}
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// runSearch waits for an execution slot, runs the engine pipeline and —
// when asked — executes the top-ranked explanation's SQL for its tuples,
// under the request's limit so the executor stops at the last row served.
func (s *Server) runSearch(ctx context.Context, q string, keywords []string, k int, execute bool, limit int) (*searchPayload, error) {
	releaseSlot, err := s.acquireSlot(ctx)
	if err != nil {
		return nil, err
	}
	defer releaseSlot()
	started := time.Now()
	defer func() { s.c.execNs.Add(uint64(time.Since(started))) }()
	s.c.searches.Add(1)
	exps, err := s.eng.SearchCtx(ctx, q)
	if err != nil {
		return nil, err
	}
	if k > 0 && k < len(exps) {
		exps = exps[:k]
	}
	out := &searchPayload{Query: q, Keywords: keywords, Explanations: make([]explanationJSON, 0, len(exps))}
	for i, ex := range exps {
		ej := explanationJSON{Rank: i + 1, Belief: ex.Belief, SQL: ex.SQL}
		if execute && i == 0 {
			res, err := s.eng.ExecuteCtx(ctx, limited(ex, limit))
			if err != nil {
				return nil, err
			}
			ej.Columns = res.Columns
			ej.Rows = encodeRows(res.Rows, limit)
		}
		out.Explanations = append(out.Explanations, ej)
	}
	out.ElapsedMs = float64(time.Since(started)) / float64(time.Millisecond)
	return out, nil
}

// limited returns ex with a statement that yields at most limit rows.
// The query cache shares ex and its statement across requests, so a
// tighter limit goes on a copy of both; the SQL text stays ex.SQL.
func limited(ex *core.Explanation, limit int) *core.Explanation {
	if ex.Stmt.Limit >= 0 && ex.Stmt.Limit <= limit {
		return ex
	}
	cp := *ex
	cp.Stmt = ex.Stmt.Clone()
	cp.Stmt.Limit = limit
	return &cp
}

// sqlPayload is /v1/sql's response body.
type sqlPayload struct {
	Columns   []string `json:"columns"`
	Rows      [][]any  `json:"rows"`
	RowCount  int      `json:"row_count"`
	ElapsedMs float64  `json:"elapsed_ms"`
}

func (s *Server) handleSQL(w http.ResponseWriter, r *http.Request) {
	s.c.requests.Add(1)
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		s.failBadRequest(w, "use POST")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxSQLBody)
	query, err := sqlOf(r)
	if err != nil {
		s.failBody(w, err)
		return
	}
	limit, err := formInt(r, "limit", 1000)
	if err != nil {
		s.failBadRequest(w, err.Error())
		return
	}

	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()

	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		s.failBadRequest(w, err.Error())
		return
	}
	defer cancel()
	releaseSlot, err := s.acquireSlot(ctx)
	if err != nil {
		s.failCtx(w, err)
		return
	}
	defer releaseSlot()

	started := time.Now()
	s.c.sqlQueries.Add(1)
	res, err := s.eng.RunSQL(ctx, query)
	s.c.execNs.Add(uint64(time.Since(started)))
	if err != nil {
		if ctx.Err() != nil {
			s.failCtx(w, ctx.Err())
			return
		}
		// A parse or execution rejection is the client's statement, not a
		// server fault.
		s.failBadRequest(w, err.Error())
		return
	}
	rows := encodeRows(res.Rows, limit)
	s.c.rowsReturned.Add(uint64(len(rows)))
	writeJSON(w, http.StatusOK, &sqlPayload{
		Columns:   res.Columns,
		Rows:      rows,
		RowCount:  len(res.Rows),
		ElapsedMs: float64(time.Since(started)) / float64(time.Millisecond),
	})
}

// insertPayload is /v1/insert's response body.
type insertPayload struct {
	Table     string  `json:"table"`
	Inserted  int     `json:"inserted"`
	ElapsedMs float64 `json:"elapsed_ms"`
}

// handleInsert appends rows through the engine's write face — the
// serving tier's half of the mixed read/write hot path. Each insert
// bumps the written table's version, which is what invalidates exactly
// the engine query-cache and plan-cache entries that read it; nothing
// here flushes any cache explicitly.
func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	s.c.requests.Add(1)
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		s.failBadRequest(w, "use POST")
		return
	}
	var body struct {
		Table string  `json:"table"`
		Rows  [][]any `json:"rows"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxInsertBody))
	// Numbers arrive as json.Number so integer keys survive without a
	// float64 round-trip.
	dec.UseNumber()
	if err := dec.Decode(&body); err != nil {
		s.failBody(w, fmt.Errorf("bad JSON body: %w", err))
		return
	}
	if strings.TrimSpace(body.Table) == "" {
		s.failBadRequest(w, `missing "table" field`)
		return
	}
	if len(body.Rows) == 0 {
		s.failBadRequest(w, `missing "rows" field`)
		return
	}

	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		s.failBadRequest(w, err.Error())
		return
	}
	defer cancel()
	// Writes take an execution slot like queries: they contend for the
	// same table locks, so admitting unbounded writers would starve the
	// read path the slots exist to protect.
	releaseSlot, err := s.acquireSlot(ctx)
	if err != nil {
		s.failCtx(w, err)
		return
	}
	defer releaseSlot()

	started := time.Now()
	s.c.inserts.Add(1)
	inserted := 0
	for i, raw := range body.Rows {
		row, err := decodeInsertRow(raw)
		if err == nil {
			err = s.eng.Insert(body.Table, row)
		}
		if err != nil {
			s.c.execNs.Add(uint64(time.Since(started)))
			s.c.rowsInserted.Add(uint64(inserted))
			// Earlier rows of the batch stay inserted; the error names
			// the row that failed so the client can resume after it.
			s.failBadRequest(w, fmt.Sprintf("row %d: %v (%d rows inserted before the failure)", i, err, inserted))
			return
		}
		inserted++
	}
	s.c.execNs.Add(uint64(time.Since(started)))
	s.c.rowsInserted.Add(uint64(inserted))
	writeJSON(w, http.StatusOK, insertPayload{
		Table:     body.Table,
		Inserted:  inserted,
		ElapsedMs: float64(time.Since(started)) / float64(time.Millisecond),
	})
}

// decodeInsertRow maps JSON-native values onto relational ones: null,
// bool, string, and json.Number (integer when it parses exactly, float
// otherwise). Nested arrays/objects are rejected.
func decodeInsertRow(raw []any) (relational.Row, error) {
	row := make(relational.Row, len(raw))
	for j, v := range raw {
		switch x := v.(type) {
		case nil:
			row[j] = relational.Null()
		case bool:
			row[j] = relational.Bool(x)
		case string:
			row[j] = relational.String_(x)
		case json.Number:
			if n, err := strconv.ParseInt(string(x), 10, 64); err == nil {
				row[j] = relational.Int(n)
			} else {
				f, err := x.Float64()
				if err != nil {
					return nil, fmt.Errorf("column %d: bad number %q", j, x)
				}
				row[j] = relational.Float(f)
			}
		default:
			return nil, fmt.Errorf("column %d: unsupported JSON value %T (want null, bool, string or number)", j, v)
		}
	}
	return row, nil
}

// sqlOf extracts the statement from a JSON body ({"sql": ...}) or a form
// field. A body read error (the cap included) is returned wrapped.
func sqlOf(r *http.Request) (string, error) {
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "application/json") {
		var body struct {
			SQL string `json:"sql"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			return "", fmt.Errorf("bad JSON body: %w", err)
		}
		if strings.TrimSpace(body.SQL) == "" {
			return "", fmt.Errorf(`missing "sql" field`)
		}
		return body.SQL, nil
	}
	// FormValue drops parse errors; surface the one that matters, an
	// over-cap form body.
	var tooLarge *http.MaxBytesError
	if err := r.ParseForm(); errors.As(err, &tooLarge) {
		return "", err
	}
	q := strings.TrimSpace(r.FormValue("sql"))
	if q == "" {
		return "", fmt.Errorf("missing sql parameter")
	}
	return q, nil
}

// ---- small helpers ----

func formInt(r *http.Request, name string, def int) (int, error) {
	v := r.FormValue(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad %s parameter %q: want a non-negative integer", name, v)
	}
	return n, nil
}

func formBool(r *http.Request, name string) bool {
	switch strings.ToLower(r.FormValue(name)) {
	case "1", "true", "yes":
		return true
	}
	return false
}

// encodeRows renders result rows as JSON-native values (limit caps the
// rendered rows; 0 means none, negative means all).
func encodeRows(rows []relational.Row, limit int) [][]any {
	if limit >= 0 && limit < len(rows) {
		rows = rows[:limit]
	}
	out := make([][]any, len(rows))
	for i, row := range rows {
		vals := make([]any, len(row))
		for j, v := range row {
			vals[j] = encodeValue(v)
		}
		out[i] = vals
	}
	return out
}

func encodeValue(v relational.Value) any {
	switch v.Type() {
	case relational.TypeNull:
		return nil
	case relational.TypeInt:
		return v.AsInt()
	case relational.TypeFloat:
		return v.AsFloat()
	case relational.TypeBool:
		return v.AsBool()
	default:
		return v.AsString()
	}
}
