package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/cache"
	"repro/internal/ds"
	"repro/internal/hmm"
	"repro/internal/ontology"
	"repro/internal/relational"
	"repro/internal/sql"
	"repro/internal/steiner"
	"repro/internal/wrapper"
)

// Uncertainty carries the four Dempster–Shafer ignorance degrees of
// Algorithm 1: OCap and OCf weight the two forward operating modes, OC and
// OI weight the forward and backward approaches in the final combination.
// Each value is the mass committed to "this source may be wrong" — raising
// OCf, for example, makes the feedback mode count less.
type Uncertainty struct {
	OCap float64 // a-priori configurations
	OCf  float64 // feedback configurations
	OC   float64 // combined configurations (forward approach)
	OI   float64 // interpretations (backward approach)
}

// DefaultUncertainty returns the cold-start setting the paper recommends:
// with little feedback available the feedback mode is unreliable, so OCf
// starts high and OCap low.
func DefaultUncertainty() Uncertainty {
	return Uncertainty{OCap: 0.2, OCf: 0.8, OC: 0.3, OI: 0.3}
}

// AdaptUncertainty implements the paper's adaptation rule ("as the amount
// of feedbacks increases, the related parameter OCf must be incremented
// [trusted more]; ... when QUEST is used to query a new database, little
// feedback is available [so] OCap must be increased"): the feedback mode's
// ignorance decays exponentially with the number of validated searches
// while the a-priori mode's ignorance grows toward a ceiling. OC and OI
// are left untouched.
//
// With no feedback the result matches DefaultUncertainty; after ~10
// validated searches the two modes trade places.
func AdaptUncertainty(u Uncertainty, feedbackCount int) Uncertainty {
	if feedbackCount < 0 {
		feedbackCount = 0
	}
	decay := math.Exp(-float64(feedbackCount) / 5)
	u.OCf = 0.1 + 0.7*decay  // 0.8 cold → 0.1 fully warm
	u.OCap = 0.8 - 0.6*decay // 0.2 cold → 0.8 fully warm
	return u
}

// Options configures an Engine.
type Options struct {
	// K is the number of explanations returned (and the k used for the
	// intermediate top-k decodings), Algorithm 1's "maximum number of
	// results".
	K int
	// Uncertainty holds the DS ignorance degrees.
	Uncertainty Uncertainty
	// Backward tunes the backward module (MI weights, dedup).
	Backward BackwardOptions
	// Thesaurus provides ontology evidence; nil uses an empty thesaurus.
	Thesaurus *ontology.Thesaurus
	// UseLike makes the query builder emit LIKE instead of MATCH.
	UseLike bool
	// DisableApriori/DisableFeedback turn off one forward operating mode
	// (experiment E2/E5 ablations; both false in normal operation).
	DisableApriori  bool
	DisableFeedback bool
	// PruneEmpty executes each candidate explanation and drops those whose
	// SQL returns no tuples, re-normalizing beliefs over the survivors.
	// This is an extension beyond the paper (which relies on MI weights
	// alone to avoid empty join paths): it trades one query execution per
	// candidate for a guarantee the user never sees an empty answer.
	// Requires a source with an execution endpoint. The validation queries
	// run concurrently only when the source declares its Execute safe for
	// concurrent use (wrapper.ConcurrentExecutor — true for the built-in
	// sources) or, for sources that don't implement that marker, when
	// Parallelism is explicitly set above 1; in every other case the
	// engine serializes its Execute calls, so custom endpoints are never
	// raced unless they opt in.
	PruneEmpty bool
	// Parallelism bounds the worker goroutines used by the engine's fan-out
	// points: per-terminal-set Steiner decoding in Interpretations and
	// candidate SQL execution in PruneEmpty. Both stages preserve the exact
	// result order of the sequential path, and the budget is shared across
	// all concurrent calls on the engine (P in-flight searches still run at
	// most Parallelism workers in total). 0 selects runtime.GOMAXPROCS(0);
	// 1 forces sequential execution. Setting a value above 1 also opts a
	// non-ConcurrentExecutor source into parallel PruneEmpty validation —
	// only do that when its Execute is goroutine-safe.
	Parallelism int
	// QueryCacheSize caps the engine's query→explanations LRU (entries).
	// Entries are keyed on the tokenized keywords plus the engine's cache
	// epoch; any state change that could alter results (feedback,
	// uncertainty updates) bumps the epoch, making stale entries
	// unreachable until they age out of the LRU. All other result-shaping
	// options are immutable after construction — any future run-time
	// setter for one of them must bump the epoch too. 0 selects
	// DefaultQueryCacheSize; a negative value disables the cache.
	QueryCacheSize int
}

// DefaultQueryCacheSize is the query-cache capacity used when
// Options.QueryCacheSize is 0.
const DefaultQueryCacheSize = 256

// DefaultOptions returns the standard engine configuration.
func DefaultOptions() Options {
	return Options{
		K:           10,
		Uncertainty: DefaultUncertainty(),
		Backward:    DefaultBackwardOptions(),
	}
}

// Engine is the assembled QUEST system over one source.
//
// Engine is safe for concurrent use: any number of goroutines may call
// Search, Configurations, Interpretations, Explain and Execute while others
// call AddFeedback, AddNegativeFeedback, SetUncertainty or AutoAdapt.
// Mutations invalidate the query cache by bumping an internal epoch
// counter; in-flight searches complete against the state they started with.
type Engine struct {
	source   wrapper.Source
	forward  *Forward
	backward *Backward
	builder  *QueryBuilder

	// mu guards the mutable engine state below. The heavy pipeline stages
	// run outside the lock against the immutable modules.
	mu               sync.RWMutex
	opts             Options
	autoAdapt        bool
	negativeFeedback int
	// epoch counts result-affecting state changes; it is part of every
	// query-cache key, so a bump makes all previous entries unreachable.
	epoch uint64

	// queryCache maps (epoch, keywords) to the final ranked explanations
	// plus the per-table versions they were computed at; nil when disabled.
	// All other result-shaping options are immutable after construction
	// (only SetUncertainty mutates, and it bumps the epoch), so the
	// keywords plus the epoch identify a result exactly — modulo data
	// mutations, which are validated per entry against the versions of the
	// tables that entry actually touches (see cachedSearch), not with a
	// global flush.
	queryCache *cache.LRU[string, *cachedSearch]

	// workerSem bounds the total spawned fan-out workers across ALL
	// concurrent pipeline calls on this engine at Parallelism, so P
	// in-flight searches share one budget instead of spawning
	// P×Parallelism runnable goroutines. (Work that runs inline on a
	// caller's own goroutine — the workers<=1 path — is not counted.)
	workerSem chan struct{}

	// execSafe records whether the source declared Execute safe for
	// concurrent use; when false, the engine serializes its own Execute
	// calls through execMu so concurrent searches never race a custom
	// endpoint.
	execSafe bool
	execMu   sync.Mutex
}

// NewEngine wires the forward module, backward module and query builder for
// a source (the setup phase).
func NewEngine(src wrapper.Source, opts Options) *Engine {
	if opts.K <= 0 {
		opts.K = 10
	}
	thes := opts.Thesaurus
	if thes == nil {
		thes = ontology.NewThesaurus()
	}
	e := &Engine{
		source:   src,
		opts:     opts,
		forward:  NewForward(src, thes),
		backward: NewBackward(src, opts.Backward),
	}
	e.builder = NewQueryBuilder(src.Schema())
	e.builder.UseLike = opts.UseLike
	size := opts.QueryCacheSize
	if size == 0 {
		size = DefaultQueryCacheSize
	}
	e.queryCache = cache.New[string, *cachedSearch](size) // nil (disabled) when size < 0
	budget := opts.Parallelism
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	e.workerSem = make(chan struct{}, budget)
	if ce, ok := src.(wrapper.ConcurrentExecutor); ok {
		// A source that implements the marker knows its own endpoint; its
		// answer wins either way (an explicit false is not overridden by
		// Parallelism — use MetadataSource.SetConcurrentSafe for a safe
		// custom endpoint).
		e.execSafe = ce.ExecutesConcurrently()
	} else {
		// For sources that don't implement the marker, an explicit
		// Parallelism > 1 is the documented assertion that Execute
		// tolerates concurrent calls.
		e.execSafe = opts.Parallelism > 1
	}
	return e
}

// pipelineState is one consistent view of everything that shapes a search:
// the options (including uncertainties), the cache epoch they belong to,
// and the two forward models (immutable snapshots; training swaps pointers
// rather than mutating). Taken atomically under the engine lock — every
// engine mutator holds the write lock for its whole mutation — so a search
// running against one pipelineState cannot observe a half-applied change.
type pipelineState struct {
	opts     Options
	epoch    uint64
	apriori  *hmm.Model
	feedback *hmm.Model
}

// snapshot captures the current pipeline state. Lock order is e.mu → f.mu.
func (e *Engine) snapshot() pipelineState {
	e.mu.RLock()
	defer e.mu.RUnlock()
	ap, fb := e.forward.models()
	return pipelineState{opts: e.opts, epoch: e.epoch, apriori: ap, feedback: fb}
}

// parallelism resolves the effective worker count for n independent items.
func parallelism(opt int, n int) int {
	p := opt
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// forEachParallel runs fn(i) for i in [0, n) across a bounded worker pool.
// With one worker it degrades to a plain loop (no goroutines). Each unit of
// work additionally acquires a slot from the engine-wide semaphore, so the
// number of simultaneously running fn bodies across all concurrent callers
// never exceeds the engine's Parallelism budget. fn must write results into
// per-index slots; the pool provides no other synchronization.
func (e *Engine) forEachParallel(n, workers int, fn func(int)) {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				e.workerSem <- struct{}{}
				fn(i)
				<-e.workerSem
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// bumpEpoch invalidates all cached query results. Callers must hold e.mu.
func (e *Engine) bumpEpochLocked() { e.epoch++ }

// InvalidateCaches makes every cached query result unreachable. It is
// called automatically by the engine's own mutators; call it manually after
// mutating the forward module directly (e.g. Forward().RetrainEM or
// LoadFeedback), which the engine cannot observe.
func (e *Engine) InvalidateCaches() {
	e.mu.Lock()
	e.bumpEpochLocked()
	e.mu.Unlock()
}

// Forward exposes the forward module (feedback training, experiments).
func (e *Engine) Forward() *Forward { return e.forward }

// Backward exposes the backward module (experiments, visualization).
func (e *Engine) Backward() *Backward { return e.backward }

// Source exposes the wrapped source.
func (e *Engine) Source() wrapper.Source { return e.source }

// Options returns a copy of the engine options.
func (e *Engine) Options() Options {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.opts
}

// SetUncertainty adjusts the DS ignorance degrees at run time — the
// adaptation knob the demonstration's fourth message is about. The query
// cache is invalidated (epoch bump).
func (e *Engine) SetUncertainty(u Uncertainty) {
	e.mu.Lock()
	e.opts.Uncertainty = u
	e.bumpEpochLocked()
	e.mu.Unlock()
}

// AddFeedback incorporates user-validated configurations into the feedback
// HMM. When AutoAdapt has been enabled the DS uncertainties are re-derived
// from the accumulated feedback count afterwards. The query cache is
// invalidated (epoch bump). The expensive model re-estimation runs before
// the engine lock is taken — concurrent searches are not stalled by
// training — while the publication (model swap + uncertainty update +
// epoch bump) is atomic under the lock, so snapshots see either none or
// all of it.
func (e *Engine) AddFeedback(validated []*Configuration) {
	m, n := e.forward.prepareFeedback(validated)
	if m == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.forward.publishFeedback(m, n)
	if e.autoAdapt {
		e.opts.Uncertainty = AdaptUncertainty(e.opts.Uncertainty, e.effectiveFeedbackLocked())
	}
	e.bumpEpochLocked()
}

// AutoAdapt enables (or disables) automatic re-derivation of the forward
// uncertainties from the feedback volume on every AddFeedback call.
func (e *Engine) AutoAdapt(on bool) {
	e.mu.Lock()
	e.autoAdapt = on
	if on {
		e.opts.Uncertainty = AdaptUncertainty(e.opts.Uncertainty, e.effectiveFeedbackLocked())
	}
	e.bumpEpochLocked()
	e.mu.Unlock()
}

// AddNegativeFeedback records that the user rejected the system's
// interpretations of n searches. Following the paper ("this same parameter
// should be decreased when 'negative' feedbacks are obtained in order to
// re-configure the system accordingly"), negative feedback lowers the
// effective feedback count used by the adaptation rule, shifting trust back
// toward the a-priori mode. It does not modify the trained model — the
// validated history remains correct; what negative feedback signals is that
// the history does not generalize to current queries.
func (e *Engine) AddNegativeFeedback(n int) {
	if n <= 0 {
		return
	}
	e.mu.Lock()
	e.negativeFeedback += n
	if e.autoAdapt {
		e.opts.Uncertainty = AdaptUncertainty(e.opts.Uncertainty, e.effectiveFeedbackLocked())
	}
	e.bumpEpochLocked()
	e.mu.Unlock()
}

// effectiveFeedbackLocked is the adaptation count: validated searches minus
// rejections, floored at zero. Callers must hold e.mu.
func (e *Engine) effectiveFeedbackLocked() int {
	n := e.forward.FeedbackCount() - e.negativeFeedback
	if n < 0 {
		return 0
	}
	return n
}

// Configurations runs only the forward step (both modes + DS combination)
// and returns the combined top-k configurations — exposed separately so the
// demonstration can show each module's partial results.
func (e *Engine) Configurations(keywords []string) ([]*Configuration, error) {
	return e.configurationsWith(e.snapshot(), keywords)
}

// configurationsWith is Configurations against one consistent pipeline
// snapshot: both modes decode the models captured at snapshot time, so a
// concurrent retrain cannot produce a ranking that mixes model versions.
func (e *Engine) configurationsWith(st pipelineState, keywords []string) ([]*Configuration, error) {
	opts := st.opts
	k := opts.K
	var cap_, cf []*Configuration
	if !opts.DisableApriori {
		cap_ = e.forward.decode(st.apriori, keywords, k, "a-priori")
	}
	if !opts.DisableFeedback {
		cf = e.forward.decode(st.feedback, keywords, k, "feedback")
	}
	switch {
	case len(cap_) == 0 && len(cf) == 0:
		return nil, nil
	case len(cap_) == 0:
		return cf, nil
	case len(cf) == 0:
		return cap_, nil
	}

	// DS combination of the two operating modes (first CombinerDST of
	// Algorithm 1). The union of both top-k sets is the frame.
	byID := make(map[string]*Configuration)
	var ev1, ev2 []ds.Evidence
	for _, c := range cap_ {
		byID[c.ID()] = c
		ev1 = append(ev1, ds.Evidence{Hypothesis: c.ID(), Score: c.Score})
	}
	for _, c := range cf {
		if _, ok := byID[c.ID()]; !ok {
			byID[c.ID()] = c
		}
		ev2 = append(ev2, ds.Evidence{Hypothesis: c.ID(), Score: c.Score})
	}
	ranked, err := ds.CombineScores(ev1, opts.Uncertainty.OCap, ev2, opts.Uncertainty.OCf)
	if err != nil {
		return nil, fmt.Errorf("core: combining forward modes: %w", err)
	}
	// Trim early: ranked is sorted by belief, so materializing past k
	// wastes allocations on configurations that are dropped immediately.
	outCap := len(ranked)
	if k < outCap {
		outCap = k
	}
	out := make([]*Configuration, 0, outCap)
	for _, r := range ranked {
		if len(out) == k {
			break
		}
		c := byID[r.Hypothesis]
		out = append(out, &Configuration{
			Keywords: c.Keywords,
			Terms:    c.Terms,
			Score:    r.Belief,
			Mode:     "combined",
		})
	}
	return out, nil
}

// Interpretations runs the backward step for a set of configurations,
// returning all candidate interpretations (each configuration contributes
// up to k).
//
// Configurations are independent, so their Steiner decodings fan out across
// a bounded worker pool (Options.Parallelism). Results are concatenated in
// configuration order, and on error the lowest-index error is returned, so
// output is identical to the sequential path.
func (e *Engine) Interpretations(configs []*Configuration) ([]*Interpretation, error) {
	return e.interpretationsWith(e.snapshot().opts, configs)
}

func (e *Engine) interpretationsWith(opts Options, configs []*Configuration) ([]*Interpretation, error) {
	k := opts.K

	// Distinct configurations routinely pin the same terminal set (same
	// attributes, different keywords). Group by terminal set first so each
	// Steiner enumeration runs at most once per search even when the
	// group's members are dispatched concurrently, then share the
	// resulting trees across the group's configurations.
	type decodeGroup struct {
		terminals []string
		members   []int // config indices, ascending
	}
	groupOf := make(map[string]*decodeGroup)
	var groups []*decodeGroup
	termErrs := make([]error, len(configs))
	for i, c := range configs {
		terminals, err := e.backward.Terminals(c)
		if err != nil {
			termErrs[i] = err
			continue
		}
		key := strings.Join(terminals, ",")
		g := groupOf[key]
		if g == nil {
			g = &decodeGroup{terminals: terminals}
			groupOf[key] = g
			groups = append(groups, g)
		}
		g.members = append(g.members, i)
	}

	trees := make([][]*steiner.Tree, len(groups))
	errs := make([]error, len(groups))
	e.forEachParallel(len(groups), parallelism(opts.Parallelism, len(groups)), func(gi int) {
		trees[gi], errs[gi] = e.backward.topKTrees(groups[gi].terminals, k)
	})

	// Report the lowest-config-index error, whether from terminal
	// resolution or decoding, matching the sequential path's determinism.
	perConfig := make([][]*Interpretation, len(configs))
	for gi, g := range groups {
		if errs[gi] != nil {
			termErrs[g.members[0]] = errs[gi]
			continue
		}
		for _, i := range g.members {
			perConfig[i] = e.backward.wrapTrees(configs[i], trees[gi])
		}
	}
	total := 0
	for i := range configs {
		if termErrs[i] != nil {
			return nil, termErrs[i]
		}
		total += len(perConfig[i])
	}
	out := make([]*Interpretation, 0, total)
	for _, ins := range perConfig {
		out = append(out, ins...)
	}
	return out, nil
}

// Search is Algorithm 1: keywords → configurations (two modes, DS) →
// interpretations (Steiner) → explanations (DS) → SQL.
//
// Results are cached in the engine's query cache (see
// Options.QueryCacheSize): a repeated query on an unchanged engine is a
// single LRU lookup. Cache entries are keyed on the tokenized keywords plus
// the cache epoch; AddFeedback, SetUncertainty and the other mutators bump
// the epoch, so no stale ranking is ever served.
// Hits return fresh shallow copies of the Explanation structs — callers may
// adjust Belief on their copies without poisoning the cache; what the
// copies point to stays shared and read-only (see Explanation).
func (e *Engine) Search(query string) ([]*Explanation, error) {
	return e.SearchCtx(context.Background(), query)
}

// SearchCtx is Search bounded by a caller context — the deadline
// propagation entry point of the serving tier. The context is checked
// between pipeline stages and rides the PruneEmpty validation fan-out
// down into the source (a sharded source cancels its scatter-gather, a
// remote backend closes the in-flight connection), so a caller that gives
// up stops paying for shard work promptly. A cancelled search returns the
// context's error and is never cached — partial validation must not be
// served as a permanently thinner ranking.
func (e *Engine) SearchCtx(ctx context.Context, query string) ([]*Explanation, error) {
	keywords := Tokenize(query)
	if len(keywords) == 0 {
		return nil, fmt.Errorf("core: empty keyword query")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// One snapshot for the whole pipeline: a concurrent SetUncertainty or
	// AddFeedback mid-search cannot tear the result (options and models
	// are captured together), and the entry is stored under the epoch the
	// snapshot belongs to.
	st := e.snapshot()
	var key string
	var versions map[string]uint64
	if e.queryCache != nil {
		key = strconv.FormatUint(st.epoch, 10) + "\x00" + strings.Join(keywords, "\x1f")
		if hit, ok := e.queryCache.Get(key); ok && e.depsCurrent(hit.deps) {
			return copyExplanations(hit.exps), nil
		}
		// Capture table versions BEFORE the pipeline runs: if a write lands
		// mid-search, the stored entry validates as already stale rather
		// than serving pre-write results under a post-write version.
		versions = e.tableVersions()
	}
	configs, err := e.configurationsWith(st, keywords)
	if err != nil {
		return nil, err
	}
	var out []*Explanation
	var touched []string
	cacheable := true
	if len(configs) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		interps, err := e.interpretationsWith(st.opts, configs)
		if err != nil {
			return nil, err
		}
		if len(interps) > 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			out, touched, cacheable, err = e.explainCtx(ctx, st.opts, configs, interps)
			if err != nil {
				return nil, err
			}
		}
	}
	if err := ctx.Err(); err != nil {
		// The pipeline may have completed degraded under a context that
		// fired mid-validation; surface the cancellation rather than a
		// silently thinner ranking.
		return nil, err
	}
	if e.queryCache != nil && cacheable {
		// Store a copy of the structs: the caller owns the returned slice
		// and may set Belief in place. The statements stay shared.
		e.queryCache.Put(key, &cachedSearch{
			exps: copyExplanations(out),
			deps: depsFor(touched, versions),
		})
	}
	return out, nil
}

// cachedSearch is one query-cache entry: the ranked result plus the
// version of every table its candidate statements referenced, captured
// before the search ran. A hit is served only while those tables are
// unchanged — an insert can both add result tuples and resurrect
// candidates PruneEmpty dropped, so any referenced-table mutation makes
// the entry stale. Writes to unreferenced tables leave it servable:
// invalidation is scoped per table, not a global epoch flush.
type cachedSearch struct {
	exps []*Explanation
	deps map[string]uint64
}

// tableVersions snapshots every schema table's mutation counter through
// the source's TableVersioner face; nil when the source has none (then
// entries carry no deps and keep the legacy epoch-only lifetime).
func (e *Engine) tableVersions() map[string]uint64 {
	tv, ok := e.source.(wrapper.TableVersioner)
	if !ok {
		return nil
	}
	out := make(map[string]uint64)
	for _, ts := range e.source.Schema().Tables() {
		if v, ok := tv.TableVersion(ts.Name); ok {
			out[strings.ToLower(ts.Name)] = v
		}
	}
	return out
}

// depsFor restricts a pre-search version snapshot to the tables a search
// actually touched.
func depsFor(touched []string, versions map[string]uint64) map[string]uint64 {
	if len(touched) == 0 || versions == nil {
		return nil
	}
	deps := make(map[string]uint64, len(touched))
	for _, tbl := range touched {
		if v, ok := versions[strings.ToLower(tbl)]; ok {
			deps[strings.ToLower(tbl)] = v
		}
	}
	return deps
}

// depsCurrent reports whether every table a cached entry depends on is
// still at the version the entry was computed at. Entries without deps
// (no TableVersioner source, or a result that touched no tables) are
// always current.
func (e *Engine) depsCurrent(deps map[string]uint64) bool {
	if len(deps) == 0 {
		return true
	}
	tv, ok := e.source.(wrapper.TableVersioner)
	if !ok {
		return true
	}
	for tbl, v := range deps {
		if cur, ok := tv.TableVersion(tbl); ok && cur != v {
			return false
		}
	}
	return true
}

// copyExplanations shallow-copies a ranked result list. The Explanation
// structs are duplicated, so Belief stays isolated per caller; the Config,
// Interpretation and Stmt they point to stay shared with the query cache
// and are read-only, since cloning every statement would add allocations
// to every search. TestLimitLeavesCachedExplanationAlone (internal/serve)
// pins that the serving tier limits a clone, not the shared statement.
func copyExplanations(in []*Explanation) []*Explanation {
	if in == nil {
		return nil
	}
	out := make([]*Explanation, len(in))
	for i, ex := range in {
		cp := *ex
		out[i] = &cp
	}
	return out
}

// Explain performs the final DS combination between the forward evidence
// (configuration beliefs) and the backward evidence (interpretation
// scores), producing ranked explanations with built SQL. Exposed so
// experiments can recombine partial results under different uncertainties
// without recomputing the expensive steps.
func (e *Engine) Explain(configs []*Configuration, interps []*Interpretation) ([]*Explanation, error) {
	out, _, _, err := e.explainCtx(context.Background(), e.snapshot().opts, configs, interps)
	return out, err
}

// explainCtx additionally reports the tables the top-k candidate
// statements reference — collected before PruneEmpty, because a pruned
// candidate can be resurrected by an insert and so still counts as a data
// dependency of the result — and whether the result is cacheable: a
// PruneEmpty pass degraded by transient Execute failures must not be
// cached, or a one-off endpoint outage would be served as a permanently
// thinner ranking until the next epoch bump. ctx bounds the PruneEmpty
// validation queries.
func (e *Engine) explainCtx(ctx context.Context, opts Options, configs []*Configuration, interps []*Interpretation) ([]*Explanation, []string, bool, error) {
	configBelief := make(map[string]float64, len(configs))
	for _, c := range configs {
		configBelief[c.ID()] = c.Score
	}

	// Frame of discernment: candidate explanations = interpretations. The
	// forward source supports an explanation through its configuration's
	// belief; the backward source through the interpretation score.
	byID := make(map[string]*Interpretation, len(interps))
	var evForward, evBackward []ds.Evidence
	for _, in := range interps {
		id := in.ID()
		if _, dup := byID[id]; dup {
			continue
		}
		byID[id] = in
		evForward = append(evForward, ds.Evidence{Hypothesis: id, Score: configBelief[in.Config.ID()]})
		evBackward = append(evBackward, ds.Evidence{Hypothesis: id, Score: in.Score})
	}
	ranked, err := ds.CombineScores(evForward, opts.Uncertainty.OC, evBackward, opts.Uncertainty.OI)
	if err != nil {
		return nil, nil, false, fmt.Errorf("core: combining forward and backward: %w", err)
	}

	// Trim early: never allocate past min(k, len(ranked)).
	outCap := len(ranked)
	if opts.K < outCap {
		outCap = opts.K
	}
	out := make([]*Explanation, 0, outCap)
	for _, r := range ranked {
		if len(out) >= opts.K {
			break
		}
		in := byID[r.Hypothesis]
		stmt, err := e.builder.Build(in)
		if err != nil {
			// Unbuildable interpretation (disconnected tree): skip rather
			// than fail the whole search.
			continue
		}
		out = append(out, &Explanation{
			Config:         in.Config,
			Interpretation: in,
			Belief:         r.Belief,
			Stmt:           stmt,
			SQL:            stmt.SQL(),
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Belief != out[j].Belief {
			return out[i].Belief > out[j].Belief
		}
		return out[i].ID() < out[j].ID()
	})
	// Data dependencies, pre-prune: every table any surviving candidate's
	// SQL reads.
	seen := make(map[string]bool)
	var touched []string
	for _, ex := range out {
		for _, tr := range ex.Stmt.Tables() {
			k := strings.ToLower(tr.Table)
			if !seen[k] {
				seen[k] = true
				touched = append(touched, k)
			}
		}
	}
	cacheable := true
	if opts.PruneEmpty {
		out, cacheable = e.pruneEmpty(ctx, out, e.pruneWorkers(opts, len(out)))
	}
	return out, touched, cacheable, nil
}

// pruneWorkers resolves the validation-query concurrency. Unlike the
// engine-internal fan-out, these queries call into the source's Execute —
// possibly user-supplied endpoint code — so parallel execution requires
// either the source declaring itself concurrency-safe
// (wrapper.ConcurrentExecutor) or an explicit Parallelism > 1 opt-in;
// any Parallelism <= 1 (including negative values) stays sequential for
// unsafe sources.
func (e *Engine) pruneWorkers(opts Options, n int) int {
	if opts.Parallelism == 1 || !e.execSafe {
		return 1
	}
	return parallelism(opts.Parallelism, n)
}

// pruneEmpty drops explanations whose execution yields no tuples and
// renormalizes the surviving beliefs to their previous total mass. The
// validation queries are independent, so they run across a bounded worker
// pool; survivors keep their original rank order. Each validation runs in
// existence-only mode (wrapper.ExecuteExists): the source stops at the
// first surviving tuple instead of materializing the full result, so
// validation cost no longer scales with result size. The second return is
// false when any validation query failed (as opposed to returning zero
// tuples) — the pruning then reflects a transient condition and the caller
// must not cache it.
func (e *Engine) pruneEmpty(ctx context.Context, in []*Explanation, workers int) ([]*Explanation, bool) {
	keep := make([]bool, len(in))
	failed := make([]bool, len(in))
	e.forEachParallel(len(in), workers, func(i int) {
		ok, err := e.executeExists(ctx, in[i].Stmt)
		failed[i] = err != nil
		keep[i] = err == nil && ok
	})
	clean := true
	for _, f := range failed {
		if f {
			clean = false
			break
		}
	}

	kept := in[:0]
	totalBefore, totalKept := 0.0, 0.0
	for i, ex := range in {
		totalBefore += ex.Belief
		if !keep[i] {
			continue
		}
		kept = append(kept, ex)
		totalKept += ex.Belief
	}
	if totalKept > 0 && totalBefore > 0 {
		scale := totalBefore / totalKept
		for _, ex := range kept {
			ex.Belief *= scale
		}
	}
	return kept, clean
}

// Execute runs an explanation's SQL through the source's wrapper. The
// returned Result carries the execution plan the backend chose (access
// paths, join order, estimated vs actual cardinalities) when the source's
// executor exposes one.
func (e *Engine) Execute(ex *Explanation) (*sql.Result, error) {
	return e.execute(context.Background(), ex.Stmt)
}

// ExecuteCtx is Execute bounded by a caller context: the statement is
// dispatched through the source's context-aware execution face when it
// has one (wrapper.ContextExecutor — sharded and remote sources do), so
// cancellation reaches in-flight shard work.
func (e *Engine) ExecuteCtx(ctx context.Context, ex *Explanation) (*sql.Result, error) {
	return e.execute(ctx, ex.Stmt)
}

// RunSQL parses and executes one SELECT statement against the engine's
// source under a caller context — the serving tier's /v1/sql path. The
// same serialization rule as every engine-issued execution applies:
// sources that did not declare Execute concurrency-safe are never raced.
func (e *Engine) RunSQL(ctx context.Context, query string) (*sql.Result, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	return e.execute(ctx, stmt)
}

// ColumnStatistics surfaces the source's per-column statistics snapshot.
// The engine does not care how the source produces it — the single-node
// wrapper reads its own tables, the sharded source merges per-shard
// summaries — it only requires the wrapper-level StatisticsProvider
// contract; sources without instance access report ErrNoInstanceAccess.
func (e *Engine) ColumnStatistics(table, column string) (*relational.ColumnStats, error) {
	if sp, ok := e.source.(wrapper.StatisticsProvider); ok {
		return sp.ColumnStatistics(table, column)
	}
	return nil, wrapper.ErrNoInstanceAccess
}

// Insert routes one row append through the source's write face
// (wrapper.Inserter) — the serving tier's /v1/insert path. Sources
// without the face are read-only and return an error. No cache flush
// happens here: the plan cache and the engine query cache both validate
// against per-table versions, so only entries that read the written table
// go stale.
func (e *Engine) Insert(table string, row relational.Row) error {
	ins, ok := e.source.(wrapper.Inserter)
	if !ok {
		return fmt.Errorf("core: source %s is read-only (no insert face)", e.source.Name())
	}
	if !e.execSafe {
		e.execMu.Lock()
		defer e.execMu.Unlock()
	}
	return ins.Insert(table, row)
}

// execute routes a statement to the source, serializing the calls when the
// source did not declare Execute safe for concurrent use — the engine
// never races a custom endpoint, even from concurrent Searches.
func (e *Engine) execute(ctx context.Context, stmt *sql.SelectStmt) (*sql.Result, error) {
	if !e.execSafe {
		e.execMu.Lock()
		defer e.execMu.Unlock()
	}
	return wrapper.ExecuteContext(ctx, e.source, stmt)
}

// executeExists routes an existence-only validation query to the source,
// under the same serialization rule as execute.
func (e *Engine) executeExists(ctx context.Context, stmt *sql.SelectStmt) (bool, error) {
	if !e.execSafe {
		e.execMu.Lock()
		defer e.execMu.Unlock()
	}
	return wrapper.ExecuteExistsContext(ctx, e.source, stmt)
}
