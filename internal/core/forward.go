package core

import (
	"io"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/cache"
	"repro/internal/hmm"
	"repro/internal/ontology"
	"repro/internal/relational"
	"repro/internal/wrapper"
)

// emissionCacheSize bounds the per-forward-module LRU of keyword→emission
// vectors. Vectors are small (one float64 per HMM state) and the keyword
// working set of a live system is tiny, so a few thousand entries make the
// cache effectively unbounded in practice while still capping memory.
const emissionCacheSize = 4096

// AprioriWeights are the heuristic-rule parameters of the a-priori operating
// mode: relative transition affinities between database terms derived from
// the semantic relationships among them (aggregation = same table,
// inclusion = PK/FK link, generalization = ontology link between tables).
type AprioriWeights struct {
	// AttrToOwnDomain boosts attribute→its own domain ("title scorsese").
	AttrToOwnDomain float64
	// SameTable boosts transitions between terms of the same table
	// (aggregation relationship).
	SameTable float64
	// FKAdjacent boosts transitions between terms of tables connected by a
	// foreign key (inclusion relationship).
	FKAdjacent float64
	// Generalization boosts transitions between tables related through the
	// ontology (hypernym/synonym of table names).
	Generalization float64
	// Base is the floor affinity between any two terms, keeping the chain
	// ergodic.
	Base float64
}

// DefaultAprioriWeights returns the weights used across the repo; relative
// magnitudes follow the paper's intent ("foster the transition between
// database terms belonging to the same table and belonging to tables
// connected through foreign keys").
func DefaultAprioriWeights() AprioriWeights {
	return AprioriWeights{
		AttrToOwnDomain: 8,
		SameTable:       4,
		FKAdjacent:      2,
		Generalization:  1.5,
		Base:            0.1,
	}
}

// Forward is the forward module: it owns the term space, the a-priori HMM
// and the feedback HMM, and decodes keyword queries into configurations.
//
// Forward is safe for concurrent use and its models are copy-on-write:
// training (AddFeedback, RetrainEM, RetrainListViterbi, SetAprioriWeights,
// LoadFeedback) builds a new model and swaps the pointer under the write
// lock, so a decoder that snapshots the pointers (models) works against an
// immutable pair for its whole decode without holding any lock.
type Forward struct {
	source wrapper.Source
	space  *TermSpace
	thes   *ontology.Thesaurus

	// mu guards the two model pointers and the feedback bookkeeping below.
	// The models themselves are immutable once published (copy-on-write).
	mu       sync.RWMutex
	apriori  *hmm.Model
	feedback *hmm.Model

	// trainedFeedback reports whether any feedback has been incorporated;
	// before that the feedback mode decodes with an untrained (uniform)
	// model, which the DS combiner is expected to down-weight via OCf.
	trainedFeedback bool
	feedbackCount   int
	// supervisedPaths accumulates validated state sequences across feedback
	// batches so each retraining sees the full history. Append-only: a
	// training pass may capture the slice under the lock and read it after
	// release, because existing elements are never modified.
	supervisedPaths [][]int
	// publishedHistory is the history length the current feedback model was
	// trained on; publishFeedback uses it to drop out-of-order publications
	// from concurrent feedback batches (longer history wins — it is a
	// superset).
	publishedHistory int

	// emissionCache memoizes keyword→emission vectors. Emission vectors
	// depend only on the source, schema and thesaurus — all immutable after
	// construction — so entries never need invalidation; the sharded LRU
	// lets concurrent decodes share them without contending on one lock.
	emissionCache *cache.LRU[string, []float64]
}

// NewForward builds the forward module for a source. The thesaurus may be
// nil (ontology evidence is then limited to exact/stem matches).
func NewForward(src wrapper.Source, thes *ontology.Thesaurus) *Forward {
	if thes == nil {
		thes = ontology.NewThesaurus()
	}
	f := &Forward{
		source:        src,
		space:         NewTermSpace(src.Schema()),
		thes:          thes,
		emissionCache: cache.New[string, []float64](emissionCacheSize),
	}
	f.apriori = f.buildAprioriHMM(DefaultAprioriWeights())
	f.feedback = hmm.NewModel(f.space.Len())
	f.feedback.Names = f.space.Names()
	return f
}

// Space exposes the term space (shared with the backward module).
func (f *Forward) Space() *TermSpace { return f.space }

// FeedbackCount returns how many validated searches have been incorporated.
func (f *Forward) FeedbackCount() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.feedbackCount
}

// buildAprioriHMM derives initial and transition distributions from the
// schema using the heuristic rules.
func (f *Forward) buildAprioriHMM(w AprioriWeights) *hmm.Model {
	n := f.space.Len()
	m := hmm.NewModel(n)
	m.Names = f.space.Names()
	schema := f.source.Schema()

	// FK adjacency between tables, generalized to hop distances: tables one
	// FK away get the full FKAdjacent boost, two hops (through a junction
	// table like cast_info) half of it, and so on — keyword pairs routinely
	// straddle a junction table the user never names.
	dist := tableDistances(schema)

	related := func(a, b string) bool {
		return f.thes.Related(a, b) >= 0.5
	}

	for i := 0; i < n; i++ {
		ti := f.space.Terms[i]
		row := m.Trans[i]
		for j := 0; j < n; j++ {
			tj := f.space.Terms[j]
			weight := w.Base
			sameTable := strings.EqualFold(ti.Table, tj.Table)
			d := dist[tableKey(ti.Table)][tableKey(tj.Table)]
			switch {
			case sameTable && ti.Kind == KindAttribute && tj.Kind == KindDomain &&
				strings.EqualFold(ti.Column, tj.Column):
				weight = w.AttrToOwnDomain
			case sameTable && i != j:
				weight = w.SameTable
			case d > 0:
				weight = w.FKAdjacent / float64(uint(1)<<uint(d-1))
				if weight < w.Base {
					weight = w.Base
				}
			case !sameTable && related(ti.Table, tj.Table):
				weight = w.Generalization
			}
			if !sameTable && related(ti.Table, tj.Table) && w.Generalization > weight {
				weight = w.Generalization
			}
			row[j] = weight
		}
	}
	// Initial distribution: favor table terms slightly (queries tend to
	// open with the entity of interest), then attributes, then domains.
	for i := 0; i < n; i++ {
		switch f.space.Terms[i].Kind {
		case KindTable:
			m.Initial[i] = 3
		case KindAttribute:
			m.Initial[i] = 2
		default:
			m.Initial[i] = 2
		}
	}
	m.Normalize()
	return m
}

func tableKey(t string) string { return strings.ToLower(t) }

// tableDistances computes BFS hop distances between all table pairs over
// the schema's FK edges (0 = same table or unreachable; callers treat same
// table separately).
func tableDistances(schema *relational.Schema) map[string]map[string]int {
	adj := make(map[string][]string)
	link := func(a, b string) {
		a, b = tableKey(a), tableKey(b)
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	for _, e := range schema.JoinEdges() {
		link(e.FromTable, e.ToTable)
	}
	out := make(map[string]map[string]int)
	for _, t := range schema.TableNames() {
		start := tableKey(t)
		d := map[string]int{start: 0}
		queue := []string{start}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, nb := range adj[cur] {
				if _, ok := d[nb]; !ok {
					d[nb] = d[cur] + 1
					queue = append(queue, nb)
				}
			}
		}
		delete(d, start)
		out[start] = d
	}
	return out
}

// Emission returns the probability that state (term) s emits keyword kw.
// Domain terms use the source's attribute relevance function (full-text
// score for owned databases, metadata guess for hidden ones); table and
// attribute terms use ontology relatedness and name similarity against the
// term's name and annotations.
func (f *Forward) Emission(s int, kw string) float64 {
	return f.emissions(kw)[s]
}

// emissions returns the full (immutable) emission vector for a keyword,
// from the shared LRU or computed on miss.
func (f *Forward) emissions(kw string) []float64 {
	cached, ok := f.emissionCache.Get(kw)
	if !ok {
		cached = f.computeEmissions(kw)
		f.emissionCache.Put(kw, cached)
	}
	return cached
}

// computeEmissions builds the per-keyword emission vector. Two evidence
// families feed it with incompatible scales: full-text scores are
// normalized per attribute to sum to 1 over the vocabulary (so individual
// values are ~1/|vocab|), while name similarities live in [0,1]. To make
// them commensurable the domain scores are first rescaled so the keyword's
// best-matching attribute reaches 0.95 (relative discrimination between
// attributes is preserved; zero stays zero), then the whole vector is
// normalized to sum to 1 — a locally-normalized (maximum-entropy-Markov)
// variant of the paper's per-attribute normalization coefficient.
func (f *Forward) computeEmissions(kw string) []float64 {
	n := f.space.Len()
	out := make([]float64, n)
	schema := f.source.Schema()
	maxDomain := 0.0
	for i := 0; i < n; i++ {
		t := f.space.Terms[i]
		switch t.Kind {
		case KindDomain:
			s := f.source.AttributeScore(t.Table, t.Column, kw)
			out[i] = s
			if s > maxDomain {
				maxDomain = s
			}
		case KindTable:
			out[i] = f.schemaTermScore(kw, t.Table, schema.Table(t.Table).Annotations)
		case KindAttribute:
			col := schema.Table(t.Table).Column(t.Column)
			out[i] = f.schemaTermScore(kw, t.Column, col.Annotations)
		}
	}
	if maxDomain > 0 {
		scale := 0.95 / maxDomain
		for i := 0; i < n; i++ {
			if f.space.Terms[i].Kind == KindDomain {
				out[i] *= scale
			}
		}
	}
	total := 0.0
	for _, v := range out {
		total += v
	}
	if total > 0 {
		for i := range out {
			out[i] /= total
		}
	}
	return out
}

// schemaTermScore scores a keyword against a schema term name plus its
// annotations. Semantic relatedness from the thesaurus (exact/stem match,
// synonym, hypernym) is accepted from 0.5 up; bare string similarity is
// noisy on short words (Jaro–Winkler rates "drama"/"name" at 0.63), so it
// only counts from 0.75 up — misspellings still pass, coincidences don't.
func (f *Forward) schemaTermScore(kw, name string, annotations []string) float64 {
	const (
		semanticCutoff = 0.5
		stringCutoff   = 0.75
	)
	semantic := f.thes.Related(kw, name)
	for _, a := range annotations {
		if r := f.thes.Related(kw, a); r > semantic {
			semantic = r
		}
	}
	str := ontology.NameSimilarity(kw, name)
	for _, a := range annotations {
		if s := ontology.NameSimilarity(kw, a) * 0.9; s > str {
			str = s
		}
	}
	best := 0.0
	if semantic >= semanticCutoff {
		best = semantic
	}
	if str >= stringCutoff && str > best {
		best = str
	}
	return best
}

// AddFeedback incorporates one validated search: the keyword sequence and
// the configuration the user confirmed. Supervised counting re-estimates
// the feedback HMM (the on-line training of the feedback-based mode); the
// keyword sequences are also kept implicitly through the supervised state
// paths, so EM refinement in Retrain stays consistent.
func (f *Forward) AddFeedback(validated []*Configuration) {
	m, n := f.prepareFeedback(validated)
	if m == nil {
		return
	}
	f.publishFeedback(m, n)
}

// prepareFeedback appends the validated paths to the training history and
// trains a replacement feedback model. The expensive re-estimation runs
// outside any lock (on a private clone over a captured history slice), so
// callers holding the engine lock for atomic publication don't stall
// concurrent searches for the duration of training. Returns nil when no
// validated configuration maps onto the term space.
func (f *Forward) prepareFeedback(validated []*Configuration) (*hmm.Model, int) {
	var paths [][]int
	for _, c := range validated {
		path := make([]int, 0, len(c.Terms))
		okAll := true
		for _, t := range c.Terms {
			i := f.space.Index(t)
			if i < 0 {
				okAll = false
				break
			}
			path = append(path, i)
		}
		if okAll && len(path) > 0 {
			paths = append(paths, path)
		}
	}
	if len(paths) == 0 {
		return nil, 0
	}
	f.mu.Lock()
	f.supervisedPaths = append(f.supervisedPaths, paths...)
	history := f.supervisedPaths[:len(f.supervisedPaths):len(f.supervisedPaths)]
	base := f.feedback
	f.mu.Unlock()

	// Copy-on-write: re-estimate into a clone of the current model;
	// TrainSupervised derives everything from the history, so concurrent
	// batches training from different bases still converge.
	m := base.Clone()
	m.TrainSupervised(history, 0.01)
	return m, len(history)
}

// publishFeedback installs a model trained on historyLen validated paths.
// When concurrent feedback batches race, the publication covering the
// longer (superset) history wins and the shorter one is dropped — its
// paths are already part of the longer history.
func (f *Forward) publishFeedback(m *hmm.Model, historyLen int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if historyLen <= f.publishedHistory {
		return
	}
	f.feedback = m
	f.publishedHistory = historyLen
	f.feedbackCount = historyLen
	f.trainedFeedback = true
}

// RetrainEM refines the feedback HMM with unlabeled keyword sequences
// (searches the user ran but did not validate) via Expectation–Maximization.
func (f *Forward) RetrainEM(keywordSeqs [][]string, maxIter int) int {
	if len(keywordSeqs) == 0 {
		return 0
	}
	// Train on a clone outside the lock (EM over long logs is slow); the
	// brief swap below is the only exclusion decoders can observe.
	f.mu.RLock()
	base := f.feedback
	f.mu.RUnlock()
	m := base.Clone()
	it := m.TrainEM(keywordSeqs, f.Emission, maxIter, 1e-4)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.feedback = m
	if it > 0 {
		f.trainedFeedback = true
	}
	return it
}

// RetrainListViterbi refines the feedback HMM from unlabeled keyword
// sequences with the list Viterbi training algorithm of the paper's
// reference [4] (Rota et al., CIKM 2011): hard EM over the top-k decoded
// state sequences per query. Cheaper and more focused than full Baum–Welch
// on long logs.
func (f *Forward) RetrainListViterbi(keywordSeqs [][]string, k, maxIter int) int {
	if len(keywordSeqs) == 0 {
		return 0
	}
	f.mu.RLock()
	base := f.feedback
	f.mu.RUnlock()
	m := base.Clone()
	it := m.TrainListViterbi(keywordSeqs, f.Emission, k, maxIter, 1e-4)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.feedback = m
	if it > 0 {
		f.trainedFeedback = true
	}
	return it
}

// TopKApriori decodes the top-k configurations with the a-priori HMM.
func (f *Forward) TopKApriori(keywords []string, k int) []*Configuration {
	ap, _ := f.models()
	return f.decode(ap, keywords, k, "a-priori")
}

// TopKFeedback decodes the top-k configurations with the feedback HMM.
func (f *Forward) TopKFeedback(keywords []string, k int) []*Configuration {
	_, fb := f.models()
	return f.decode(fb, keywords, k, "feedback")
}

// HasFeedback reports whether the feedback model has ever been trained.
func (f *Forward) HasFeedback() bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.trainedFeedback
}

// models snapshots both HMM pointers under one read lock. The returned
// models are immutable (training swaps pointers rather than mutating), so
// the pair is a consistent view a caller can decode against lock-free.
func (f *Forward) models() (apriori, feedback *hmm.Model) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.apriori, f.feedback
}

// decode runs list-Viterbi decoding against a snapshotted (immutable)
// model; no lock is held while decoding. The emission callback memoizes
// the current keyword's vector locally: ListViterbi asks for every state
// of one keyword before moving to the next, so this costs one shared-LRU
// lookup per distinct keyword instead of one per (state, keyword) pair.
func (f *Forward) decode(m *hmm.Model, keywords []string, k int, mode string) []*Configuration {
	if len(keywords) == 0 || k <= 0 {
		return nil
	}
	var curKw string
	var curVec []float64
	emit := func(s int, kw string) float64 {
		if curVec == nil || kw != curKw {
			curVec = f.emissions(kw)
			curKw = kw
		}
		return curVec[s]
	}
	paths := m.ListViterbi(keywords, emit, k)
	out := make([]*Configuration, 0, len(paths))
	for _, p := range paths {
		terms := make([]Term, len(p.States))
		for i, s := range p.States {
			terms[i] = f.space.Terms[s]
		}
		out = append(out, &Configuration{
			Keywords: append([]string(nil), keywords...),
			Terms:    terms,
			Score:    math.Exp(p.LogProb),
			Mode:     mode,
		})
	}
	// Deduplicate identical mappings (distinct rank paths can collapse to
	// the same configuration after term mapping).
	seen := make(map[string]*Configuration, len(out))
	var dedup []*Configuration
	for _, c := range out {
		id := c.ID()
		if prev, ok := seen[id]; ok {
			prev.Score += c.Score
			continue
		}
		seen[id] = c
		dedup = append(dedup, c)
	}
	sort.SliceStable(dedup, func(i, j int) bool {
		if dedup[i].Score != dedup[j].Score {
			return dedup[i].Score > dedup[j].Score
		}
		return dedup[i].ID() < dedup[j].ID()
	})
	if len(dedup) > k {
		dedup = dedup[:k]
	}
	return dedup
}

// SetAprioriWeights rebuilds the a-priori HMM with custom heuristic weights
// (ablation hook for experiment E8 variants).
func (f *Forward) SetAprioriWeights(w AprioriWeights) {
	m := f.buildAprioriHMM(w)
	f.mu.Lock()
	f.apriori = m
	f.mu.Unlock()
}

// SaveFeedback serializes the trained feedback model (JSON). The state
// space is schema-derived, so a saved model is only loadable against the
// same schema.
func (f *Forward) SaveFeedback(w io.Writer) error {
	_, fb := f.models()
	return fb.Save(w) // the snapshot is immutable; serialize outside the lock
}

// LoadFeedback restores a feedback model previously saved with
// SaveFeedback and marks the feedback mode as trained.
func (f *Forward) LoadFeedback(r io.Reader) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.feedback.Clone()
	if err := m.Restore(r); err != nil {
		return err
	}
	f.feedback = m
	f.trainedFeedback = true
	return nil
}
