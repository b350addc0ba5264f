// Package steiner implements weighted graphs and top-k minimum-cost
// connected tree (group Steiner tree) discovery.
//
// The algorithm is the dynamic-programming approach of Ding et al. (DPBF,
// ICDE'07) generalized to enumerate trees in increasing cost order: states
// T(v, S) — best trees rooted at vertex v covering terminal subset S — are
// expanded best-first through edge growth and subset merge, and complete
// trees (S = all terminals) are emitted as they surface. Following the
// paper's extension, emitted trees that are sub-trees (edge subsets) of
// previously emitted trees — or vice versa duplicates — can be filtered out
// by the caller via the Dedup option.
//
// QUEST runs this over a graph of the database *schema* (attribute nodes,
// PK-attribute and PK-FK edges), which is why exact DP is affordable: the
// graph has tens of nodes, not millions of tuples.
package steiner

import (
	"container/heap"
	"fmt"
	"sort"
	"strconv"
)

// Graph is a mutable undirected weighted multigraph with string-labeled
// vertices.
type Graph struct {
	names []string
	index map[string]int
	adj   [][]Edge
}

// Edge is one endpoint's view of an undirected edge.
type Edge struct {
	From   int
	To     int
	Weight float64
	Label  string // e.g. "fk" or "intra"; carried into trees
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{index: make(map[string]int)}
}

// AddVertex ensures a vertex exists and returns its id.
func (g *Graph) AddVertex(name string) int {
	if id, ok := g.index[name]; ok {
		return id
	}
	id := len(g.names)
	g.names = append(g.names, name)
	g.index[name] = id
	g.adj = append(g.adj, nil)
	return id
}

// Vertex returns the id of a vertex, or -1.
func (g *Graph) Vertex(name string) int {
	if id, ok := g.index[name]; ok {
		return id
	}
	return -1
}

// Name returns the label of vertex id.
func (g *Graph) Name(id int) string { return g.names[id] }

// Len returns the number of vertices.
func (g *Graph) Len() int { return len(g.names) }

// EdgeCount returns the number of undirected edges.
func (g *Graph) EdgeCount() int {
	n := 0
	for _, es := range g.adj {
		n += len(es)
	}
	return n / 2
}

// AddEdge inserts an undirected edge. Negative weights are clamped to 0.
func (g *Graph) AddEdge(from, to string, weight float64, label string) {
	if weight < 0 {
		weight = 0
	}
	f, t := g.AddVertex(from), g.AddVertex(to)
	if f == t {
		return
	}
	g.adj[f] = append(g.adj[f], Edge{From: f, To: t, Weight: weight, Label: label})
	g.adj[t] = append(g.adj[t], Edge{From: t, To: f, Weight: weight, Label: label})
}

// Neighbors returns the edges incident to v.
func (g *Graph) Neighbors(v int) []Edge { return g.adj[v] }

// Tree is a connected subtree of a graph with its total edge cost.
type Tree struct {
	Root  int
	Edges []Edge // canonical: From < To, sorted
	Cost  float64

	// sig memoizes Signature. It is computed once per tree: TopK fills it
	// before a tree is emitted (and therefore before the tree can be shared
	// across goroutines); trees built by hand compute it lazily on first
	// use, which is safe as long as the first Signature call happens before
	// the tree is published to other goroutines.
	sig string
}

// Vertices returns the sorted vertex ids covered by the tree (root included
// even for single-vertex trees).
func (t *Tree) Vertices() []int {
	set := map[int]bool{t.Root: true}
	for _, e := range t.Edges {
		set[e.From] = true
		set[e.To] = true
	}
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Signature is a canonical string identifying the tree's edge set. The
// result is memoized on the tree (the edge set is immutable once built), so
// repeated calls — dedup checks, interpretation IDs, cache keys — pay the
// formatting cost only once.
func (t *Tree) Signature() string {
	if t.sig == "" && len(t.Edges) > 0 {
		buf := make([]byte, 0, 8*len(t.Edges))
		for i, e := range t.Edges {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, int64(e.From), 10)
			buf = append(buf, '-')
			buf = strconv.AppendInt(buf, int64(e.To), 10)
		}
		t.sig = string(buf)
	}
	return t.sig
}

// ContainsAll reports whether the tree covers every given vertex.
func (t *Tree) ContainsAll(vs []int) bool {
	set := map[int]bool{t.Root: true}
	for _, e := range t.Edges {
		set[e.From] = true
		set[e.To] = true
	}
	for _, v := range vs {
		if !set[v] {
			return false
		}
	}
	return true
}

// IsSubtreeOf reports whether t's edge set is a subset of other's.
func (t *Tree) IsSubtreeOf(other *Tree) bool {
	if len(t.Edges) > len(other.Edges) {
		return false
	}
	set := make(map[uint64]bool, len(other.Edges))
	for _, e := range other.Edges {
		set[edgeKey(e)] = true
	}
	for _, e := range t.Edges {
		if !set[edgeKey(e)] {
			return false
		}
	}
	return true
}

// edgeKey packs an undirected edge into one uint64 (vertex ids are dense
// small ints), replacing the fmt.Sprintf string keys that dominated the
// merge/dedup profile.
func edgeKey(e Edge) uint64 {
	f, t := e.From, e.To
	if f > t {
		f, t = t, f
	}
	return uint64(uint32(f))<<32 | uint64(uint32(t))
}

// Options tunes TopK.
type Options struct {
	// Dedup drops trees that are sub-trees of previously emitted trees and
	// exact duplicates (the paper's "mechanism for efficiently discarding
	// Steiner Trees that are sub-trees of others previously computed").
	Dedup bool
	// MaxExpansions bounds DP state expansions (0 = default 1<<20).
	MaxExpansions int
}

// dpState identifies a DP entry: best tree rooted at v covering terminal
// subset mask.
type dpState struct {
	v    int
	mask uint32
}

type dpEntry struct {
	cost  float64
	tree  *Tree
	state dpState
	// seq breaks heap ties deterministically.
	seq int
}

type dpHeap []*dpEntry

func (h dpHeap) Len() int { return len(h) }
func (h dpHeap) Less(i, j int) bool {
	if h[i].cost != h[j].cost {
		return h[i].cost < h[j].cost
	}
	return h[i].seq < h[j].seq
}
func (h dpHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *dpHeap) Push(x interface{}) { *h = append(*h, x.(*dpEntry)) }
func (h *dpHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// TopK returns up to k minimum-cost trees connecting all terminal vertices,
// in nondecreasing cost order. Terminals may repeat; unknown vertices cause
// an error. With a single terminal the result is the trivial one-vertex
// tree.
func (g *Graph) TopK(terminals []string, k int, opt Options) ([]*Tree, error) {
	if k <= 0 {
		return nil, nil
	}
	ids := make([]int, 0, len(terminals))
	seen := make(map[int]bool)
	for _, name := range terminals {
		id := g.Vertex(name)
		if id < 0 {
			return nil, fmt.Errorf("steiner: unknown vertex %q", name)
		}
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	if len(ids) == 0 {
		return nil, nil
	}
	if len(ids) > 30 {
		return nil, fmt.Errorf("steiner: too many terminals (%d > 30)", len(ids))
	}
	maxExp := opt.MaxExpansions
	if maxExp <= 0 {
		maxExp = 1 << 20
	}

	termMask := make(map[int]uint32, len(ids))
	for i, id := range ids {
		termMask[id] = 1 << uint(i)
	}
	full := uint32(1)<<uint(len(ids)) - 1

	// popped[state] = number of times the state has been popped; we allow up
	// to k pops per state to enumerate k-best trees (Eppstein-style
	// relaxation of DPBF).
	popped := make(map[dpState]int)
	// entries[state] = trees already popped for the state, used to extend
	// merges; entryOrder fixes the iteration order (map iteration is
	// randomized and would leak into heap tie-breaks, making results
	// nondeterministic across runs).
	entries := make(map[dpState][]*Tree)
	var entryOrder []dpState

	h := &dpHeap{}
	seq := 0
	push := func(st dpState, tr *Tree) {
		seq++
		heap.Push(h, &dpEntry{cost: tr.Cost, tree: tr, state: st, seq: seq})
	}

	for _, id := range ids {
		push(dpState{v: id, mask: termMask[id]}, &Tree{Root: id})
	}

	var results []*Tree
	emittedSig := make(map[string]bool)
	expansions := 0
	for h.Len() > 0 && len(results) < k && expansions < maxExp {
		e := heap.Pop(h).(*dpEntry)
		st := e.state
		if popped[st] >= k {
			continue
		}
		popped[st]++
		if len(entries[st]) == 0 {
			entryOrder = append(entryOrder, st)
		}
		entries[st] = append(entries[st], e.tree)
		expansions++

		if st.mask == full {
			// The same edge set can surface under several roots; results are
			// always distinct trees. Dedup additionally drops sub-tree
			// dominated results (the paper's pruning).
			sig := e.tree.Signature()
			if emittedSig[sig] {
				continue
			}
			if opt.Dedup && isDominated(e.tree, results) {
				continue
			}
			emittedSig[sig] = true
			results = append(results, e.tree)
			continue
		}

		// Edge growth: extend the tree by one incident edge, re-rooting at
		// the new vertex.
		for _, edge := range g.adj[st.v] {
			nm := st.mask | termMask[edge.To]
			nt := extendTree(e.tree, edge)
			push(dpState{v: edge.To, mask: nm}, nt)
		}

		// Tree merge: combine with previously popped trees rooted at the
		// same vertex covering a disjoint terminal subset.
		for _, other := range entryOrder {
			if other.v != st.v || other.mask&st.mask != 0 {
				continue
			}
			for _, ot := range entries[other] {
				mt, ok := mergeTrees(e.tree, ot)
				if !ok {
					continue
				}
				push(dpState{v: st.v, mask: st.mask | other.mask}, mt)
			}
		}
	}
	return results, nil
}

func isDominated(t *Tree, emitted []*Tree) bool {
	for _, p := range emitted {
		if t.IsSubtreeOf(p) || p.IsSubtreeOf(t) {
			return true
		}
		if t.Signature() == p.Signature() {
			return true
		}
	}
	return false
}

func extendTree(t *Tree, e Edge) *Tree {
	ne := canonEdge(e)
	// Reject if the edge is already present (cycle via same edge).
	for _, x := range t.Edges {
		if x.From == ne.From && x.To == ne.To {
			// Re-rooting without adding the edge again.
			return &Tree{Root: e.To, Edges: t.Edges, Cost: t.Cost}
		}
	}
	edges := make([]Edge, 0, len(t.Edges)+1)
	edges = append(edges, t.Edges...)
	edges = append(edges, ne)
	sortEdges(edges)
	return &Tree{Root: e.To, Edges: edges, Cost: t.Cost + e.Weight}
}

// mergeTrees unions two trees rooted at the same vertex; fails when their
// edge sets overlap or the union would contain a cycle.
func mergeTrees(a, b *Tree) (*Tree, bool) {
	set := make(map[uint64]bool, len(a.Edges))
	for _, e := range a.Edges {
		set[edgeKey(e)] = true
	}
	edges := make([]Edge, 0, len(a.Edges)+len(b.Edges))
	edges = append(edges, a.Edges...)
	cost := a.Cost
	for _, e := range b.Edges {
		if set[edgeKey(e)] {
			return nil, false
		}
		edges = append(edges, e)
		cost += e.Weight
	}
	// Cycle check: |V| must equal |E| + 1 for a tree.
	verts := map[int]bool{a.Root: true}
	for _, e := range edges {
		verts[e.From] = true
		verts[e.To] = true
	}
	if len(verts) != len(edges)+1 {
		return nil, false
	}
	sortEdges(edges)
	return &Tree{Root: a.Root, Edges: edges, Cost: cost}, true
}

func canonEdge(e Edge) Edge {
	if e.From > e.To {
		e.From, e.To = e.To, e.From
	}
	return e
}

func sortEdges(es []Edge) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].From != es[j].From {
			return es[i].From < es[j].From
		}
		return es[i].To < es[j].To
	})
}
