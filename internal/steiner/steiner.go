// Package steiner implements weighted graphs and top-k Steiner tree
// enumeration.
//
// TopK with Dedup returns the k cheapest minimal Steiner trees: trees
// spanning every terminal whose leaves are all terminals. No such tree
// contains another spanning the same terminals, so this is the paper's
// "discard Steiner trees that are sub-trees of others" answer, and the
// reduced answer trees of the BANKS family, which Kimelfeld & Sagiv (PODS
// 2006) rank-enumerate. A best-first search builds each minimal tree
// exactly once, adding one terminal at a time along a simple path
// (minimal.go), so complete trees come out in cost order and the search
// stops after the k-th.
//
// TopK without Dedup runs the walk DP of Ding et al. (DPBF, ICDE'07)
// relaxed to k pops per (vertex, terminal subset) state (walk.go). It
// returns non-minimal trees and can miss minimal ones; it is kept as the
// reference of the dedup-off ablation.
//
// QUEST runs TopK over a graph of the database *schema* (attribute nodes,
// PK-attribute and PK-FK edges): tens of vertices, not millions of tuples.
package steiner

import (
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

// Tree is a connected subtree of a graph with its total edge cost. A tree
// TopK returns is determined by its edge set alone: neither its root nor
// its cost depends on how it was found.
type Tree struct {
	// Root is the tree's lowest-id terminal (the core builder's FROM
	// table).
	Root  int
	Edges []Edge // canonical: From < To, sorted
	// Cost is the sum of the edge weights, added in Edges order.
	Cost float64

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

// rank orders the search heaps' entries by cost, then by push sequence,
// so ties break deterministically.
type rank struct {
	cost float64
	seq  int
}

func (r *rank) ranked() *rank { return r }

// rankHeap is a container/heap of entries ordered by their rank.
type rankHeap[T interface{ ranked() *rank }] []T

func (h rankHeap[T]) Len() int { return len(h) }
func (h rankHeap[T]) Less(i, j int) bool {
	a, b := h[i].ranked(), h[j].ranked()
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	return a.seq < b.seq
}
func (h rankHeap[T]) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *rankHeap[T]) Push(x any)   { *h = append(*h, x.(T)) }
func (h *rankHeap[T]) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// Options tunes TopK.
type Options struct {
	// Dedup returns only minimal trees, whose leaves are all terminals, so
	// no returned tree contains another (the paper's "mechanism for
	// efficiently discarding Steiner Trees that are sub-trees of others
	// previously computed"). Off, TopK runs the walk DP, the reference of
	// the dedup-off ablation.
	Dedup bool
}

// TopK returns up to k minimum-cost trees connecting all terminal vertices,
// in nondecreasing cost order, each rooted at the lowest-id terminal.
// Terminals may repeat; unknown vertices cause an error, and so do more
// than 30 distinct terminals. With a single terminal the result is the
// trivial one-vertex tree.
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
	if opt.Dedup {
		return g.minimalTopK(ids, k), nil
	}
	return canonical(g.walkTopK(ids, k), ids[0]), nil
}

// sortByCost stable-sorts trees by Cost.
func sortByCost(trees []*Tree) []*Tree {
	sort.SliceStable(trees, func(i, j int) bool { return trees[i].Cost < trees[j].Cost })
	return trees
}

// edgeSum is a tree's canonical cost: its edge weights summed in Edges
// order.
func edgeSum(edges []Edge) float64 {
	c := 0.0
	for _, e := range edges {
		c += e.Weight
	}
	return c
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
