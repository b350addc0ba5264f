package steiner_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/relational"
	"repro/internal/steiner"
	"repro/internal/wrapper"
)

// schemaGraph is the backward module's schema graph of db, weighted as the
// engine weights it by default.
func schemaGraph(db *relational.Database) *steiner.Graph {
	return core.NewBackward(wrapper.NewFullAccessSource(db), core.DefaultBackwardOptions()).Graph()
}

func schemaGraphs() map[string]*steiner.Graph {
	cfg := datasets.Config{Seed: 42, Scale: 1}
	return map[string]*steiner.Graph{
		"imdb":    schemaGraph(datasets.IMDB(cfg)),
		"mondial": schemaGraph(datasets.Mondial(cfg)),
		"dblp":    schemaGraph(datasets.DBLP(cfg)),
	}
}

// edgeList returns every undirected edge of g once.
func edgeList(g *steiner.Graph) []steiner.Edge {
	var all []steiner.Edge
	for v := 0; v < g.Len(); v++ {
		for _, e := range g.Neighbors(v) {
			if e.From < e.To {
				all = append(all, e)
			}
		}
	}
	return all
}

// canonicalTree builds the Tree TopK would return for an edge set: rooted
// at the lowest-id terminal, edges sorted, cost summed in that order.
func canonicalTree(edges []steiner.Edge, root int) *steiner.Tree {
	edges = append([]steiner.Edge(nil), edges...)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	cost := 0.0
	for _, e := range edges {
		cost += e.Weight
	}
	return &steiner.Tree{Root: root, Edges: edges, Cost: cost}
}

// ranked deduplicates trees by signature, keeping the cheapest, and
// stable-sorts them by cost.
func ranked(trees []*steiner.Tree) []*steiner.Tree {
	best := map[string]*steiner.Tree{}
	var out []*steiner.Tree
	for _, t := range trees {
		sig := t.Signature()
		if b, ok := best[sig]; !ok {
			best[sig] = t
			out = append(out, t)
		} else if t.Cost < b.Cost {
			*b = steiner.Tree{Root: t.Root, Edges: t.Edges, Cost: t.Cost}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cost < out[j].Cost })
	return out
}

// terminalIDs returns the sorted distinct vertex ids of names.
func terminalIDs(g *steiner.Graph, names []string) []int {
	seen := map[int]bool{}
	var ids []int
	for _, n := range names {
		if id := g.Vertex(n); !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// components returns the number of connected components of the vertices
// 0..n-1 joined by edges.
func components(n int, edges []steiner.Edge) int {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(v int) int {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	count := n
	for _, e := range edges {
		if a, b := find(e.From), find(e.To); a != b {
			parent[a] = b
			count--
		}
	}
	return count
}

// spanningForests returns every maximal spanning forest of g: the edge
// sets left after removing E-V+C edges that keep the C components.
func spanningForests(g *steiner.Graph) [][]steiner.Edge {
	all := edgeList(g)
	c := components(g.Len(), all)
	drop := len(all) - g.Len() + c
	var out [][]steiner.Edge
	removed := make([]bool, len(all))
	var choose func(from, left int)
	choose = func(from, left int) {
		if left == 0 {
			var kept []steiner.Edge
			for i, e := range all {
				if !removed[i] {
					kept = append(kept, e)
				}
			}
			if components(g.Len(), kept) == c {
				out = append(out, kept)
			}
			return
		}
		for i := from; i <= len(all)-left; i++ {
			removed[i] = true
			choose(i+1, left-1)
			removed[i] = false
		}
	}
	choose(0, drop)
	return out
}

// pruneToTerminals strips non-terminal leaves from a forest until every
// leaf is a terminal, and returns the remaining edges when they form one
// tree covering every terminal.
func pruneToTerminals(forest []steiner.Edge, ids []int) ([]steiner.Edge, bool) {
	term := map[int]bool{}
	for _, id := range ids {
		term[id] = true
	}
	alive := append([]steiner.Edge(nil), forest...)
	for {
		deg := map[int]int{}
		for _, e := range alive {
			deg[e.From]++
			deg[e.To]++
		}
		kept := alive[:0]
		for _, e := range alive {
			if (deg[e.From] == 1 && !term[e.From]) || (deg[e.To] == 1 && !term[e.To]) {
				continue
			}
			kept = append(kept, e)
		}
		if len(kept) == len(alive) {
			break
		}
		alive = kept
	}
	if len(ids) == 1 {
		return nil, true // the trivial tree; any surviving edges form other components
	}
	verts := map[int]bool{}
	for _, e := range alive {
		verts[e.From] = true
		verts[e.To] = true
	}
	for _, id := range ids {
		if !verts[id] {
			return nil, false
		}
	}
	// A forest with one more vertex than edges is one tree.
	if len(verts) != len(alive)+1 {
		return nil, false
	}
	return alive, true
}

// minimalBySpanningForests lists every minimal Steiner tree of the
// terminals by pruning each spanning forest of g, cheapest first.
func minimalBySpanningForests(forests [][]steiner.Edge, ids []int) []*steiner.Tree {
	var trees []*steiner.Tree
	for _, f := range forests {
		if edges, ok := pruneToTerminals(f, ids); ok {
			trees = append(trees, canonicalTree(edges, ids[0]))
		}
	}
	return ranked(trees)
}

// checkRanking holds got, TopK's answer for k, to want, the full ranked
// list of minimal trees: the same cost bits position by position, every
// tree one of want's trees of the same cost, no tree twice, and each tree
// rooted and costed canonically. Order may differ only among trees of
// bitwise-equal cost.
func checkRanking(t *testing.T, label string, got, want []*steiner.Tree, k int, root int) {
	t.Helper()
	n := min(k, len(want))
	if len(got) != n {
		t.Errorf("%s: %d trees, want %d (%s)", label, len(got), n, sigs(want))
		return
	}
	byCost := map[uint64]map[string]bool{}
	for _, w := range want {
		bits := math.Float64bits(w.Cost)
		if byCost[bits] == nil {
			byCost[bits] = map[string]bool{}
		}
		byCost[bits][w.Signature()] = true
	}
	seen := map[string]bool{}
	for i, tr := range got {
		sig := tr.Signature()
		if math.Float64bits(tr.Cost) != math.Float64bits(want[i].Cost) {
			t.Errorf("%s: tree %d costs %v, want %v\n got  %s\n want %s", label, i, tr.Cost, want[i].Cost, sigs(got), sigs(want))
			return
		}
		if !byCost[math.Float64bits(tr.Cost)][sig] || seen[sig] {
			t.Errorf("%s: tree %d %q is not a distinct minimal tree of cost %v\n got  %s\n want %s", label, i, sig, tr.Cost, sigs(got), sigs(want))
			return
		}
		seen[sig] = true
		if c := canonicalTree(tr.Edges, root); tr.Root != root || c.Cost != tr.Cost {
			t.Errorf("%s: tree %d rooted at %d costing %v, want %d and %v", label, i, tr.Root, tr.Cost, root, c.Cost)
		}
	}
}

func sigs(trees []*steiner.Tree) []string {
	var out []string
	for _, t := range trees {
		out = append(out, t.Signature())
	}
	return out
}

// TestTopKMatchesMinimalTrees: with Dedup, TopK returns the k cheapest
// minimal Steiner trees (every leaf a terminal). The oracle prunes every
// spanning tree of the graph to the subtree spanning the terminals, which
// yields each minimal tree at least once, and ranks the distinct ones by
// canonical cost. It runs on the three schema graphs with random terminal
// sets of 1-6 vertices, and on a triangle whose second tree the walk DP
// misses.
func TestTopKMatchesMinimalTrees(t *testing.T) {
	graphs := schemaGraphs()
	tri := steiner.NewGraph()
	tri.AddEdge("a", "b", 1, "e")
	tri.AddEdge("b", "c", 1, "e")
	tri.AddEdge("a", "c", 2.5, "e")
	graphs["triangle"] = tri

	const k = 10
	r := rand.New(rand.NewSource(1))
	for _, name := range []string{"imdb", "mondial", "dblp", "triangle"} {
		g := graphs[name]
		forests := spanningForests(g)
		sets := 100
		if name == "triangle" {
			sets = 20
		}
		for i := 0; i < sets; i++ {
			size := 1 + r.Intn(6)
			names := make([]string, size)
			for j := range names {
				names[j] = g.Name(r.Intn(g.Len()))
			}
			ids := terminalIDs(g, names)
			got, err := g.TopK(names, k, steiner.Options{Dedup: true})
			if err != nil {
				t.Fatal(err)
			}
			want := minimalBySpanningForests(forests, ids)
			checkRanking(t, fmt.Sprintf("%s %v", name, names), got, want, k, ids[0])
		}
	}
}

// TestMaxExpansionsBounds: the decode's work is bounded by the minimal
// trees it can still reach, not by an expansion budget. A 6-terminal
// decode over the IMDB and the Mondial schema graph each allocates less
// than 1 MB (the walk DP allocated about 120 MB and 400 MB).
func TestMaxExpansionsBounds(t *testing.T) {
	graphs := schemaGraphs()
	r := rand.New(rand.NewSource(6))
	for _, name := range []string{"imdb", "mondial"} {
		g := graphs[name]
		for set := 0; set < 5; set++ {
			var names []string
			for _, v := range r.Perm(g.Len())[:6] {
				names = append(names, g.Name(v))
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			trees, err := g.TopK(names, 10, steiner.Options{Dedup: true})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if len(trees) == 0 {
				t.Fatalf("%s %v: no tree over a connected schema graph", name, names)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
				t.Errorf("%s %v: decode allocated %d bytes, want < 1 MB", name, names, alloc)
			}
		}
	}
}

// FuzzSteinerTopK holds TopK with Dedup to a brute force over every edge
// subset of a small random connected graph: the subsets that form a tree
// spanning the terminals with only terminals as leaves, ranked by
// canonical cost (`make fuzz-smoke`).
func FuzzSteinerTopK(f *testing.F) {
	f.Add([]byte{5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint8(3), uint8(10))
	f.Add([]byte{2, 0, 0, 0}, uint8(1), uint8(1))
	f.Add([]byte{8, 200, 13, 7, 91, 3, 44, 5, 6, 250, 31, 17, 9, 2, 1, 0, 77, 12, 60, 61, 62, 63}, uint8(4), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, nterms, k uint8) {
		g, names := fuzzGraph(data, int(nterms%4)+1)
		if g == nil {
			return
		}
		kk := int(k%10) + 1
		got, err := g.TopK(names, kk, steiner.Options{Dedup: true})
		if err != nil {
			t.Fatal(err)
		}
		ids := terminalIDs(g, names)
		checkRanking(t, fmt.Sprint(names), got, bruteForceMinimal(g, ids), kk, ids[0])
	})
}

// fuzzGraph decodes a connected graph of 2-9 vertices and at most 14
// edges with positive weights, and nterms terminal names, from data.
func fuzzGraph(data []byte, nterms int) (*steiner.Graph, []string) {
	if len(data) < 2 {
		return nil, nil
	}
	n := 2 + int(data[0])%8
	data = data[1:]
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	weight := func() float64 { return float64(1+next()) / 7 }
	name := func(v int) string { return string(rune('a' + v)) }
	g := steiner.NewGraph()
	for v := 0; v < n; v++ {
		g.AddVertex(name(v))
	}
	// A random spanning tree keeps the graph connected ...
	for v := 1; v < n; v++ {
		g.AddEdge(name(next()%v), name(v), weight(), "e")
	}
	// ... and the remaining bytes add edges, parallel ones included.
	for g.EdgeCount() < 14 && len(data) >= 3 {
		a, b := next()%n, next()%n
		if a != b {
			g.AddEdge(name(a), name(b), weight(), "e")
		} else {
			next()
		}
	}
	names := make([]string, nterms)
	for i := range names {
		names[i] = name(next() % n)
	}
	return g, names
}

// bruteForceMinimal ranks every edge subset of g that forms a tree
// spanning ids whose leaves are all terminals.
func bruteForceMinimal(g *steiner.Graph, ids []int) []*steiner.Tree {
	all := edgeList(g)
	term := map[int]bool{}
	for _, id := range ids {
		term[id] = true
	}
	var trees []*steiner.Tree
	for mask := 0; mask < 1<<len(all); mask++ {
		var edges []steiner.Edge
		deg := map[int]int{}
		for i, e := range all {
			if mask&(1<<i) != 0 {
				edges = append(edges, e)
				deg[e.From]++
				deg[e.To]++
			}
		}
		if len(edges) == 0 {
			if len(ids) == 1 {
				trees = append(trees, canonicalTree(nil, ids[0]))
			}
			continue
		}
		leavesOK := true
		for v, d := range deg {
			if d == 1 && !term[v] {
				leavesOK = false
				break
			}
		}
		if !leavesOK || len(deg) != len(edges)+1 {
			continue
		}
		covered := true
		for _, id := range ids {
			if deg[id] == 0 {
				covered = false
				break
			}
		}
		if covered && components(g.Len(), edges) == g.Len()-len(edges) {
			trees = append(trees, canonicalTree(edges, ids[0]))
		}
	}
	return ranked(trees)
}
