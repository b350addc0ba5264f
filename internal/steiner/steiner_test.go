package steiner

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// pathGraph builds a—b—c—d—e with unit weights.
func pathGraph() *Graph {
	g := NewGraph()
	g.AddEdge("a", "b", 1, "e")
	g.AddEdge("b", "c", 1, "e")
	g.AddEdge("c", "d", 1, "e")
	g.AddEdge("d", "e", 1, "e")
	return g
}

// diamondGraph has two routes between a and d: a-b-d (cost 2) and a-c-d
// (cost 3).
func diamondGraph() *Graph {
	g := NewGraph()
	g.AddEdge("a", "b", 1, "e")
	g.AddEdge("b", "d", 1, "e")
	g.AddEdge("a", "c", 1, "e")
	g.AddEdge("c", "d", 2, "e")
	return g
}

// forModes runs f under both of TopK's decoders: the walk DP (Dedup off)
// and the minimal-tree search (Dedup on).
func forModes(t *testing.T, f func(t *testing.T, opt Options)) {
	t.Run("walk", func(t *testing.T) { f(t, Options{}) })
	t.Run("minimal", func(t *testing.T) { f(t, Options{Dedup: true}) })
}

func TestGraphBasics(t *testing.T) {
	g := pathGraph()
	if g.Len() != 5 {
		t.Fatalf("Len() = %d, want 5", g.Len())
	}
	if g.EdgeCount() != 4 {
		t.Fatalf("EdgeCount() = %d, want 4", g.EdgeCount())
	}
	if g.Vertex("a") < 0 || g.Vertex("zz") != -1 {
		t.Fatal("vertex lookup broken")
	}
	if g.Name(g.Vertex("c")) != "c" {
		t.Fatal("Name round trip broken")
	}
	// Duplicate AddVertex must not grow the graph.
	id := g.AddVertex("a")
	if id != g.Vertex("a") || g.Len() != 5 {
		t.Fatal("AddVertex must be idempotent")
	}
	// Self loops are dropped.
	g.AddEdge("a", "a", 1, "e")
	if g.EdgeCount() != 4 {
		t.Fatal("self loop must be ignored")
	}
}

func TestTopKShortestPathBetweenTwoTerminals(t *testing.T) {
	forModes(t, func(t *testing.T, opt Options) {
		g := diamondGraph()
		trees, err := g.TopK([]string{"a", "d"}, 2, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(trees) != 2 {
			t.Fatalf("got %d trees, want 2", len(trees))
		}
		if trees[0].Cost != 2 {
			t.Fatalf("best cost = %v, want 2 (a-b-d)", trees[0].Cost)
		}
		if trees[1].Cost != 3 {
			t.Fatalf("second cost = %v, want 3 (a-c-d)", trees[1].Cost)
		}
		if !trees[0].ContainsAll([]int{g.Vertex("a"), g.Vertex("d")}) {
			t.Fatal("tree must contain terminals")
		}
	})
}

func TestTopKSingleTerminal(t *testing.T) {
	forModes(t, func(t *testing.T, opt Options) {
		g := pathGraph()
		trees, err := g.TopK([]string{"c"}, 3, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(trees) == 0 {
			t.Fatal("single terminal must yield the trivial tree")
		}
		if trees[0].Cost != 0 || len(trees[0].Edges) != 0 {
			t.Fatalf("trivial tree = %+v", trees[0])
		}
		if trees[0].Root != g.Vertex("c") {
			t.Fatal("trivial tree rooted wrong")
		}
	})
}

func TestTopKThreeTerminalsStar(t *testing.T) {
	forModes(t, func(t *testing.T, opt Options) {
		// Star: hub h connects x, y, z; terminals x,y,z -> tree must include hub.
		g := NewGraph()
		g.AddEdge("x", "h", 1, "e")
		g.AddEdge("y", "h", 1, "e")
		g.AddEdge("z", "h", 1, "e")
		trees, err := g.TopK([]string{"x", "y", "z"}, 1, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(trees) != 1 || trees[0].Cost != 3 {
			t.Fatalf("trees = %+v", trees)
		}
		verts := trees[0].Vertices()
		if len(verts) != 4 {
			t.Fatalf("tree must include the Steiner point: %v", verts)
		}
	})
}

func TestTopKUnknownTerminal(t *testing.T) {
	g := pathGraph()
	if _, err := g.TopK([]string{"a", "nope"}, 1, Options{}); err == nil {
		t.Fatal("unknown terminal must error")
	}
}

func TestTopKDisconnected(t *testing.T) {
	forModes(t, func(t *testing.T, opt Options) {
		g := pathGraph()
		g.AddVertex("island")
		trees, err := g.TopK([]string{"a", "island"}, 3, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(trees) != 0 {
			t.Fatalf("disconnected terminals must yield no tree, got %d", len(trees))
		}
	})
}

func TestTopKZeroOrNegativeK(t *testing.T) {
	g := pathGraph()
	for _, k := range []int{0, -3} {
		trees, err := g.TopK([]string{"a", "b"}, k, Options{})
		if err != nil || trees != nil {
			t.Fatalf("k=%d: trees=%v err=%v", k, trees, err)
		}
	}
}

func TestTopKDuplicateTerminals(t *testing.T) {
	forModes(t, func(t *testing.T, opt Options) {
		g := pathGraph()
		trees, err := g.TopK([]string{"a", "a", "c", "c"}, 1, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(trees) != 1 || trees[0].Cost != 2 {
			t.Fatalf("trees = %+v", trees)
		}
	})
}

func TestTopKCostsNondecreasing(t *testing.T) {
	forModes(t, func(t *testing.T, opt Options) {
		g := diamondGraph()
		g.AddEdge("b", "c", 0.5, "e")
		trees, err := g.TopK([]string{"a", "d"}, 5, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(trees); i++ {
			if trees[i].Cost < trees[i-1].Cost-1e-12 {
				t.Fatalf("costs decrease at %d: %v < %v", i, trees[i].Cost, trees[i-1].Cost)
			}
		}
	})
}

// TestDedupDropsSubtrees: with Dedup, TopK returns minimal trees only, so
// no result contains another. On the triangle a-b (1), b-c (1), a-c (2.5)
// with terminals {a, c}, both minimal trees come back, a-b-c first and a-c
// second. The walk DP (TopK without Dedup) returns only a-b-c: re-rooted
// copies of that tree use up every pop of the full-mask states.
func TestDedupDropsSubtrees(t *testing.T) {
	g := NewGraph()
	g.AddEdge("a", "b", 1, "e")
	g.AddEdge("b", "c", 1, "e")
	g.AddEdge("a", "c", 2.5, "e")
	trees, err := g.TopK([]string{"a", "c"}, 5, Options{Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	var sigs []string
	for _, tr := range trees {
		sigs = append(sigs, tr.Signature())
	}
	// a=0, b=1, c=2.
	if want := []string{"0-1,1-2", "0-2"}; !reflect.DeepEqual(sigs, want) {
		t.Fatalf("trees %v, want %v", sigs, want)
	}
	if trees[0].Cost != 2 || trees[1].Cost != 2.5 {
		t.Fatalf("costs %v, %v; want 2, 2.5", trees[0].Cost, trees[1].Cost)
	}
	for i := range trees {
		for j := 0; j < i; j++ {
			if trees[i].IsSubtreeOf(trees[j]) || trees[j].IsSubtreeOf(trees[i]) {
				t.Fatalf("result %d and %d are nested", i, j)
			}
		}
	}
}

func TestIsSubtreeOf(t *testing.T) {
	g := pathGraph()
	t1, _ := g.TopK([]string{"a", "b"}, 1, Options{})
	t2, _ := g.TopK([]string{"a", "c"}, 1, Options{})
	if !t1[0].IsSubtreeOf(t2[0]) {
		t.Fatal("a-b is a subtree of a-b-c")
	}
	if t2[0].IsSubtreeOf(t1[0]) {
		t.Fatal("a-b-c is not a subtree of a-b")
	}
	if !t1[0].IsSubtreeOf(t1[0]) {
		t.Fatal("a tree is a subtree of itself")
	}
}

func TestSignatureCanonical(t *testing.T) {
	g := diamondGraph()
	ts, _ := g.TopK([]string{"a", "d"}, 2, Options{})
	if ts[0].Signature() == ts[1].Signature() {
		t.Fatal("different trees must have different signatures")
	}
}

func randomGraph(r *rand.Rand, n, extraEdges int) *Graph {
	g := NewGraph()
	names := make([]string, n)
	for i := range names {
		names[i] = string(rune('a' + i))
		g.AddVertex(names[i])
	}
	// Spanning chain keeps it connected.
	for i := 1; i < n; i++ {
		w := float64(1+r.Intn(9)) / 2
		g.AddEdge(names[i-1], names[i], w, "e")
	}
	for e := 0; e < extraEdges; e++ {
		i, j := r.Intn(n), r.Intn(n)
		if i == j {
			continue
		}
		w := float64(1+r.Intn(9)) / 2
		g.AddEdge(names[i], names[j], w, "e")
	}
	return g
}

func TestTopKOptimalAgainstBruteForce(t *testing.T) {
	forModes(t, func(t *testing.T, opt Options) {
		r := rand.New(rand.NewSource(5))
		for trial := 0; trial < 40; trial++ {
			n := 4 + r.Intn(3)
			g := randomGraph(r, n, r.Intn(3))
			if g.EdgeCount() > 12 {
				continue
			}
			nt := 2 + r.Intn(2)
			terms := map[string]bool{}
			for len(terms) < nt {
				terms[string(rune('a'+r.Intn(n)))] = true
			}
			var list []string
			for v := range terms {
				list = append(list, v)
			}
			want, ok := bruteForceBest(t, g, list)
			got, err := g.TopK(list, 1, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				if len(got) != 0 {
					t.Fatalf("trial %d: TopK found tree, brute force none", trial)
				}
				continue
			}
			if len(got) == 0 {
				t.Fatalf("trial %d: TopK found nothing, brute force cost %v", trial, want.Cost)
			}
			if math.Abs(got[0].Cost-want.Cost) > 1e-9 {
				t.Fatalf("trial %d: TopK cost %v, optimal %v", trial, got[0].Cost, want.Cost)
			}
		}
	})
}

func TestTreesAreValidTrees(t *testing.T) {
	forModes(t, func(t *testing.T, opt Options) {
		r := rand.New(rand.NewSource(13))
		for trial := 0; trial < 20; trial++ {
			g := randomGraph(r, 6, 4)
			trees, err := g.TopK([]string{"a", "d", "f"}, 6, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range trees {
				verts := tr.Vertices()
				if len(verts) != len(tr.Edges)+1 {
					t.Fatalf("trial %d: not a tree: %d vertices, %d edges", trial, len(verts), len(tr.Edges))
				}
				sum := 0.0
				for _, e := range tr.Edges {
					sum += e.Weight
				}
				if math.Abs(sum-tr.Cost) > 1e-9 {
					t.Fatalf("trial %d: cost %v != edge sum %v", trial, tr.Cost, sum)
				}
			}
		}
	})
}

func TestNegativeWeightClamped(t *testing.T) {
	forModes(t, func(t *testing.T, opt Options) {
		g := NewGraph()
		g.AddEdge("a", "b", -5, "e")
		trees, err := g.TopK([]string{"a", "b"}, 1, opt)
		if err != nil {
			t.Fatal(err)
		}
		if trees[0].Cost != 0 {
			t.Fatalf("negative weight must clamp to 0, cost = %v", trees[0].Cost)
		}
	})
}

func TestTooManyTerminals(t *testing.T) {
	g := NewGraph()
	var terms []string
	for i := 0; i < 32; i++ {
		name := string(rune('A' + i))
		g.AddVertex(name)
		terms = append(terms, name)
	}
	if _, err := g.TopK(terms, 1, Options{}); err == nil {
		t.Fatal("more than 30 terminals must error")
	}
}

// bruteForceBest exhaustively finds the minimum-cost connected subtree
// covering the terminals by enumerating edge subsets. Exponential: it
// cross-checks TopK on small graphs only.
func bruteForceBest(t testing.TB, g *Graph, terminals []string) (*Tree, bool) {
	t.Helper()
	ids := make([]int, 0, len(terminals))
	seen := map[int]bool{}
	for _, n := range terminals {
		id := g.Vertex(n)
		if id < 0 {
			return nil, false
		}
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return nil, false
	}
	if len(ids) == 1 {
		return &Tree{Root: ids[0]}, true
	}
	var all []Edge
	for v := range g.adj {
		for _, e := range g.adj[v] {
			if e.From < e.To {
				all = append(all, e)
			}
		}
	}
	if len(all) > 22 {
		t.Fatalf("bruteForceBest: %d edges is too many to enumerate", len(all))
	}
	best := (*Tree)(nil)
	bestCost := math.Inf(1)
	for mask := 0; mask < 1<<uint(len(all)); mask++ {
		var edges []Edge
		cost := 0.0
		for i, e := range all {
			if mask&(1<<uint(i)) != 0 {
				edges = append(edges, e)
				cost += e.Weight
			}
		}
		if cost >= bestCost {
			continue
		}
		tree := &Tree{Root: ids[0], Edges: edges, Cost: cost}
		if !tree.ContainsAll(ids) {
			continue
		}
		// Connectivity + acyclicity.
		verts := map[int]bool{ids[0]: true}
		for _, e := range edges {
			verts[e.From] = true
			verts[e.To] = true
		}
		if len(verts) != len(edges)+1 {
			continue
		}
		if !connected(edges, ids[0], verts) {
			continue
		}
		bestCost = cost
		sortEdges(edges)
		best = tree
	}
	return best, best != nil
}

func connected(edges []Edge, start int, verts map[int]bool) bool {
	adj := map[int][]int{}
	for _, e := range edges {
		adj[e.From] = append(adj[e.From], e.To)
		adj[e.To] = append(adj[e.To], e.From)
	}
	visited := map[int]bool{start: true}
	stack := []int{start}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, n := range adj[v] {
			if !visited[n] {
				visited[n] = true
				stack = append(stack, n)
			}
		}
	}
	return len(visited) == len(verts)
}

// TestTopKRanksByCanonicalCost: the search pops trees by their cost summed
// in construction order, but ranks them by the canonical cost (summed in
// sorted edge order), and the two can differ in the last bits. Here the
// path a-p-q-r-s-d sums to 2.5000000000000004 as built and to
// 2.4999999999999996 canonically, and the direct edge a-d costs 2.5
// either way, so the direct tree pops first; the top-1 must still be the
// path.
func TestTopKRanksByCanonicalCost(t *testing.T) {
	g := NewGraph()
	for _, v := range []string{"a", "d", "p", "q", "r", "s"} {
		g.AddVertex(v)
	}
	g.AddEdge("a", "d", 2.5, "e")
	g.AddEdge("a", "p", 0.35, "e")
	g.AddEdge("p", "q", 1.1, "e")
	g.AddEdge("q", "r", 0.05, "e")
	g.AddEdge("r", "s", 0.4, "e")
	g.AddEdge("s", "d", 0.6, "e")
	trees, err := g.TopK([]string{"a", "d"}, 1, Options{Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 1 || trees[0].Signature() != "0-2,1-5,2-3,3-4,4-5" || trees[0].Cost != 2.4999999999999996 {
		t.Fatalf("top-1 = %+v, want the path a-p-q-r-s-d at 2.4999999999999996", trees)
	}
}
