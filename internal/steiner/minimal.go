package steiner

import (
	"container/heap"
	"math"
	"math/bits"
)

// growth is one state of the minimal-tree search: the minimal subtree
// spanning terminals ids[:next] and, while tip >= 0, one open simple path
// that starts on that subtree, touches it nowhere else and grows toward
// ids[next]. Every state adds one edge to its parent's, so a state's edges
// are the edges along its parent chain.
type growth struct {
	rank   // cost: edge weights summed in construction order
	parent *growth
	edge   Edge     // the edge this state added; unset at the root
	used   []uint64 // bitset of the vertices on the subtree and the path
	tip    int      // last vertex of the open path, or -1
	next   int      // index of the terminal the tree grows toward
}

func has(set []uint64, v int) bool { return set[v>>6]&(1<<(uint(v)&63)) != 0 }
func add(set []uint64, v int)      { set[v>>6] |= 1 << (uint(v) & 63) }

// with returns a copy of set with v added.
func with(set []uint64, v int) []uint64 {
	c := append([]uint64(nil), set...)
	add(c, v)
	return c
}

// minimalSearch is the working state of one minimalTopK call.
type minimalSearch struct {
	g     *Graph
	ids   []int
	h     rankHeap[*growth]
	seq   int
	seen  []uint64 // reachable's scratch bitset
	stack []int    // reachable's scratch stack
}

// minimalTopK returns the k cheapest minimal Steiner trees spanning the
// sorted, distinct terminal ids: trees whose leaves are all terminals.
//
// The search adds terminals in id order. A minimal tree T fixes its own
// construction: the part of T spanning ids[:i+1] is the part spanning
// ids[:i] plus T's path from it to ids[i] (nothing when ids[i] is already
// on it), and that path touches the smaller part only where it starts. So
// every minimal tree is built exactly once, with no duplicate to drop and
// no tree to compare against another, and with non-negative weights
// complete trees pop in cost order.
func (g *Graph) minimalTopK(ids []int, k int) []*Tree {
	words := (len(g.adj) + 63) / 64
	s := &minimalSearch{g: g, ids: ids, seen: make([]uint64, words)}
	root := &growth{used: make([]uint64, words), tip: -1}
	add(root.used, ids[0])
	root.next = s.uncovered(root.used, 1)
	s.push(root)

	// Trees pop in order of their construction-order cost; the result is
	// ordered by the canonical cost, which can differ from it in the last
	// bits. Once k trees are out, popping goes on up to a slack above the
	// largest canonical cost among them. Two sums of the same n weights
	// differ by at most about n·2^-52 relative, and a tree has fewer edges
	// than the graph has vertices, so a slack of len(adj)·2^-50 covers it.
	var out []*Tree
	limit := math.Inf(1)
	for s.h.Len() > 0 {
		st := heap.Pop(&s.h).(*growth)
		if st.cost > limit {
			break
		}
		if st.next == len(ids) {
			out = append(out, s.tree(st))
			if len(out) == k {
				limit = 0
				for _, t := range out {
					limit = max(limit, t.Cost)
				}
				limit += limit * float64(len(g.adj)) * 0x1p-50
			}
			continue
		}
		if st.tip >= 0 {
			s.grow(st, st.tip)
			continue
		}
		for w, word := range st.used {
			for ; word != 0; word &= word - 1 {
				s.grow(st, w<<6|bits.TrailingZeros64(word))
			}
		}
	}
	out = sortByCost(out)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// grow pushes a child of st for every edge from v to a vertex on neither
// st's subtree nor its path, folding the path in when the edge reaches
// the target terminal, and dropping a path that can no longer reach it.
func (s *minimalSearch) grow(st *growth, v int) {
	target := s.ids[st.next]
	for i, e := range s.g.adj[v] {
		x := e.To
		if has(st.used, x) || s.g.shadowed(v, i) {
			continue
		}
		if x != target && !s.reachable(x, target, st.used) {
			continue
		}
		c := &growth{rank: rank{cost: st.cost + e.Weight}, parent: st, edge: canonEdge(e),
			used: with(st.used, x), tip: x, next: st.next}
		if x == target {
			c.tip = -1
			c.next = s.uncovered(c.used, st.next+1)
		}
		s.push(c)
	}
}

func (s *minimalSearch) push(st *growth) {
	s.seq++
	st.seq = s.seq
	heap.Push(&s.h, st)
}

// uncovered returns the index of the first terminal from ids[i:] not in
// used, or len(ids).
func (s *minimalSearch) uncovered(used []uint64, i int) int {
	for i < len(s.ids) && has(used, s.ids[i]) {
		i++
	}
	return i
}

// reachable reports whether target can be reached from x without passing
// through a vertex of used.
func (s *minimalSearch) reachable(x, target int, used []uint64) bool {
	copy(s.seen, used)
	add(s.seen, x)
	s.stack = append(s.stack[:0], x)
	for len(s.stack) > 0 {
		v := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		for _, e := range s.g.adj[v] {
			if e.To == target {
				return true
			}
			if !has(s.seen, e.To) {
				add(s.seen, e.To)
				s.stack = append(s.stack, e.To)
			}
		}
	}
	return false
}

// tree materialises a complete state's edges as a canonical Tree.
func (s *minimalSearch) tree(st *growth) *Tree {
	var edges []Edge
	for ; st.parent != nil; st = st.parent {
		edges = append(edges, st.edge)
	}
	sortEdges(edges)
	t := &Tree{Root: s.ids[0], Edges: edges, Cost: edgeSum(edges)}
	t.Signature()
	return t
}

// shadowed reports whether adj[v][i] has a parallel edge that is cheaper,
// or as cheap and listed first. Trees through either edge share one
// signature, and the search keeps only the cheaper.
func (g *Graph) shadowed(v, i int) bool {
	e := g.adj[v][i]
	for j, f := range g.adj[v] {
		if f.To == e.To && (f.Weight < e.Weight || f.Weight == e.Weight && j < i) {
			return true
		}
	}
	return false
}
