package steiner

import "container/heap"

// maxWalkExpansions bounds the walk DP's state expansions.
const maxWalkExpansions = 1 << 20

// dpState identifies a DP entry: best tree rooted at v covering terminal
// subset mask.
type dpState struct {
	v    int
	mask uint32
}

type dpEntry struct {
	rank
	tree  *Tree
	state dpState
}

// walkTopK is the walk DP behind TopK with Dedup off: the DPBF of Ding et
// al. (ICDE'07) relaxed to pop every (vertex, terminal subset) state up to k
// times, emitting complete trees as they surface. It grows non-minimal trees
// (a leaf need not be a terminal), drains its heap whenever fewer than k
// trees exist, and can miss minimal trees when non-minimal pops use up a
// state's budget: on the triangle a-b (1), b-c (1), a-c (2.5) with
// terminals {a, c} it returns only a-b-c. It is kept as the reference of
// the dedup-off ablation. ids are sorted and distinct.
func (g *Graph) walkTopK(ids []int, k int) []*Tree {
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

	h := &rankHeap[*dpEntry]{}
	seq := 0
	push := func(st dpState, tr *Tree) {
		seq++
		heap.Push(h, &dpEntry{rank: rank{cost: tr.Cost, seq: seq}, tree: tr, state: st})
	}

	for _, id := range ids {
		push(dpState{v: id, mask: termMask[id]}, &Tree{Root: id})
	}

	var results []*Tree
	emittedSig := make(map[string]bool)
	expansions := 0
	for h.Len() > 0 && len(results) < k && expansions < maxWalkExpansions {
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
			// always distinct trees.
			sig := e.tree.Signature()
			if emittedSig[sig] {
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
	return results
}

// canonical re-roots each tree at root and re-costs it as edgeSum, then
// stable-sorts by that cost.
func canonical(trees []*Tree, root int) []*Tree {
	out := make([]*Tree, len(trees))
	for i, t := range trees {
		out[i] = &Tree{Root: root, Edges: t.Edges, Cost: edgeSum(t.Edges), sig: t.sig}
	}
	return sortByCost(out)
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
