package steiner

import (
	"sync"
	"testing"
)

func TestSignatureMemoized(t *testing.T) {
	tr := &Tree{
		Root: 0,
		Edges: []Edge{
			{From: 0, To: 2},
			{From: 2, To: 5},
		},
	}
	want := "0-2,2-5"
	if got := tr.Signature(); got != want {
		t.Fatalf("Signature = %q, want %q", got, want)
	}
	if tr.sig != want {
		t.Fatalf("signature not memoized: sig = %q", tr.sig)
	}
	if got := tr.Signature(); got != want {
		t.Fatalf("second Signature = %q, want %q", got, want)
	}
}

func TestSignatureEmptyTree(t *testing.T) {
	tr := &Tree{Root: 3}
	if got := tr.Signature(); got != "" {
		t.Fatalf("empty-tree Signature = %q, want empty", got)
	}
}

// TestTopKEmittedTreesHaveSignatures ensures trees returned by TopK carry a
// precomputed signature, so sharing them across goroutines (the backward
// module's memo) never triggers a lazy write.
func TestTopKEmittedTreesHaveSignatures(t *testing.T) {
	g := NewGraph()
	g.AddEdge("a", "b", 1, "fk")
	g.AddEdge("b", "c", 1, "fk")
	g.AddEdge("a", "c", 3, "fk")
	trees, err := g.TopK([]string{"a", "c"}, 3, Options{Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) == 0 {
		t.Fatal("no trees")
	}
	for i, tr := range trees {
		if len(tr.Edges) > 0 && tr.sig == "" {
			t.Fatalf("tree %d emitted without a precomputed signature", i)
		}
	}
	// Concurrent reads of the memoized signature must agree.
	var wg sync.WaitGroup
	want := trees[0].Signature()
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := trees[0].Signature(); got != want {
				t.Errorf("concurrent Signature = %q, want %q", got, want)
			}
		}()
	}
	wg.Wait()
}

func TestEdgeKeyCanonical(t *testing.T) {
	a := edgeKey(Edge{From: 3, To: 9})
	b := edgeKey(Edge{From: 9, To: 3})
	if a != b {
		t.Fatalf("edgeKey not direction-invariant: %d vs %d", a, b)
	}
	c := edgeKey(Edge{From: 3, To: 10})
	if a == c {
		t.Fatal("distinct edges collide")
	}
}
