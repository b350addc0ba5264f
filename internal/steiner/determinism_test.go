package steiner

import (
	"math/rand"
	"testing"
)

// TestTopKDeterministic: repeated runs over the same graph must return the
// same trees in the same order — heap tie-breaking and merge iteration must
// not depend on map order (a regression test for a real bug: map-ordered
// merge iteration leaked into heap sequence numbers).
func TestTopKDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(r, 7, 5)
		terms := []string{"a", "d", "g"}
		first, err := g.TopK(terms, 8, Options{Dedup: true})
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 3; rep++ {
			again, err := g.TopK(terms, 8, Options{Dedup: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(again) != len(first) {
				t.Fatalf("trial %d rep %d: %d trees vs %d", trial, rep, len(again), len(first))
			}
			for i := range first {
				if first[i].Signature() != again[i].Signature() || first[i].Cost != again[i].Cost {
					t.Fatalf("trial %d rep %d: tree %d differs:\n%s (%v)\n%s (%v)",
						trial, rep, i, first[i].Signature(), first[i].Cost,
						again[i].Signature(), again[i].Cost)
				}
			}
		}
	}
}

// TestTopKFreshGraphDeterministic: rebuilding the same graph from scratch
// (fresh maps, fresh vertex ids) must also reproduce results.
func TestTopKFreshGraphDeterministic(t *testing.T) {
	build := func() *Graph {
		r := rand.New(rand.NewSource(99))
		return randomGraph(r, 8, 6)
	}
	g1, g2 := build(), build()
	t1, err := g1.TopK([]string{"a", "e", "h"}, 6, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := g2.TopK([]string{"a", "e", "h"}, 6, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(t1) != len(t2) {
		t.Fatalf("tree counts differ: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i].Signature() != t2[i].Signature() {
			t.Fatalf("tree %d differs across graph rebuilds", i)
		}
	}
}
