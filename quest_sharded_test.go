package quest_test

import (
	"sort"
	"strings"
	"testing"

	quest "repro"
)

// TestOpenShardedEndToEnd runs the public sharded engine against the
// single-node engine on the same instance: searches succeed with
// PruneEmpty validation fanning out across shards, and executing a ranked
// explanation returns the same tuples either way — the execution topology
// is invisible to results.
func TestOpenShardedEndToEnd(t *testing.T) {
	build := func() *quest.Database {
		return quest.BuildIMDB(quest.DatasetConfig{Seed: 42, Scale: 1})
	}
	opts := quest.Defaults()
	opts.PruneEmpty = true
	full := quest.Open(build(), opts)
	sharded, err := quest.OpenSharded(build(), 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	src, ok := sharded.Source().(*quest.ShardedSource)
	if !ok {
		t.Fatalf("sharded engine source = %T", sharded.Source())
	}
	if src.ShardCount() != 3 {
		t.Fatalf("ShardCount = %d, want 3", src.ShardCount())
	}

	for _, query := range []string{"spielberg drama", "scorsese thriller"} {
		fx, err := full.Search(query)
		if err != nil {
			t.Fatalf("full search %q: %v", query, err)
		}
		sx, err := sharded.Search(query)
		if err != nil {
			t.Fatalf("sharded search %q: %v", query, err)
		}
		if len(fx) == 0 || len(sx) == 0 {
			t.Fatalf("%q: empty result (full=%d sharded=%d)", query, len(fx), len(sx))
		}
		// Execute the sharded engine's top explanation on both engines: the
		// SQL is the contract, so the tuple multisets must coincide.
		stmt := sx[0].SQL
		fres, err := quest.RunSQL(quest.BuildIMDB(quest.DatasetConfig{Seed: 42, Scale: 1}), stmt)
		if err != nil {
			t.Fatalf("full execution of %q: %v", stmt, err)
		}
		sres, err := sharded.Execute(sx[0])
		if err != nil {
			t.Fatalf("sharded execution of %q: %v", stmt, err)
		}
		if len(fres.Rows) != len(sres.Rows) {
			t.Fatalf("%q: %d rows sharded vs %d full", stmt, len(sres.Rows), len(fres.Rows))
		}
		canon := func(res *quest.Result) []string {
			out := make([]string, len(res.Rows))
			for i, r := range res.Rows {
				var b strings.Builder
				for _, v := range r {
					b.WriteString(v.String())
					b.WriteByte('|')
				}
				out[i] = b.String()
			}
			sort.Strings(out)
			return out
		}
		f, s := canon(fres), canon(sres)
		for i := range f {
			if f[i] != s[i] {
				t.Fatalf("%q: row divergence %s vs %s", stmt, s[i], f[i])
			}
		}
	}

	// PruneEmpty ran existence probes through the shard fan-out.
	if st := src.Stats(); st.ExistsProbes == 0 && st.GatherQueries == 0 {
		t.Error("sharded engine never touched the coordinator paths")
	}

	// Statistics flow through the engine regardless of topology.
	fcs, err := full.ColumnStatistics("movie", "production_year")
	if err != nil {
		t.Fatal(err)
	}
	scs, err := sharded.ColumnStatistics("movie", "production_year")
	if err != nil {
		t.Fatal(err)
	}
	if fcs.Rows != scs.Rows || fcs.NullCount != scs.NullCount {
		t.Errorf("merged stats rows/nulls %d/%d, want %d/%d", scs.Rows, scs.NullCount, fcs.Rows, fcs.NullCount)
	}
}
