package core

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cache"
	"repro/internal/relational"
	"repro/internal/steiner"
	"repro/internal/wrapper"
)

// Interpretation is one join path (Steiner tree over the schema graph)
// connecting the database terms of a configuration — the backward step's
// output unit.
type Interpretation struct {
	Config *Configuration
	Tree   *steiner.Tree
	// Graph is the schema graph the tree indexes into (needed to resolve
	// vertex names).
	Graph *steiner.Graph
	// Score is exp(−cost): cheap (informative) trees approach 1.
	Score float64
}

// ID identifies the interpretation by its configuration and edge set.
func (in *Interpretation) ID() string {
	return in.Config.ID() + "#" + in.Tree.Signature()
}

// Tables returns the sorted distinct tables spanned by the tree (attribute
// vertices are "table.column").
func (in *Interpretation) Tables() []string {
	set := make(map[string]bool)
	for _, v := range in.Tree.Vertices() {
		name := in.Graph.Name(v)
		if i := strings.IndexByte(name, '.'); i > 0 {
			set[name[:i]] = true
		}
	}
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// JoinSteps lists the PK↔FK edges of the tree (intra-table edges excluded),
// each as [fromTable, fromColumn, toTable, toColumn].
func (in *Interpretation) JoinSteps() [][4]string {
	var out [][4]string
	for _, e := range in.Tree.Edges {
		if e.Label != "fk" {
			continue
		}
		from := in.Graph.Name(e.From)
		to := in.Graph.Name(e.To)
		fi := strings.IndexByte(from, '.')
		ti := strings.IndexByte(to, '.')
		out = append(out, [4]string{from[:fi], from[fi+1:], to[:ti], to[ti+1:]})
	}
	return out
}

// BackwardOptions tunes the backward module.
type BackwardOptions struct {
	// UseMIWeights weights schema-graph edges with the mutual-information
	// distance measured on the instance; false falls back to uniform
	// weights (always the case for metadata-only sources). Ablation E8.
	UseMIWeights bool
	// Dedup decodes only minimal Steiner trees (every leaf a terminal), so
	// no interpretation's tree contains another's (the paper's pruning
	// mechanism); off, the walk DP decodes. Ablation E8.
	Dedup bool
	// IntraTableWeight is the base weight of PK→attribute edges (kept well
	// below FK edges so staying inside a table is always preferred).
	IntraTableWeight float64
	// FKBaseWeight is the base weight of PK↔FK edges before MI scaling.
	FKBaseWeight float64
	// CacheSize caps the memoized Steiner TopK LRU (entries, keyed on the
	// terminal set and k). The schema graph is immutable after setup, so
	// memoized trees never go stale. 0 selects DefaultSteinerCacheSize; a
	// negative value disables memoization.
	CacheSize int
}

// DefaultSteinerCacheSize is the Steiner memo capacity used when
// BackwardOptions.CacheSize is 0. Distinct terminal sets are bounded by the
// configurations the forward module can produce, so a few hundred entries
// cover a live workload.
const DefaultSteinerCacheSize = 512

// DefaultBackwardOptions returns the configuration used across the repo.
func DefaultBackwardOptions() BackwardOptions {
	return BackwardOptions{
		UseMIWeights:     true,
		Dedup:            true,
		IntraTableWeight: 0.1,
		FKBaseWeight:     1.0,
	}
}

// Backward is the backward module: it owns the schema graph and finds
// top-k interpretations for configurations. It is safe for concurrent use:
// the schema graph is immutable after construction and the TopK memo is a
// concurrent sharded LRU.
type Backward struct {
	source wrapper.Source
	opts   BackwardOptions
	graph  *steiner.Graph

	// treeCache memoizes graph.TopK results keyed on (terminal set, k).
	// A tree's root and cost follow from its edge set alone, so a memoized
	// slice is exactly what a fresh decode would return. Trees are
	// immutable once emitted, so cached slices are shared across calls and
	// goroutines; only the per-call Interpretation wrappers are allocated
	// fresh.
	treeCache *cache.LRU[string, []*steiner.Tree]
}

// NewBackward builds the schema graph for the source. With UseMIWeights and
// an instance-backed source, every edge weight is scaled by the MI distance
// of the underlying join; otherwise weights are uniform per edge class.
func NewBackward(src wrapper.Source, opts BackwardOptions) *Backward {
	b := &Backward{source: src, opts: opts}
	b.graph = b.buildGraph()
	size := opts.CacheSize
	if size == 0 {
		size = DefaultSteinerCacheSize
	}
	b.treeCache = cache.New[string, []*steiner.Tree](size) // nil (disabled) when size < 0
	return b
}

// Graph exposes the schema graph (diagnostics, visualization, tests).
func (b *Backward) Graph() *steiner.Graph { return b.graph }

func vertexName(table, column string) string {
	return strings.ToLower(table) + "." + strings.ToLower(column)
}

// buildGraph creates the schema graph of the paper's backward module: one
// node per attribute; edges (i) PK node ↔ every other attribute of the same
// table and (ii) PK ↔ FK attribute pairs across tables.
func (b *Backward) buildGraph() *steiner.Graph {
	g := steiner.NewGraph()
	schema := b.source.Schema()
	useMI := b.opts.UseMIWeights && b.source.HasInstanceAccess()

	for _, t := range schema.Tables() {
		pk := t.PrimaryKey
		if pk == "" && len(t.Columns) > 0 {
			// Tables without a declared PK anchor on their first column so
			// the graph stays connected per table.
			pk = t.Columns[0].Name
		}
		pkNode := vertexName(t.Name, pk)
		g.AddVertex(pkNode)
		for _, c := range t.Columns {
			if strings.EqualFold(c.Name, pk) {
				continue
			}
			w := b.opts.IntraTableWeight
			if useMI {
				if ps, err := b.edgeStats(t.Name, pk, t.Name, c.Name); err == nil {
					// Informative attributes (low distance) get cheaper edges.
					w = b.opts.IntraTableWeight * (0.5 + ps)
				}
			}
			g.AddEdge(pkNode, vertexName(t.Name, c.Name), w, "intra")
		}
	}
	for _, e := range schema.JoinEdges() {
		w := b.opts.FKBaseWeight
		if useMI {
			if d, err := b.source.EdgeDistance(e); err == nil {
				w = b.opts.FKBaseWeight * (0.25 + d)
			}
		}
		g.AddEdge(vertexName(e.FromTable, e.FromColumn), vertexName(e.ToTable, e.ToColumn), w, "fk")
	}
	return g
}

func (b *Backward) edgeStats(fromTable, fromCol, toTable, toCol string) (float64, error) {
	return b.source.EdgeDistance(relational.JoinEdge{
		FromTable: fromTable, FromColumn: fromCol,
		ToTable: toTable, ToColumn: toCol,
	})
}

// Terminals maps a configuration to the schema-graph vertices its terms pin
// down: attribute and domain terms anchor on their attribute node; table
// terms anchor on the table's PK node.
func (b *Backward) Terminals(c *Configuration) ([]string, error) {
	schema := b.source.Schema()
	seen := make(map[string]bool)
	var out []string
	add := func(v string) {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for _, t := range c.Terms {
		ts := schema.Table(t.Table)
		if ts == nil {
			return nil, fmt.Errorf("core: configuration references unknown table %s", t.Table)
		}
		switch t.Kind {
		case KindTable:
			pk := ts.PrimaryKey
			if pk == "" && len(ts.Columns) > 0 {
				pk = ts.Columns[0].Name
			}
			add(vertexName(t.Table, pk))
		default:
			if ts.ColumnIndex(t.Column) < 0 {
				return nil, fmt.Errorf("core: configuration references unknown column %s.%s", t.Table, t.Column)
			}
			add(vertexName(t.Table, t.Column))
		}
	}
	sort.Strings(out)
	return out, nil
}

// TopK returns the top-k interpretations for a configuration, best
// (cheapest tree) first. Configurations whose terminals cannot be connected
// yield no interpretations.
//
// Steiner decoding is memoized on the terminal set: distinct configurations
// routinely map to the same attribute vertices (same tables, different
// keywords), so repeat terminal sets become a cache lookup. A minimal-tree
// decode over a schema graph takes tens of microseconds at any keyword
// count; the memo saves that, and the trees' allocation, per repeat.
func (b *Backward) TopK(c *Configuration, k int) ([]*Interpretation, error) {
	terminals, err := b.Terminals(c)
	if err != nil {
		return nil, err
	}
	trees, err := b.topKTrees(terminals, k)
	if err != nil {
		return nil, err
	}
	return b.wrapTrees(c, trees), nil
}

// topKTrees is the memoized tree enumeration behind TopK, keyed on the
// sorted terminal set and k.
func (b *Backward) topKTrees(terminals []string, k int) ([]*steiner.Tree, error) {
	var key string
	if b.treeCache != nil {
		key = strconv.Itoa(k) + "|" + strings.Join(terminals, ",")
		if trees, ok := b.treeCache.Get(key); ok {
			return trees, nil
		}
	}
	trees, err := b.graph.TopK(terminals, k, steiner.Options{Dedup: b.opts.Dedup})
	if err != nil {
		return nil, err
	}
	if b.treeCache != nil {
		b.treeCache.Put(key, trees)
	}
	return trees, nil
}

// wrapTrees builds per-configuration interpretations over a (possibly
// shared) tree slice.
func (b *Backward) wrapTrees(c *Configuration, trees []*steiner.Tree) []*Interpretation {
	out := make([]*Interpretation, 0, len(trees))
	for _, t := range trees {
		out = append(out, &Interpretation{
			Config: c,
			Tree:   t,
			Graph:  b.graph,
			Score:  math.Exp(-t.Cost),
		})
	}
	return out
}
