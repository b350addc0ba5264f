// Package eval provides the experiment harness: keyword-query workloads
// with gold-standard answers sampled from the database instance, quality
// metrics (Success@k, MRR, precision), and table formatting. The paper's
// experiments E1–E8 run over it in TestPaperExperimentsGolden, pinned by
// testdata/experiments.golden.
//
// Workloads replace the human participants of the paper's demonstration:
// each query is generated from actual tuples, so the intended configuration
// (which keyword is a value of which attribute) and the intended table set
// (which join path the user "meant") are known by construction.
package eval

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/fulltext"
	"repro/internal/relational"
)

// Query is one workload entry: the keyword query plus its gold standard.
type Query struct {
	// Keywords the simulated user types.
	Keywords []string
	// GoldConfig maps each keyword to the intended database term.
	GoldConfig *core.Configuration
	// GoldTables is the sorted set of tables the intended SQL joins.
	GoldTables []string
	// Label names the query template for reporting.
	Label string
}

// String renders the query.
func (q *Query) String() string { return strings.Join(q.Keywords, " ") }

// Workload is a reproducible set of queries over one database.
type Workload struct {
	Name    string
	Queries []*Query
}

// Generator samples workload queries from a populated database.
type Generator struct {
	db  *relational.Database
	r   *rand.Rand
	idx *fulltext.Index
}

// NewGenerator seeds a workload generator.
func NewGenerator(db *relational.Database, seed int64) *Generator {
	return &Generator{db: db, r: rand.New(rand.NewSource(seed)), idx: fulltext.BuildIndex(db)}
}

// valueToken picks a random informative token from a random row of the
// given column: tokens that appear in at most maxDF rows of the column, so
// the keyword is selective enough to identify intent. A maxDF of 0 scales
// the cutoff with the table size (token pools are finite, so absolute
// selectivity thresholds starve on large instances).
func (g *Generator) valueToken(table, column string, maxDF int) (string, bool) {
	t := g.db.Table(table)
	if t == nil || t.Len() == 0 {
		return "", false
	}
	if maxDF <= 0 {
		maxDF = 8
		if scaled := t.Len() / 25; scaled > maxDF {
			maxDF = scaled
		}
	}
	ai := g.idx.Attribute(table, column)
	if ai == nil {
		return "", false
	}
	ord := t.Schema.ColumnIndex(column)
	for attempt := 0; attempt < 50; attempt++ {
		row := t.Row(g.r.Intn(t.Len()))
		v := row[ord]
		if v.IsNull() {
			continue
		}
		toks := fulltext.Tokenize(v.AsString())
		if len(toks) == 0 {
			continue
		}
		tok := toks[g.r.Intn(len(toks))]
		if len(tok) < 3 {
			continue
		}
		if len(ai.Rows(tok)) <= maxDF {
			return tok, true
		}
	}
	return "", false
}

// Template describes one query shape: value keywords drawn from attributes
// (joined through the listed tables).
type Template struct {
	Label string
	// Attrs lists (table, column) pairs; one selective value token is
	// sampled from each.
	Attrs [][2]string
	// Tables is the intended join scope (gold).
	Tables []string
	// SchemaTerms optionally appends schema keywords mapped to
	// attribute/table terms (e.g. the literal word "title").
	SchemaTerms []core.Term
}

// Generate builds n queries per template (skipping samples where no
// selective token could be found).
func (g *Generator) Generate(name string, templates []Template, nPerTemplate int) *Workload {
	w := &Workload{Name: name}
	for _, tpl := range templates {
		for i := 0; i < nPerTemplate; i++ {
			q := g.instantiate(tpl)
			if q != nil {
				w.Queries = append(w.Queries, q)
			}
		}
	}
	return w
}

func (g *Generator) instantiate(tpl Template) *Query {
	var keywords []string
	var terms []core.Term
	for _, a := range tpl.Attrs {
		tok, ok := g.valueToken(a[0], a[1], 0)
		if !ok {
			return nil
		}
		keywords = append(keywords, tok)
		terms = append(terms, core.Term{Kind: core.KindDomain, Table: a[0], Column: a[1]})
	}
	for _, st := range tpl.SchemaTerms {
		switch st.Kind {
		case core.KindTable:
			keywords = append(keywords, strings.ToLower(st.Table))
		default:
			keywords = append(keywords, strings.ToLower(st.Column))
		}
		terms = append(terms, st)
	}
	gold := append([]string(nil), tpl.Tables...)
	for i := range gold {
		gold[i] = strings.ToLower(gold[i])
	}
	sort.Strings(gold)
	return &Query{
		Keywords: keywords,
		GoldConfig: &core.Configuration{
			Keywords: keywords,
			Terms:    terms,
		},
		GoldTables: gold,
		Label:      tpl.Label,
	}
}

// TemplatesFor maps a dataset name to its workload templates (imdb,
// mondial; everything else gets the DBLP shapes). Single home for the
// mapping the experiments golden and queststats share.
func TemplatesFor(name string) []Template {
	switch strings.ToLower(name) {
	case "imdb":
		return IMDBTemplates()
	case "mondial":
		return MondialTemplates()
	default:
		return DBLPTemplates()
	}
}

// IMDBTemplates returns the movie-domain query shapes used across
// experiments: single-table lookups, star joins, and schema-keyword mixes.
func IMDBTemplates() []Template {
	return []Template{
		{
			Label:  "movie-title",
			Attrs:  [][2]string{{"movie", "title"}},
			Tables: []string{"movie"},
		},
		{
			Label:  "person-name",
			Attrs:  [][2]string{{"person", "name"}},
			Tables: []string{"person"},
		},
		{
			Label:  "movie-person",
			Attrs:  [][2]string{{"movie", "title"}, {"person", "name"}},
			Tables: []string{"movie", "cast_info", "person"},
		},
		{
			Label:  "movie-genre-person",
			Attrs:  [][2]string{{"movie", "genre"}, {"person", "name"}},
			Tables: []string{"movie", "cast_info", "person"},
		},
		{
			Label:  "movie-company",
			Attrs:  [][2]string{{"movie", "title"}, {"company", "name"}},
			Tables: []string{"movie", "movie_company", "company"},
		},
		{
			Label:       "title-schema-kw",
			Attrs:       [][2]string{{"person", "name"}},
			Tables:      []string{"movie", "cast_info", "person"},
			SchemaTerms: []core.Term{{Kind: core.KindTable, Table: "movie"}},
		},
	}
}

// MondialTemplates returns the geography-domain query shapes.
func MondialTemplates() []Template {
	return []Template{
		{
			Label:  "country",
			Attrs:  [][2]string{{"country", "name"}},
			Tables: []string{"country"},
		},
		{
			Label:  "city-country",
			Attrs:  [][2]string{{"city", "name"}, {"country", "name"}},
			Tables: []string{"city", "country"},
		},
		{
			Label:  "river-country",
			Attrs:  [][2]string{{"river", "name"}, {"country", "name"}},
			Tables: []string{"river", "geo_river", "country"},
		},
		{
			Label:  "org-country",
			Attrs:  [][2]string{{"organization", "abbreviation"}, {"country", "name"}},
			Tables: []string{"organization", "is_member", "country"},
		},
		{
			Label:       "population-schema-kw",
			Attrs:       [][2]string{{"country", "name"}},
			Tables:      []string{"country"},
			SchemaTerms: []core.Term{{Kind: core.KindAttribute, Table: "country", Column: "population"}},
		},
	}
}

// DBLPTemplates returns the bibliography-domain query shapes.
func DBLPTemplates() []Template {
	return []Template{
		{
			Label:  "paper-title",
			Attrs:  [][2]string{{"paper", "title"}},
			Tables: []string{"paper"},
		},
		{
			Label:  "author-paper",
			Attrs:  [][2]string{{"author", "name"}, {"paper", "title"}},
			Tables: []string{"author", "authored", "paper"},
		},
		{
			Label:  "paper-venue",
			Attrs:  [][2]string{{"paper", "title"}, {"venue", "name"}},
			Tables: []string{"paper", "venue"},
		},
		{
			Label:  "author-venue",
			Attrs:  [][2]string{{"author", "name"}, {"venue", "name"}},
			Tables: []string{"author", "authored", "paper", "venue"},
		},
		{
			Label:       "year-schema-kw",
			Attrs:       [][2]string{{"author", "name"}},
			Tables:      []string{"author", "authored", "paper"},
			SchemaTerms: []core.Term{{Kind: core.KindAttribute, Table: "paper", Column: "year"}},
		},
	}
}

// FeedbackFor converts a workload's gold configurations into validated
// searches for feedback training (experiments E4/E5 sweep the count).
func FeedbackFor(w *Workload, n int) []*core.Configuration {
	if n > len(w.Queries) {
		n = len(w.Queries)
	}
	out := make([]*core.Configuration, 0, n)
	for _, q := range w.Queries[:n] {
		out = append(out, q.GoldConfig)
	}
	return out
}

// Split partitions a workload into train and test halves deterministically
// (even indexes train, odd test) so feedback never trains on the test set.
func Split(w *Workload) (train, test *Workload) {
	train = &Workload{Name: w.Name + "-train"}
	test = &Workload{Name: w.Name + "-test"}
	for i, q := range w.Queries {
		if i%2 == 0 {
			train.Queries = append(train.Queries, q)
		} else {
			test.Queries = append(test.Queries, q)
		}
	}
	return train, test
}

// Describe summarizes the workload for logs.
func (w *Workload) Describe() string {
	counts := map[string]int{}
	for _, q := range w.Queries {
		counts[q.Label]++
	}
	var labels []string
	for l := range counts {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s: %d queries (", w.Name, len(w.Queries))
	for i, l := range labels {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s×%d", l, counts[l])
	}
	b.WriteString(")")
	return b.String()
}
