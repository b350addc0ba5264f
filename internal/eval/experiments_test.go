package eval_test

import (
	"flag"
	"os"
	"strconv"
	"strings"
	"testing"

	quest "repro"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/fulltext"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments.golden from the current engine")

const experimentsGolden = "testdata/experiments.golden"

// The experiments' parameters: dataset seed, workload generator seed and
// queries sampled per template.
const (
	datasetSeed   = 42
	generatorSeed = datasetSeed + 100
	queriesPer    = 4
)

// TestPaperExperimentsGolden pins the paper's evaluation — E1 scalability,
// E2 module disagreement, E3 baselines, E4 uncertainty sweeps, E5 feedback
// volume, E6 deep web and the E8 ablations — as one exact golden. Every
// column is a deterministic function of the seeds and the code (timing
// columns are not recorded), and metric cells are written at full float
// precision, so a ranking change that moves any query's rank fails the
// test. The golden also pins the known weak spots rather than hiding
// them: E5 combined stuck at cfg@1 0.6, E3 imdb QUEST S@1 below the
// BANKS-style baseline and E6 dblp metadata-only S@1 at 0.
// Regenerate (only for an intended ranking change) with
// `go test ./internal/eval -run TestPaperExperimentsGolden -update`.
func TestPaperExperimentsGolden(t *testing.T) {
	cfg := quest.DatasetConfig{Seed: datasetSeed, Scale: 1}
	dbs := map[string]*quest.Database{
		"imdb":    quest.BuildIMDB(cfg),
		"mondial": quest.BuildMondial(cfg),
		"dblp":    quest.BuildDBLP(cfg),
	}
	var tables []*eval.Table
	tables = append(tables, e1Scalability(t))
	tables = append(tables, e2Disagreement(dbs), e3Baselines(t, dbs))
	tables = append(tables, e4Uncertainty(dbs["imdb"])...)
	tables = append(tables, e5FeedbackVolume(dbs["imdb"]), e6DeepWeb(dbs))
	tables = append(tables, e8Ablations(t, dbs["mondial"], dbs["imdb"])...)
	var b strings.Builder
	for i, tbl := range tables {
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(tbl.String())
	}
	got := b.String()

	if *update {
		if err := os.WriteFile(experimentsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(experimentsGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s:%d\n  got  %s\n  want %s", experimentsGolden, i+1, g, w)
		}
	}
}

// num renders a metric cell at full precision.
func num(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func workloadFor(db *quest.Database, name string) *eval.Workload {
	return eval.NewGenerator(db, generatorSeed).Generate(name, eval.TemplatesFor(name), queriesPer)
}

// e1Scalability: schema graph vs data graph size and quality as the IMDB
// instance grows.
func e1Scalability(t *testing.T) *eval.Table {
	tbl := &eval.Table{
		Title:   "E1 — scalability: graph sizes and quality vs IMDB instance size (demo msg 1)",
		Headers: []string{"scale", "tuples", "schema-nodes", "schema-edges", "data-nodes", "data-edges", "S@3"},
	}
	for _, scale := range []int{1, 2, 4, 8, 16} {
		db := quest.BuildIMDB(quest.DatasetConfig{Seed: datasetSeed, Scale: scale})
		eng := quest.Open(db, quest.Defaults())
		dg, err := baseline.NewDataGraph(db)
		if err != nil {
			t.Fatal(err)
		}
		w := eval.NewGenerator(db, generatorSeed).Generate("imdb", eval.IMDBTemplates()[:3], queriesPer)
		m := eval.Aggregate(eval.RunEngine(eng, w))
		g := eng.Backward().Graph()
		tbl.AddRow(strconv.Itoa(scale), strconv.Itoa(db.TotalRows()),
			strconv.Itoa(g.Len()), strconv.Itoa(g.EdgeCount()),
			strconv.Itoa(dg.NodeCount()), strconv.Itoa(dg.EdgeCount()), num(m.SuccessAt3))
	}
	return tbl
}

// e2Disagreement: rank overlap between the forward operating modes and
// their DS combination, after training feedback on half the workload.
func e2Disagreement(dbs map[string]*quest.Database) *eval.Table {
	tbl := &eval.Table{
		Title:   "E2 — module disagreement on identical queries (demo msg 2)",
		Headers: []string{"dataset", "pair", "top1-agreement", "jaccard@10"},
	}
	for _, name := range []string{"imdb", "mondial", "dblp"} {
		eng := quest.Open(dbs[name], quest.Defaults())
		train, test := eval.Split(workloadFor(dbs[name], name))
		eng.AddFeedback(eval.FeedbackFor(train, len(train.Queries)))

		agreeAF, jacAF, agreeAC, jacAC, n := 0.0, 0.0, 0.0, 0.0, 0
		for _, q := range test.Queries {
			ap := eng.Forward().TopKApriori(q.Keywords, 10)
			fb := eng.Forward().TopKFeedback(q.Keywords, 10)
			comb, err := eng.Configurations(q.Keywords)
			if err != nil || len(ap) == 0 || len(fb) == 0 || len(comb) == 0 {
				continue
			}
			n++
			if ap[0].ID() == fb[0].ID() {
				agreeAF++
			}
			if ap[0].ID() == comb[0].ID() {
				agreeAC++
			}
			jacAF += jaccard(ap, fb)
			jacAC += jaccard(ap, comb)
		}
		if n == 0 {
			continue
		}
		tbl.AddRow(name, "apriori-vs-feedback", num(agreeAF/float64(n)), num(jacAF/float64(n)))
		tbl.AddRow(name, "apriori-vs-combined", num(agreeAC/float64(n)), num(jacAC/float64(n)))
	}
	return tbl
}

func jaccard(a, b []*core.Configuration) float64 {
	set := map[string]bool{}
	for _, c := range a {
		set[c.ID()] = true
	}
	inter, union := 0, len(set)
	for _, c := range b {
		if set[c.ID()] {
			inter++
		} else {
			union++
		}
	}
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// e3Baselines: QUEST (schema-level Steiner) vs the BANKS-style data-graph
// and DISCOVER-style candidate-network baselines on every dataset.
func e3Baselines(t *testing.T, dbs map[string]*quest.Database) *eval.Table {
	tbl := &eval.Table{
		Title:   "E3 — QUEST (schema Steiner) vs instance-level baselines (demo msg 3)",
		Headers: []string{"dataset", "system", "S@1", "S@3", "MRR", "graph-nodes"},
	}
	for _, name := range []string{"imdb", "mondial", "dblp"} {
		db := dbs[name]
		w := workloadFor(db, name)

		eng := quest.Open(db, quest.Defaults())
		m := eval.Aggregate(eval.RunEngine(eng, w))
		tbl.AddRow(name, "QUEST", num(m.SuccessAt1), num(m.SuccessAt3), num(m.MRR),
			strconv.Itoa(eng.Backward().Graph().Len()))

		dg, err := baseline.NewDataGraph(db)
		if err != nil {
			t.Fatal(err)
		}
		ix := fulltext.BuildIndex(db)
		m = eval.Aggregate(judgeTables(w, func(q *eval.Query) ([][]string, error) {
			answers, err := dg.Search(ix, q.Keywords, 10)
			sets := make([][]string, len(answers))
			for i, a := range answers {
				sets[i] = a.Tables()
			}
			return sets, err
		}))
		tbl.AddRow(name, "BANKS-style", num(m.SuccessAt1), num(m.SuccessAt3), num(m.MRR),
			strconv.Itoa(dg.NodeCount()))

		d := baseline.NewDiscover(db, ix)
		m = eval.Aggregate(judgeTables(w, func(q *eval.Query) ([][]string, error) {
			cns, err := d.TopK(q.Keywords, 10, 5)
			sets := make([][]string, len(cns))
			for i, cn := range cns {
				sets[i] = cn.Tables
			}
			return sets, err
		}))
		tbl.AddRow(name, "DISCOVER-style", num(m.SuccessAt1), num(m.SuccessAt3), num(m.MRR), "-")
	}
	return tbl
}

// judgeTables judges a baseline that answers with ranked table sets; a
// query the baseline fails on counts as a miss.
func judgeTables(w *eval.Workload, search func(*eval.Query) ([][]string, error)) []eval.Judgement {
	js := make([]eval.Judgement, 0, len(w.Queries))
	for _, q := range w.Queries {
		sets, err := search(q)
		if err != nil {
			js = append(js, eval.Judgement{Query: q})
			continue
		}
		js = append(js, eval.JudgeTables(q, sets))
	}
	return js
}

// e4Uncertainty: grid sweeps over the forward (OCap, OCf) and the
// forward/backward (OC, OI) uncertainty pairs.
func e4Uncertainty(imdb *quest.Database) []*eval.Table {
	train, test := eval.Split(workloadFor(imdb, "imdb"))

	fwd := &eval.Table{
		Title:   "E4a — forward-mode uncertainty sweep (OCap vs OCf), cold and warm (demo msg 4)",
		Headers: []string{"OCap", "OCf", "feedback-queries", "cfg@1", "cfgMRR", "MRR"},
	}
	for _, nfb := range []int{0, len(train.Queries)} {
		for _, p := range [][2]float64{{0.1, 0.9}, {0.3, 0.7}, {0.5, 0.5}, {0.7, 0.3}, {0.9, 0.1}} {
			opts := quest.Defaults()
			opts.Uncertainty.OCap, opts.Uncertainty.OCf = p[0], p[1]
			eng := quest.Open(imdb, opts)
			if nfb > 0 {
				eng.AddFeedback(eval.FeedbackFor(train, nfb))
			}
			m := eval.Aggregate(eval.RunEngine(eng, test))
			fwd.AddRow(num(p[0]), num(p[1]), strconv.Itoa(nfb), num(m.ConfigAt1), num(m.ConfigMRR), num(m.MRR))
		}
	}

	fb := &eval.Table{
		Title:   "E4b — forward/backward uncertainty sweep (OC vs OI)",
		Headers: []string{"OC", "OI", "S@1", "S@3", "MRR"},
	}
	for _, p := range [][2]float64{{0.05, 0.9}, {0.3, 0.6}, {0.3, 0.3}, {0.6, 0.3}, {0.9, 0.05}} {
		opts := quest.Defaults()
		opts.Uncertainty.OC, opts.Uncertainty.OI = p[0], p[1]
		m := eval.Aggregate(eval.RunEngine(quest.Open(imdb, opts), test))
		fb.AddRow(num(p[0]), num(p[1]), num(m.SuccessAt1), num(m.SuccessAt3), num(m.MRR))
	}
	return []*eval.Table{fwd, fb}
}

// e5FeedbackVolume: forward accuracy vs the number of validated searches,
// for each operating mode alone, their DS combination and the combination
// with auto-adapted uncertainties.
func e5FeedbackVolume(imdb *quest.Database) *eval.Table {
	w := eval.NewGenerator(imdb, generatorSeed).Generate("imdb", eval.IMDBTemplates(), queriesPer+4)
	train, test := eval.Split(w)

	tbl := &eval.Table{
		Title:   "E5 — accuracy vs training volume: a-priori / feedback / DS-combined (§1 claim)",
		Headers: []string{"mode", "feedback-queries", "cfg@1", "cfgMRR", "MRR"},
	}
	for _, mode := range []string{"apriori", "feedback", "combined", "combined-adaptive"} {
		for _, nfb := range []int{0, 2, 4, 8, len(train.Queries)} {
			if mode == "apriori" && nfb != 0 {
				continue
			}
			opts := quest.Defaults()
			switch mode {
			case "apriori":
				opts.DisableFeedback = true
			case "feedback":
				opts.DisableApriori = true
			}
			eng := quest.Open(imdb, opts)
			if mode == "combined-adaptive" {
				eng.AutoAdapt(true)
			}
			if nfb > 0 {
				eng.AddFeedback(eval.FeedbackFor(train, nfb))
			}
			m := eval.Aggregate(eval.RunEngine(eng, test))
			tbl.AddRow(mode, strconv.Itoa(nfb), num(m.ConfigAt1), num(m.ConfigMRR), num(m.MRR))
		}
	}
	return tbl
}

// e6DeepWeb: the metadata-only wrapper (hidden source, LIKE predicates)
// vs full instance access on identical workloads.
func e6DeepWeb(dbs map[string]*quest.Database) *eval.Table {
	tbl := &eval.Table{
		Title:   "E6 — hidden source (metadata wrapper) vs full access",
		Headers: []string{"dataset", "access", "S@1", "S@3", "MRR"},
	}
	for _, name := range []string{"imdb", "mondial", "dblp"} {
		db := dbs[name]
		w := workloadFor(db, name)

		m := eval.Aggregate(eval.RunEngine(quest.Open(db, quest.Defaults()), w))
		tbl.AddRow(name, "full", num(m.SuccessAt1), num(m.SuccessAt3), num(m.MRR))

		opts := quest.Defaults()
		opts.UseLike = true
		m = eval.Aggregate(eval.RunEngine(quest.OpenHidden(db, quest.DefaultThesaurus(), opts), w))
		tbl.AddRow(name, "metadata-only", num(m.SuccessAt1), num(m.SuccessAt3), num(m.MRR))
	}
	return tbl
}

// e8Ablations: Steiner sub-tree pruning, MI edge weights and the a-priori
// heuristic transition rules, each switched off against the default.
func e8Ablations(t *testing.T, mondial, imdb *quest.Database) []*eval.Table {
	dedup := &eval.Table{
		Title:   "E8a — Steiner sub-tree pruning ablation (mondial, 3-keyword query)",
		Headers: []string{"dedup", "explanations", "distinct-table-sets"},
	}
	for _, on := range []bool{true, false} {
		opts := quest.Defaults()
		opts.Backward.Dedup = on
		ex, err := quest.Open(mondial, opts).Search("italy city river")
		if err != nil {
			t.Fatal(err)
		}
		sets := map[string]bool{}
		for _, e := range ex {
			sets[strings.Join(e.Interpretation.Tables(), "+")] = true
		}
		dedup.AddRow(strconv.FormatBool(on), strconv.Itoa(len(ex)), strconv.Itoa(len(sets)))
	}

	mi := &eval.Table{
		Title:   "E8b — MI edge-weight ablation (imdb; award is the sparse decoy join path)",
		Headers: []string{"mi-weights", "S@3", "MRR", "empty-top1-rate"},
	}
	w := workloadFor(imdb, "imdb")
	for _, on := range []bool{true, false} {
		opts := quest.Defaults()
		opts.Backward.UseMIWeights = on
		eng := quest.Open(imdb, opts)
		m := eval.Aggregate(eval.RunEngine(eng, w))
		empty, n := 0, 0
		for _, q := range w.Queries {
			ex, err := eng.Search(q.String())
			if err != nil || len(ex) == 0 {
				continue
			}
			n++
			if res, err := eng.Execute(ex[0]); err != nil || len(res.Rows) == 0 {
				empty++
			}
		}
		rate := 0.0
		if n > 0 {
			rate = float64(empty) / float64(n)
		}
		mi.AddRow(strconv.FormatBool(on), num(m.SuccessAt3), num(m.MRR), num(rate))
	}

	return []*eval.Table{dedup, mi, e8Transitions(imdb)}
}

// e8Transitions flattens the a-priori transition rules. The probe queries
// anchor on the attribute keyword "title" followed by a token that occurs
// both in movie titles and in person names (the generators plant surnames
// in titles for exactly this reason). The intended reading is a movie
// whose title contains the token; the attribute→own-domain rule encodes
// it, so uniform transitions lose it whenever the token's emission is
// stronger on person.name. The forward module is judged alone: the rank
// of the gold configuration among the decoded configurations.
func e8Transitions(imdb *quest.Database) *eval.Table {
	ix := fulltext.BuildIndex(imdb)
	titleIdx := ix.Attribute("movie", "title")
	nameIdx := ix.Attribute("person", "name")
	var probes []*eval.Query
	for _, tok := range titleIdx.Terms() {
		if len(probes) >= 12 {
			break
		}
		if len(tok) < 3 || len(titleIdx.Rows(tok)) == 0 || len(nameIdx.Rows(tok)) == 0 {
			continue
		}
		kws := []string{"title", tok}
		probes = append(probes, &eval.Query{
			Keywords: kws,
			GoldConfig: &core.Configuration{
				Keywords: kws,
				Terms: []core.Term{
					{Kind: core.KindAttribute, Table: "movie", Column: "title"},
					{Kind: core.KindDomain, Table: "movie", Column: "title"},
				},
			},
		})
	}
	tbl := &eval.Table{
		Title:   "E8c — a-priori heuristic-rule ablation (imdb, title-anchored ambiguous tokens)",
		Headers: []string{"transitions", "cfg@1", "cfgMRR"},
	}
	for _, flat := range []bool{false, true} {
		opts := quest.Defaults()
		opts.DisableFeedback = true
		eng := quest.Open(imdb, opts)
		label := "heuristic-rules"
		if flat {
			label = "uniform"
			eng.Forward().SetAprioriWeights(core.AprioriWeights{
				AttrToOwnDomain: 1, SameTable: 1, FKAdjacent: 1, Generalization: 1, Base: 1,
			})
		}
		at1, mrr, n := 0.0, 0.0, 0
		for _, q := range probes {
			configs, err := eng.Configurations(q.Keywords)
			if err != nil || len(configs) == 0 {
				continue
			}
			n++
			for rank, c := range configs {
				if c.ID() == q.GoldConfig.ID() {
					if rank == 0 {
						at1++
					}
					mrr += 1 / float64(rank+1)
					break
				}
			}
		}
		if n > 0 {
			at1 /= float64(n)
			mrr /= float64(n)
		}
		tbl.AddRow(label, num(at1), num(mrr))
	}
	return tbl
}
