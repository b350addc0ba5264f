package quest_test

import (
	"testing"

	quest "repro"
)

// fuzzMaxKeywords bounds the keywords of a fuzzed query at what the serving
// tier admits (serve's maxKeywords). A search of 8 keywords costs a few
// milliseconds, since the backward stage decodes only minimal Steiner
// trees.
const fuzzMaxKeywords = 8

// FuzzSearch drives the serving path with arbitrary query text: Search on
// an IMDB engine, then Execute of the top-1 explanation under LIMIT 20, as
// /v1/search?execute=1&limit=20 does. Nothing may panic, every
// explanation's SQL must parse, and the top-1 must execute
// (`make fuzz-smoke`).
func FuzzSearch(f *testing.F) {
	for _, q := range []string{
		"smith drama",
		"spielberg",
		"movie title",
		"person name 1999",
		"drama drama drama",
		"",
		"   ",
		"%'\"_\\",
		"MATCH ' OR 1=1 --",
		"ßüé 東京",
	} {
		f.Add(q)
	}
	db := quest.BuildIMDB(quest.DatasetConfig{Seed: 42, Scale: 1})
	eng := quest.Open(db, quest.Defaults())
	f.Fuzz(func(t *testing.T, q string) {
		if len(quest.Tokenize(q)) > fuzzMaxKeywords {
			return
		}
		exs, err := eng.Search(q)
		if err != nil || len(exs) == 0 {
			return
		}
		for _, ex := range exs {
			if _, err := quest.ParseSQL(ex.SQL); err != nil {
				t.Fatalf("query %q: explanation SQL does not parse: %v\n%s", q, err, ex.SQL)
			}
		}
		top := *exs[0]
		top.Stmt = exs[0].Stmt.Clone()
		if top.Stmt.Limit < 0 || top.Stmt.Limit > 20 {
			top.Stmt.Limit = 20
		}
		res, err := eng.Execute(&top)
		if err != nil {
			t.Fatalf("query %q: top-1 does not execute: %v\n%s", q, err, top.SQL)
		}
		if len(res.Rows) > 20 {
			t.Fatalf("query %q: top-1 under LIMIT 20 returned %d rows", q, len(res.Rows))
		}
	})
}
