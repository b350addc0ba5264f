package quest_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	quest "repro"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	db := quest.BuildIMDB(quest.DatasetConfig{Seed: 42, Scale: 1})
	eng := quest.Open(db, quest.Defaults())
	results, err := eng.Search("smith drama")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no explanations")
	}
	for _, ex := range results {
		if ex.SQL == "" {
			t.Fatal("explanation without SQL")
		}
		if _, err := quest.ParseSQL(ex.SQL); err != nil {
			t.Fatalf("unparseable SQL: %v", err)
		}
		if _, err := eng.Execute(ex); err != nil {
			t.Fatalf("inexecutable SQL: %v\n%s", err, ex.SQL)
		}
	}
}

func TestPublicAPICustomSchema(t *testing.T) {
	s := quest.NewSchema()
	if err := s.AddTable(&quest.TableSchema{
		Name: "book",
		Columns: []quest.Column{
			{Name: "book_id", Type: 1 /* INT */, NotNull: true},
			{Name: "title", Type: 3 /* TEXT */},
		},
		PrimaryKey: "book_id",
	}); err != nil {
		t.Fatal(err)
	}
	db, err := quest.NewDatabase("books", s)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("book", quest.Row{quest.Int(1), quest.Text("the silent garden")}); err != nil {
		t.Fatal(err)
	}
	eng := quest.Open(db, quest.Defaults())
	results, err := eng.Search("garden")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("custom schema search found nothing")
	}
	res, err := eng.Execute(results[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no tuples for garden")
	}
}

func TestPublicAPIHiddenSource(t *testing.T) {
	db := quest.BuildMondial(quest.DatasetConfig{Seed: 42, Scale: 1})
	opts := quest.Defaults()
	opts.UseLike = true
	eng := quest.OpenHidden(db, quest.DefaultThesaurus(), opts)
	results, err := eng.Search("italy population")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("hidden source search found nothing")
	}
}

func TestPublicAPIFeedbackLoop(t *testing.T) {
	db := quest.BuildDBLP(quest.DatasetConfig{Seed: 42, Scale: 1})
	eng := quest.Open(db, quest.Defaults())
	gold := &quest.Configuration{
		Keywords: []string{"keyword", "vldb"},
		Terms: []quest.Term{
			{Kind: quest.KindDomain, Table: "paper", Column: "title"},
			{Kind: quest.KindDomain, Table: "venue", Column: "name"},
		},
	}
	var batch []*quest.Configuration
	for i := 0; i < 10; i++ {
		batch = append(batch, gold)
	}
	eng.AddFeedback(batch)
	if !eng.Forward().HasFeedback() {
		t.Fatal("feedback not registered")
	}
	results, err := eng.Search("keyword vldb")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results after feedback")
	}
}

func TestPublicAPITokenize(t *testing.T) {
	got := quest.Tokenize(`"new york" city`)
	if len(got) != 2 || got[0] != "new york" {
		t.Fatalf("Tokenize = %v", got)
	}
}

func TestPublicAPIRenderExplanation(t *testing.T) {
	db := quest.BuildIMDB(quest.DatasetConfig{Seed: 42, Scale: 1})
	eng := quest.Open(db, quest.Defaults())
	results, err := eng.Search("smith drama")
	if err != nil || len(results) == 0 {
		t.Fatalf("search: %v", err)
	}
	out := quest.RenderExplanation(results[0])
	if !strings.Contains(out, "[") {
		t.Fatalf("render = %q", out)
	}
}

func TestPublicAPIRunSQL(t *testing.T) {
	db := quest.BuildIMDB(quest.DatasetConfig{Seed: 42, Scale: 1})
	res, err := quest.RunSQL(db, "SELECT COUNT(*) FROM movie")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() != 300 {
		t.Fatalf("movie count = %v, want 300", res.Rows[0][0])
	}
}

func TestAllThreeDatasetsSearchable(t *testing.T) {
	cfg := quest.DatasetConfig{Seed: 42, Scale: 1}
	for name, pair := range map[string]struct {
		db    *quest.Database
		query string
	}{
		"imdb":    {quest.BuildIMDB(cfg), "smith thriller"},
		"mondial": {quest.BuildMondial(cfg), "italy city"},
		"dblp":    {quest.BuildDBLP(cfg), "keyword search"},
	} {
		eng := quest.Open(pair.db, quest.Defaults())
		results, err := eng.Search(pair.query)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(results) == 0 {
			t.Fatalf("%s: no explanations for %q", name, pair.query)
		}
	}
}

// TestSearchEightKeywordsUnderDeadline: a search of 8 keywords, the most
// the serving tier admits, with every cache off, returns well inside its
// 100 ms deadline: the backward stage's minimal-tree decode does not climb
// steeply with the number of terminals.
func TestSearchEightKeywordsUnderDeadline(t *testing.T) {
	db := quest.BuildIMDB(quest.DatasetConfig{Seed: 42, Scale: 1})
	opts := quest.Defaults()
	opts.QueryCacheSize = -1
	opts.Backward.CacheSize = -1
	eng := quest.Open(db, opts)
	const q = "smith drama actor studio prize produced born category"
	if n := len(quest.Tokenize(q)); n != 8 {
		t.Fatalf("%q has %d keywords, want 8", q, n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	exs, err := eng.SearchCtx(ctx, q)
	if elapsed := time.Since(start); elapsed >= 200*time.Millisecond {
		t.Fatalf("8-keyword search returned after %v, want < 200ms", elapsed)
	}
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal(err)
	}
	if err == nil && len(exs) == 0 {
		t.Fatalf("%q: no explanations", q)
	}
}
