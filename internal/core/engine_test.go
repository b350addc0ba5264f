package core

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/ontology"
	"repro/internal/relational"
	"repro/internal/wrapper"
)

// smallDB is a one-table database whose term space differs from the main
// fixture's (used to exercise schema-mismatch handling).
func smallDB(t testing.TB) *relational.Database {
	t.Helper()
	s := relational.NewSchema()
	if err := s.AddTable(&relational.TableSchema{
		Name: "note",
		Columns: []relational.Column{
			{Name: "note_id", Type: relational.TypeInt, NotNull: true},
			{Name: "body", Type: relational.TypeString},
		},
		PrimaryKey: "note_id",
	}); err != nil {
		t.Fatal(err)
	}
	db := relational.MustNewDatabase("notes", s)
	db.Table("note").MustInsert(relational.Row{relational.Int(1), relational.String_("hello world")})
	return db
}

func TestAdaptUncertaintyMonotone(t *testing.T) {
	base := DefaultUncertainty()
	prevOCf, prevOCap := 2.0, -1.0
	for _, n := range []int{0, 1, 2, 5, 10, 20, 100} {
		u := AdaptUncertainty(base, n)
		if u.OCf >= prevOCf {
			t.Fatalf("OCf must strictly decrease with feedback: n=%d %v >= %v", n, u.OCf, prevOCf)
		}
		if u.OCap <= prevOCap {
			t.Fatalf("OCap must strictly increase with feedback: n=%d %v <= %v", n, u.OCap, prevOCap)
		}
		if u.OCf < 0.1-1e-9 || u.OCf > 0.8+1e-9 || u.OCap < 0.2-1e-9 || u.OCap > 0.8+1e-9 {
			t.Fatalf("n=%d: out of range: %+v", n, u)
		}
		if u.OC != base.OC || u.OI != base.OI {
			t.Fatalf("OC/OI must be untouched: %+v", u)
		}
		prevOCf, prevOCap = u.OCf, u.OCap
	}
	// Cold start matches the default.
	u0 := AdaptUncertainty(base, 0)
	if math.Abs(u0.OCf-0.8) > 1e-9 || math.Abs(u0.OCap-0.2) > 1e-9 {
		t.Fatalf("cold adaptation = %+v, want defaults", u0)
	}
	// Negative counts clamp to zero.
	if AdaptUncertainty(base, -5) != u0 {
		t.Fatal("negative feedback count must behave like 0")
	}
}

func TestAutoAdaptShiftsOnFeedback(t *testing.T) {
	e := fixtureEngine(t)
	e.AutoAdapt(true)
	before := e.Options().Uncertainty
	gold := &Configuration{
		Keywords: []string{"dark", "drama"},
		Terms: []Term{
			{Kind: KindDomain, Table: "movie", Column: "title"},
			{Kind: KindDomain, Table: "movie", Column: "genre"},
		},
	}
	var batch []*Configuration
	for i := 0; i < 10; i++ {
		batch = append(batch, gold)
	}
	e.AddFeedback(batch)
	after := e.Options().Uncertainty
	if after.OCf >= before.OCf {
		t.Fatalf("OCf must drop after feedback: %v -> %v", before.OCf, after.OCf)
	}
	if after.OCap <= before.OCap {
		t.Fatalf("OCap must rise after feedback: %v -> %v", before.OCap, after.OCap)
	}
	// Disabled: uncertainties stay put.
	e2 := fixtureEngine(t)
	u := e2.Options().Uncertainty
	e2.AddFeedback(batch)
	if e2.Options().Uncertainty != u {
		t.Fatal("without AutoAdapt the uncertainties must not move")
	}
}

func TestFeedbackPersistenceRoundTrip(t *testing.T) {
	e := fixtureEngine(t)
	gold := &Configuration{
		Keywords: []string{"dark", "drama"},
		Terms: []Term{
			{Kind: KindDomain, Table: "movie", Column: "title"},
			{Kind: KindDomain, Table: "movie", Column: "genre"},
		},
	}
	var batch []*Configuration
	for i := 0; i < 15; i++ {
		batch = append(batch, gold)
	}
	e.AddFeedback(batch)
	trained := e.Forward().TopKFeedback([]string{"dark", "drama"}, 3)
	if len(trained) == 0 {
		t.Fatal("trained decode empty")
	}

	var buf bytes.Buffer
	if err := e.Forward().SaveFeedback(&buf); err != nil {
		t.Fatal(err)
	}

	// A fresh engine over the same schema restores the trained behaviour.
	e2 := fixtureEngine(t)
	if e2.Forward().HasFeedback() {
		t.Fatal("fresh engine must start untrained")
	}
	if err := e2.Forward().LoadFeedback(&buf); err != nil {
		t.Fatal(err)
	}
	if !e2.Forward().HasFeedback() {
		t.Fatal("LoadFeedback must mark the mode trained")
	}
	restored := e2.Forward().TopKFeedback([]string{"dark", "drama"}, 3)
	if len(restored) == 0 || restored[0].ID() != trained[0].ID() {
		t.Fatalf("restored decode differs: %v vs %v", restored, trained)
	}
}

func TestLoadFeedbackSchemaMismatch(t *testing.T) {
	e := fixtureEngine(t)
	var buf bytes.Buffer
	if err := e.Forward().SaveFeedback(&buf); err != nil {
		t.Fatal(err)
	}
	// Engine over a different schema (different state count).
	s := NewTermSpace(e.Source().Schema())
	_ = s
	otherOpts := DefaultOptions()
	otherOpts.Thesaurus = ontology.DefaultThesaurus()
	small := wrapper.NewFullAccessSource(smallDB(t))
	e2 := NewEngine(small, otherOpts)
	if err := e2.Forward().LoadFeedback(&buf); err == nil {
		t.Fatal("loading a model for a different schema must fail")
	}
}

func TestNegativeFeedbackShiftsBack(t *testing.T) {
	e := fixtureEngine(t)
	e.AutoAdapt(true)
	gold := &Configuration{
		Keywords: []string{"dark", "drama"},
		Terms: []Term{
			{Kind: KindDomain, Table: "movie", Column: "title"},
			{Kind: KindDomain, Table: "movie", Column: "genre"},
		},
	}
	var batch []*Configuration
	for i := 0; i < 10; i++ {
		batch = append(batch, gold)
	}
	e.AddFeedback(batch)
	warm := e.Options().Uncertainty
	// Ten rejections neutralize the ten validations.
	e.AddNegativeFeedback(10)
	cooled := e.Options().Uncertainty
	if cooled.OCf <= warm.OCf {
		t.Fatalf("negative feedback must raise OCf: %v -> %v", warm.OCf, cooled.OCf)
	}
	cold := AdaptUncertainty(DefaultUncertainty(), 0)
	if mathAbs(cooled.OCf-cold.OCf) > 1e-9 {
		t.Fatalf("full rejection must return to cold start: %v vs %v", cooled.OCf, cold.OCf)
	}
	// Over-rejection clamps at zero effective feedback.
	e.AddNegativeFeedback(100)
	if e.Options().Uncertainty != cooled {
		t.Fatal("effective feedback must clamp at 0")
	}
	// Non-positive counts are ignored.
	e.AddNegativeFeedback(0)
	e.AddNegativeFeedback(-3)
	if e.Options().Uncertainty != cooled {
		t.Fatal("non-positive negative feedback must be a no-op")
	}
}

func mathAbs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestRetrainListViterbi(t *testing.T) {
	e := fixtureEngine(t)
	log := [][]string{
		{"spielberg", "drama"},
		{"kurosawa", "thriller"},
		{"smith", "drama"},
	}
	iters := e.Forward().RetrainListViterbi(log, 5, 10)
	if iters == 0 {
		t.Fatal("list Viterbi training did not run")
	}
	if !e.Forward().HasFeedback() {
		t.Fatal("training must mark the feedback mode trained")
	}
	configs := e.Forward().TopKFeedback([]string{"spielberg", "drama"}, 3)
	if len(configs) == 0 {
		t.Fatal("decode empty after list Viterbi training")
	}
	// The trained model must favor domain→domain transitions seen in the
	// log: top config maps both keywords to value domains.
	for _, term := range configs[0].Terms {
		if term.Kind != KindDomain {
			t.Fatalf("top config has non-domain term after training: %v", configs[0])
		}
	}
}

func TestEngineKDefaulting(t *testing.T) {
	opts := DefaultOptions()
	opts.K = -1
	e := NewEngine(wrapper.NewFullAccessSource(fixtureDB(t)), opts)
	if e.Options().K <= 0 {
		t.Fatalf("K = %d, want defaulted positive", e.Options().K)
	}
}
