package sql

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/relational"
)

// Join keys whose equality the index walk must decide exactly as the hash
// join does: INT against FLOAT, signed zero, NaN payloads (one Value.Key,
// different hashes), integers that collide as float64 but not as keys, and
// NULL.
var (
	nanA = math.Float64frombits(0x7ff8000000000001)
	nanB = math.Float64frombits(0x7ff8000000000002)
	big  = int64(1) << 53
)

// mixedKeyDB holds three tables whose INT column k and FLOAT column f carry
// those keys; ids descend in insertion order (see keyDB), so an id range
// selects a suffix of the stored rows.
func mixedKeyDB(t testing.TB) *relational.Database {
	t.Helper()
	I, F, N := relational.Int, relational.Float, relational.Null()
	return keyDB(t, map[string][][2]relational.Value{
		"a": {{I(1), F(1)}, {I(0), F(math.Copysign(0, -1))}, {I(big + 1), F(nanA)},
			{I(big), F(float64(big))}, {N, N}, {I(7), F(2.5)}},
		"b": {{I(0), F(nanB)}, {I(big), F(1)}, {I(1), F(float64(big))}, {N, N}},
		"c": {{I(big + 1), F(math.Copysign(0, -1))}, {I(1), F(nanA)}, {N, F(7)}},
	})
}

// keyDB builds tables (id INT PRIMARY KEY, k INT, f FLOAT, s STRING) from
// per-table (k, f) pairs; row i gets id len-i and s one of a few words.
func keyDB(t testing.TB, rows map[string][][2]relational.Value) *relational.Database {
	t.Helper()
	s := relational.NewSchema()
	for _, name := range []string{"a", "b", "c"} {
		if err := s.AddTable(&relational.TableSchema{
			Name: name,
			Columns: []relational.Column{
				{Name: "id", Type: relational.TypeInt, NotNull: true},
				{Name: "k", Type: relational.TypeInt},
				{Name: "f", Type: relational.TypeFloat},
				{Name: "s", Type: relational.TypeString},
			},
			PrimaryKey: "id",
		}); err != nil {
			t.Fatal(err)
		}
	}
	db := relational.MustNewDatabase("keys", s)
	words := []string{"red", "blue", "red blue", "green"}
	for name, kf := range rows {
		for i, r := range kf {
			row := relational.Row{relational.Int(int64(len(kf) - i)), r[0], r[1], relational.String_(words[i%len(words)])}
			if err := db.Insert(name, row); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// checkExists holds every existence answer for src to the reference
// interpreter's row count: the index walk (when walkable, which must match
// whether the plan has a join tree), the streaming path, Exists itself and
// the fleet coordinator's decision (key-only fragments run here, then
// SemiJoinExists), which ExistsFragments must accept exactly for the
// walkable statements — the two eligibility rules coincide on every shape
// these tests build. It returns the verdict.
func checkExists(t testing.TB, db *relational.Database, src string, walkable bool) bool {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	ref, err := ExecuteFullScan(db, stmt)
	if err != nil {
		t.Fatalf("%s: reference: %v", src, err)
	}
	want := len(ref.Rows) > 0
	res, err := Execute(db, stmt)
	if err != nil || (len(res.Rows) > 0) != want {
		t.Fatalf("%s: Execute rows %v (err %v), reference non-empty %v", src, res, err, want)
	}
	p, err := planSelect(db, stmt)
	if err != nil {
		t.Fatalf("%s: plan: %v", src, err)
	}
	if (p.semi != nil) != walkable {
		t.Fatalf("%s: join tree %v, want %v", src, p.semi != nil, walkable)
	}
	if got, err := p.existsStream(db, stmt); err != nil || got != want {
		t.Fatalf("%s: streaming verdict %v (err %v), want %v", src, got, err, want)
	}
	if p.semi != nil {
		if got, err := p.existsWalk(db); err != nil || got != want {
			t.Fatalf("%s: index walk verdict %v (err %v), want %v", src, got, err, want)
		}
	}
	if got, err := Exists(db, stmt); err != nil || got != want {
		t.Fatalf("%s: Exists %v (err %v), want %v", src, got, err, want)
	}
	frags, edges, ok := ExistsFragments(db.Schema, stmt)
	if ok != walkable {
		t.Fatalf("%s: ExistsFragments ok %v, want %v", src, ok, walkable)
	}
	if ok {
		tables := make([][]relational.Row, len(frags))
		for i, f := range frags {
			res, err := Execute(db, f.Stmt)
			if err != nil {
				t.Fatalf("%s: fragment %s: %v", src, f.SQL(), err)
			}
			tables[i] = res.Rows
		}
		if got := SemiJoinExists(frags, edges, tables); got != want {
			t.Fatalf("%s: SemiJoinExists %v, want %v", src, got, want)
		}
	}
	return want
}

// TestExistsMixedKeys runs every 2- and 3-table inner join shape over the
// mixed keys — a self-join included — once unfiltered and once per row of
// each table (an id probe that also roots the walk there), and pins the
// hash join's equality on the tricky pairs.
func TestExistsMixedKeys(t *testing.T) {
	db := mixedKeyDB(t)
	for _, c := range []struct {
		src  string
		want bool
	}{
		{"SELECT * FROM a JOIN b ON a.k = b.f WHERE a.id = 6", true},  // 1 = 1.0
		{"SELECT * FROM a JOIN c ON a.k = c.f WHERE a.id = 5", true},  // 0 = -0.0
		{"SELECT * FROM a JOIN b ON a.f = b.f WHERE a.id = 4", false}, // NaN payloads differ
		{"SELECT * FROM a JOIN c ON a.f = c.f WHERE a.id = 4", true},  // same NaN payload
		{"SELECT * FROM a JOIN b ON a.k = b.f WHERE a.id = 4", false}, // 2^53+1 vs 2^53
		{"SELECT * FROM a JOIN b ON a.k = b.f WHERE a.id = 3", true},  // 2^53 vs 2^53.0
		{"SELECT * FROM a JOIN b ON a.k = b.k WHERE a.id = 2", false}, // NULL never joins
	} {
		if got := checkExists(t, db, c.src, true); got != c.want {
			t.Errorf("%s: %v, want %v", c.src, got, c.want)
		}
	}

	lens := map[string]int{"a": 6, "b": 4, "c": 3}
	cols := []string{"k", "f"}
	verdicts := map[bool]int{}
	run := func(from string, bindings, tables []string) {
		for _, proj := range []string{"*", bindings[0] + ".id, " + bindings[len(bindings)-1] + ".s"} {
			base := "SELECT " + proj + " FROM " + from
			verdicts[checkExists(t, db, base, true)]++
			for i, b := range bindings {
				for id := 1; id <= lens[tables[i]]; id++ {
					verdicts[checkExists(t, db, fmt.Sprintf("%s WHERE %s.id = %d", base, b, id), true)]++
				}
			}
			// A point probe roots the walk at the last binding, so the first
			// one is a child whose range filter or compiled MATCH must
			// reject partners.
			first, last := bindings[0], bindings[len(bindings)-1]
			for id := 1; id <= lens[tables[len(tables)-1]]; id++ {
				for _, cond := range []string{first + ".id > 2", first + ".s MATCH 'red'"} {
					verdicts[checkExists(t, db, fmt.Sprintf("%s WHERE %s.id = %d AND %s", base, last, id, cond), true)]++
				}
			}
		}
	}
	for _, pair := range [][2]string{{"a", "b"}, {"a", "c"}, {"b", "c"}, {"a", "a AS y"}} {
		right := strings.Fields(pair[1])
		rb := right[len(right)-1]
		for _, lc := range cols {
			for _, rc := range cols {
				run(fmt.Sprintf("%s JOIN %s ON %s.%s = %s.%s", pair[0], pair[1], pair[0], lc, rb, rc),
					[]string{pair[0], rb}, []string{pair[0], right[0]})
			}
		}
	}
	for _, c1 := range cols {
		for _, c2 := range cols {
			for _, c3 := range cols {
				// Chain a-b-c, star a-(b, c), and a self-join chain.
				run(fmt.Sprintf("a JOIN b ON a.%s = b.%s JOIN c ON b.%s = c.%s", c1, c2, c3, c1),
					[]string{"a", "b", "c"}, []string{"a", "b", "c"})
				run(fmt.Sprintf("a JOIN b ON b.%s = a.%s JOIN c ON c.%s = a.%s", c1, c2, c3, c2),
					[]string{"a", "b", "c"}, []string{"a", "b", "c"})
				run(fmt.Sprintf("a AS x JOIN a AS y ON x.%s = y.%s JOIN a AS z ON y.%s = z.%s", c1, c2, c3, c1),
					[]string{"x", "y", "z"}, []string{"a", "a", "a"})
			}
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("verdicts %v: the shapes no longer tell the paths apart", verdicts)
	}
}

// TestExistsConcurrentSharedPlan: one cached plan serves concurrent walks
// (each call owns its buffers and memo) while the child indexes are still
// being built on first use.
func TestExistsConcurrentSharedPlan(t *testing.T) {
	srcs := []string{
		"SELECT * FROM a JOIN b ON a.k = b.f",
		"SELECT * FROM a JOIN b ON a.f = b.f WHERE a.id = 4",
		"SELECT a.id, c.s FROM a JOIN b ON a.k = b.k JOIN c ON b.f = c.k",
		"SELECT x.id, z.s FROM a AS x JOIN a AS y ON x.k = y.f JOIN a AS z ON y.f = z.f WHERE z.id = 3",
		"SELECT a.id, c.s FROM a JOIN b ON b.f = a.k JOIN c ON c.f = a.f WHERE c.s MATCH 'red'",
	}
	ref := mixedKeyDB(t)
	stmts := make([]*SelectStmt, len(srcs))
	want := make([]bool, len(srcs))
	for i, src := range srcs {
		want[i] = checkExists(t, ref, src, true)
		stmts[i] = mustParse(t, src)
	}
	db := mixedKeyDB(t) // no indexes built yet
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				for i, stmt := range stmts {
					if got, err := Exists(db, stmt); err != nil || got != want[i] {
						t.Errorf("%s: Exists %v (err %v), want %v", srcs[i], got, err, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestExistsRootsAtCheapestRefutation: the walk does not root at the
// scan with the fewest candidates when that scan fans out. Ten hubs own
// 200 links each, while 50 range-selected leaves own two links each;
// refuting from the hubs visits every link and leaf, from the leaves a
// few hundred rows.
func TestExistsRootsAtCheapestRefutation(t *testing.T) {
	s := relational.NewSchema()
	for _, ts := range []*relational.TableSchema{
		{Name: "hub", Columns: []relational.Column{{Name: "id", Type: relational.TypeInt, NotNull: true}}, PrimaryKey: "id"},
		{Name: "leaf", Columns: []relational.Column{{Name: "id", Type: relational.TypeInt, NotNull: true}}, PrimaryKey: "id"},
		{Name: "link", Columns: []relational.Column{
			{Name: "id", Type: relational.TypeInt, NotNull: true},
			{Name: "hub_id", Type: relational.TypeInt},
			{Name: "leaf_id", Type: relational.TypeInt},
		}, PrimaryKey: "id"},
	} {
		if err := s.AddTable(ts); err != nil {
			t.Fatal(err)
		}
	}
	db := relational.MustNewDatabase("fanout", s)
	I := relational.Int
	for i := int64(1); i <= 2000; i++ {
		if i <= 10 {
			db.Table("hub").MustInsert(relational.Row{I(i)})
		}
		if i <= 1000 {
			db.Table("leaf").MustInsert(relational.Row{I(i)})
		}
		db.Table("link").MustInsert(relational.Row{I(i), I(i%10 + 1), I(i%1000 + 1)})
	}
	src := "SELECT hub.id FROM hub JOIN link ON link.hub_id = hub.id JOIN leaf ON leaf.id = link.leaf_id WHERE leaf.id > 950"
	stmt, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := planSelect(db, stmt)
	if err != nil {
		t.Fatal(err)
	}
	if p.semi == nil {
		t.Fatal("no join tree")
	}
	if root := p.semi.nodes[0].scan.tr.Table; root != "leaf" {
		t.Fatalf("walk rooted at %s, want leaf", root)
	}
	checkExists(t, db, src, true)
}

// TestExistsSemiJoinCounter pins ExistsSemiJoins as the subset of
// ExistsFastPaths the index walk served: it moves for an eligible
// statement and stays put for every fallback shape, which still streams.
func TestExistsSemiJoinCounter(t *testing.T) {
	db := testDB(t)
	const join = " FROM movie JOIN cast_info ON movie.movie_id = cast_info.movie_id"
	for _, c := range []struct {
		name, src string
		walked    bool
	}{
		{"eligible", "SELECT movie.title" + join + " WHERE movie.title MATCH 'dark' ORDER BY movie.title", true},
		{"left join", "SELECT movie.title FROM movie LEFT JOIN cast_info ON movie.movie_id = cast_info.movie_id", false},
		{"offset", "SELECT movie.title" + join + " OFFSET 1", false},
		{"non-column projection", "SELECT movie.year > 2000" + join, false},
		{"residual on", "SELECT movie.title" + join + " AND cast_info.role = 'actor'", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := Stats()
			checkExists(t, db, c.src, c.walked)
			after := Stats()
			// checkExists calls Exists once.
			if d := after.ExistsFastPaths - before.ExistsFastPaths; d != 1 {
				t.Errorf("ExistsFastPaths moved by %d, want 1", d)
			}
			want := uint64(0)
			if c.walked {
				want = 1
			}
			if d := after.ExistsSemiJoins - before.ExistsSemiJoins; d != want {
				t.Errorf("ExistsSemiJoins moved by %d, want %d", d, want)
			}
		})
	}
}

// fuzzBytes hands out the fuzz input a byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// FuzzExistsSemiJoin holds the index walk, the streaming path and the
// reference interpreter to one existence verdict on random tables of the
// mixed keys, random join shapes (chain, star, self-join; LEFT and
// composite-key shapes must fall back) and random MATCH, equality, IN and
// range predicates (`make fuzz-smoke`).
func FuzzExistsSemiJoin(f *testing.F) {
	f.Add([]byte{0, 3, 4, 2, 0, 1, 1, 2, 3, 0, 0})
	f.Add([]byte{1, 5, 5, 5, 1, 2, 0, 1, 3, 2, 1, 4, 2, 5, 1})
	f.Add([]byte{2, 6, 1, 6, 0, 0, 1, 1, 2, 2, 3, 3, 4})
	f.Add([]byte{3, 4, 0, 0, 2, 1, 0, 1, 1, 5, 2})
	f.Add([]byte{4, 2, 2, 2, 1, 1, 1})
	f.Add([]byte{5, 3, 3, 3, 0, 1, 0, 1})
	keys := []relational.Value{
		relational.Null(), relational.Int(0), relational.Int(1), relational.Int(7),
		relational.Int(big), relational.Int(big + 1), relational.Float(1),
		relational.Float(math.Copysign(0, -1)), relational.Float(nanA), relational.Float(nanB),
		relational.Float(float64(big)), relational.Float(2.5),
	}
	lits := []string{"0", "1", "7", "2.5"}
	cols := []string{"k", "f", "id"}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		shape := in.next() % 6
		rows := map[string][][2]relational.Value{}
		for _, name := range []string{"a", "b", "c"} {
			n := in.next() % 7
			for i := 0; i < n; i++ {
				rows[name] = append(rows[name], [2]relational.Value{keys[in.next()%len(keys)], keys[in.next()%len(keys)]})
			}
		}
		db := keyDB(t, rows)
		col := func() string { return cols[in.next()%len(cols)] }
		eq := func(l, r string) string {
			if in.next()%2 == 0 {
				return l + " = " + r
			}
			return r + " = " + l
		}
		bindings := []string{"a", "b", "c"}
		var from string
		walkable := true
		switch shape {
		case 0: // chain of two
			from, bindings = "a JOIN b ON "+eq("a."+col(), "b."+col()), bindings[:2]
		case 1: // chain of three
			from = "a JOIN b ON " + eq("a."+col(), "b."+col()) + " JOIN c ON " + eq("b."+col(), "c."+col())
		case 2: // star around a
			from = "a JOIN b ON " + eq("a."+col(), "b."+col()) + " JOIN c ON " + eq("a."+col(), "c."+col())
		case 3: // self-join chain
			from = "a AS x JOIN a AS y ON " + eq("x."+col(), "y."+col()) + " JOIN a AS z ON " + eq("y."+col(), "z."+col())
			bindings = []string{"x", "y", "z"}
		case 4: // LEFT join: must stream
			from, bindings, walkable = "a LEFT JOIN b ON "+eq("a."+col(), "b."+col()), bindings[:2], false
		default: // composite key: must stream
			from = "a JOIN b ON " + eq("a."+col(), "b."+col()) + " AND " + eq("a."+col(), "b."+col())
			bindings, walkable = bindings[:2], false
		}
		var where []string
		for _, b := range bindings {
			switch in.next() % 6 {
			case 1:
				where = append(where, b+".s MATCH 'red'")
			case 2:
				where = append(where, fmt.Sprintf("%s.id = %d", b, in.next()%8))
			case 3:
				where = append(where, b+".k = "+lits[in.next()%len(lits)])
			case 4:
				where = append(where, fmt.Sprintf("%s.id IN (%d, %d)", b, in.next()%8, in.next()%8))
			case 5:
				where = append(where, fmt.Sprintf("%s.id > %d", b, in.next()%8))
			}
		}
		proj := "*"
		if in.next()%2 == 1 {
			proj = bindings[0] + ".id, " + bindings[len(bindings)-1] + ".f"
		}
		src := "SELECT " + proj + " FROM " + from
		if len(where) > 0 {
			src += " WHERE " + strings.Join(where, " AND ")
		}
		checkExists(t, db, src, walkable)
	})
}
