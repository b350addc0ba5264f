package sql

import (
	"errors"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenizeBasics(t *testing.T) {
	toks, err := Tokenize("SELECT a, b FROM t WHERE x = 'it''s' AND y >= 2.5;")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	var texts []string
	for _, tk := range toks {
		kinds = append(kinds, tk.Kind)
		texts = append(texts, tk.Text)
	}
	wantTexts := []string{"SELECT", "a", ",", "b", "FROM", "t", "WHERE", "x", "=", "it's", "AND", "y", ">=", "2.5", ";", ""}
	if len(texts) != len(wantTexts) {
		t.Fatalf("got %d tokens %v, want %d", len(texts), texts, len(wantTexts))
	}
	for i := range wantTexts {
		if texts[i] != wantTexts[i] {
			t.Errorf("token %d = %q, want %q", i, texts[i], wantTexts[i])
		}
	}
	if kinds[0] != TokKeyword || kinds[1] != TokIdent || kinds[9] != TokString || kinds[13] != TokNumber {
		t.Errorf("unexpected kinds: %v", kinds)
	}
}

func TestTokenizeErrors(t *testing.T) {
	if _, err := Tokenize("SELECT 'unterminated"); err == nil {
		t.Error("unterminated string must fail")
	}
	if _, err := Tokenize("SELECT @"); err == nil {
		t.Error("unexpected character must fail")
	}
}

func TestTokenKindString(t *testing.T) {
	for k, want := range map[TokenKind]string{
		TokEOF: "EOF", TokIdent: "ident", TokKeyword: "keyword",
		TokNumber: "number", TokString: "string", TokSymbol: "symbol",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestParseSimpleSelect(t *testing.T) {
	stmt, err := Parse("SELECT title FROM movie WHERE year = 1994")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Items) != 1 || stmt.Items[0].Star {
		t.Fatalf("items = %+v", stmt.Items)
	}
	cr, ok := stmt.Items[0].Expr.(*ColumnRef)
	if !ok || cr.Column != "title" {
		t.Fatalf("item 0 = %+v", stmt.Items[0].Expr)
	}
	if stmt.From.Table != "movie" {
		t.Fatalf("from = %+v", stmt.From)
	}
	be, ok := stmt.Where.(*BinaryExpr)
	if !ok || be.Op != OpEq {
		t.Fatalf("where = %+v", stmt.Where)
	}
}

func TestParseJoinChain(t *testing.T) {
	stmt, err := Parse(`SELECT p.name, m.title FROM person p
		JOIN cast_info c ON c.person_id = p.person_id
		JOIN movie m ON m.movie_id = c.movie_id
		WHERE m.genre MATCH 'drama' ORDER BY m.title DESC LIMIT 5 OFFSET 2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Joins) != 2 {
		t.Fatalf("joins = %d, want 2", len(stmt.Joins))
	}
	if stmt.From.Alias != "p" || stmt.Joins[0].Table.Alias != "c" {
		t.Fatalf("aliases not parsed: %+v", stmt)
	}
	if stmt.Limit != 5 || stmt.Offset != 2 {
		t.Fatalf("limit/offset = %d/%d", stmt.Limit, stmt.Offset)
	}
	if len(stmt.OrderBy) != 1 || !stmt.OrderBy[0].Desc {
		t.Fatalf("orderby = %+v", stmt.OrderBy)
	}
}

func TestParsePrecedence(t *testing.T) {
	stmt, err := Parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3")
	if err != nil {
		t.Fatal(err)
	}
	// Must parse as a=1 OR (b=2 AND c=3).
	or, ok := stmt.Where.(*BinaryExpr)
	if !ok || or.Op != OpOr {
		t.Fatalf("top op = %+v, want OR", stmt.Where)
	}
	and, ok := or.Right.(*BinaryExpr)
	if !ok || and.Op != OpAnd {
		t.Fatalf("right = %+v, want AND", or.Right)
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	stmt, err := Parse("SELECT a + b * c FROM t")
	if err != nil {
		t.Fatal(err)
	}
	add, ok := stmt.Items[0].Expr.(*BinaryExpr)
	if !ok || add.Op != OpAdd {
		t.Fatalf("top = %+v, want +", stmt.Items[0].Expr)
	}
	if mul, ok := add.Right.(*BinaryExpr); !ok || mul.Op != OpMul {
		t.Fatalf("right = %+v, want *", add.Right)
	}
}

func TestParseConstructs(t *testing.T) {
	good := []string{
		"SELECT * FROM t",
		"SELECT DISTINCT a FROM t",
		"SELECT a AS x FROM t",
		"SELECT a x FROM t",
		"SELECT COUNT(*) FROM t",
		"SELECT COUNT(a), SUM(b), MIN(c), MAX(d), AVG(e) FROM t GROUP BY f",
		"SELECT a FROM t WHERE b IS NULL",
		"SELECT a FROM t WHERE b IS NOT NULL",
		"SELECT a FROM t WHERE b IN (1, 2, 3)",
		"SELECT a FROM t WHERE b NOT IN (1, 2)",
		"SELECT a FROM t WHERE b BETWEEN 1 AND 10",
		"SELECT a FROM t WHERE b LIKE '%x%'",
		"SELECT a FROM t WHERE b MATCH 'kw'",
		"SELECT a FROM t WHERE NOT (b = 1)",
		"SELECT a FROM t LEFT JOIN u ON t.id = u.id",
		"SELECT a FROM t INNER JOIN u ON t.id = u.id",
		"SELECT a FROM t WHERE -b < 3",
		"SELECT a FROM t GROUP BY a HAVING COUNT(*) > 2",
		"SELECT a FROM t WHERE b = TRUE OR c = FALSE OR d IS NULL",
		"SELECT a FROM t;",
	}
	for _, src := range good {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q) failed: %v", src, err)
		}
	}
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t JOIN u",           // missing ON
		"SELECT * FROM t LIMIT x",          // non-numeric limit
		"SELECT SUM(*) FROM t",             // * only for COUNT
		"SELECT * FROM t WHERE a IN ()",    // empty IN list
		"SELECT * FROM t trailing garbage", // alias then garbage
		"UPDATE t SET a = 1",               // unsupported verb
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// TestParseRejectsHavingWithoutGroup: a HAVING clause needs groups to
// filter. Without GROUP BY or an aggregate select item the executor would
// return every row, so Parse refuses the statement with a typed error.
func TestParseRejectsHavingWithoutGroup(t *testing.T) {
	for _, src := range []string{
		"SELECT movie.title FROM movie HAVING movie.year > 3000",
		"SELECT a FROM t HAVING COUNT(*) > 1",
		"SELECT * FROM t JOIN u ON t.id = u.id HAVING t.a = 1",
	} {
		if _, err := Parse(src); !errors.Is(err, ErrHavingWithoutGroup) {
			t.Errorf("Parse(%q) = %v, want ErrHavingWithoutGroup", src, err)
		}
	}
	for _, src := range []string{
		"SELECT a FROM t GROUP BY a HAVING a > 1",
		"SELECT COUNT(*) FROM t HAVING COUNT(*) > 1",
	} {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
}

func TestSQLRoundTripFixpoint(t *testing.T) {
	// Parse → SQL() → Parse → SQL() must be a fixpoint.
	sources := []string{
		"SELECT a, b AS x FROM t u JOIN v ON v.id = u.id WHERE (a = 1 AND b LIKE 'x%') ORDER BY a LIMIT 3",
		"SELECT DISTINCT t.a FROM t WHERE t.b MATCH 'kw one' OR t.c IN (1, 2)",
		"SELECT COUNT(*), MAX(y) FROM t GROUP BY z HAVING COUNT(*) > 1",
		"SELECT * FROM t WHERE a BETWEEN 1 AND 5",
		"SELECT a FROM t WHERE b IS NOT NULL OFFSET 4",
	}
	for _, src := range sources {
		s1, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		text1 := s1.SQL()
		s2, err := Parse(text1)
		if err != nil {
			t.Fatalf("reparse of %q failed: %v\n(from %q)", text1, err, src)
		}
		text2 := s2.SQL()
		if text1 != text2 {
			t.Errorf("not a fixpoint:\n%s\n%s", text1, text2)
		}
	}
}

func TestFoldTokens(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"Hello, World!", []string{"hello", "world"}},
		{"the-dark_night 2008", []string{"the", "dark", "night", "2008"}},
		{"", nil},
		{"...", nil},
		{"L'étranger", []string{"l", "étranger"}},
	}
	for _, tt := range tests {
		got := FoldTokens(tt.in)
		if len(got) != len(tt.want) {
			t.Errorf("FoldTokens(%q) = %v, want %v", tt.in, got, tt.want)
			continue
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Errorf("FoldTokens(%q)[%d] = %q, want %q", tt.in, i, got[i], tt.want[i])
			}
		}
	}
}

func TestFoldTokensIdempotentOnJoin(t *testing.T) {
	f := func(s string) bool {
		once := FoldTokens(s)
		twice := FoldTokens(strings.Join(once, " "))
		if len(once) != len(twice) {
			return false
		}
		for i := range once {
			if once[i] != twice[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FuzzParsePrint holds the canonical text the plan cache keys on: for any
// input that parses, the rendering parses back to the same rendering; a
// copy with its LIMIT removed renders the same text minus the LIMIT
// clause, and plans to the same cached plan when that LIMIT was positive;
// and planning over the executor fixture never panics (`make fuzz-smoke`).
func FuzzParsePrint(f *testing.F) {
	for _, src := range []string{
		"SELECT * FROM movie",
		"SELECT DISTINCT m.title, p.name AS who FROM movie m JOIN cast_info c ON m.movie_id = c.movie_id JOIN person p ON c.person_id = p.person_id WHERE p.name MATCH 'dark' LIMIT 20",
		"SELECT title FROM movie WHERE year BETWEEN 1990 AND 2005 AND rating >= 6.5 ORDER BY rating DESC, title LIMIT 3 OFFSET 1",
		"SELECT m.title FROM movie m LEFT JOIN cast_info c ON m.movie_id = c.movie_id AND c.role = 'actor' WHERE c.cast_id IS NULL",
		"SELECT role, COUNT(*), AVG(movie_id) FROM cast_info GROUP BY role HAVING COUNT(*) > 1 LIMIT 0",
		"SELECT * FROM movie WHERE movie_id IN (1, 3, -2) OR NOT title LIKE '%it''s%' OFFSET 2",
		"SELECT movie_id * 2 + 1 - year / 4 FROM movie WHERE year <> 2001 AND rating < 7.25 LIMIT 1",
	} {
		f.Add(src)
	}
	db := testDB(f)
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err != nil {
			return
		}
		text := stmt.SQL()
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("rendering of %q does not parse: %q: %v", src, text, err)
		}
		if got := again.SQL(); got != text {
			t.Fatalf("rendering of %q is not stable:\n%s\n%s", src, text, got)
		}

		unlimited := stmt.Clone()
		unlimited.Limit = -1
		want := text
		if stmt.Limit >= 0 {
			// The LIMIT clause follows every other clause but OFFSET,
			// whose digits cannot contain it, so it is the last match.
			clause := " LIMIT " + strconv.Itoa(stmt.Limit)
			i := strings.LastIndex(text, clause)
			if i < 0 {
				t.Fatalf("rendering %q has no %q", text, clause)
			}
			want = text[:i] + text[i+len(clause):]
		}
		if got := unlimited.SQL(); got != want {
			t.Fatalf("without its LIMIT %q renders %q, want %q", text, got, want)
		}

		p, err := planSelect(db, stmt)
		if err != nil {
			return
		}
		if stmt.Limit > 0 {
			if q, err := planSelect(db, unlimited); err != nil || q != p {
				t.Fatalf("%q and its unlimited twin should share one plan (err %v)", text, err)
			}
		}
	})
}
