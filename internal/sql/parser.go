package sql

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/relational"
)

// ErrHavingWithoutGroup is the Parse error for a HAVING clause on a
// statement with neither GROUP BY nor an aggregate select item: such a
// statement has no groups for HAVING to filter, and rejecting it beats
// answering every row.
var ErrHavingWithoutGroup = errors.New("sql: HAVING requires GROUP BY or an aggregate select item")

// Parser is a recursive-descent parser for the SELECT dialect.
type Parser struct {
	toks []Token
	pos  int
}

// Parse parses a single SELECT statement (an optional trailing semicolon is
// accepted).
func Parse(src string) (*SelectStmt, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if p.peek().Kind == TokSymbol && p.peek().Text == ";" {
		p.pos++
	}
	if p.peek().Kind != TokEOF {
		return nil, fmt.Errorf("sql: trailing input at offset %d: %q", p.peek().Pos, p.peek().Text)
	}
	return stmt, nil
}

func (p *Parser) peek() Token { return p.toks[p.pos] }

func (p *Parser) next() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *Parser) acceptKeyword(kw string) bool {
	if p.peek().Kind == TokKeyword && p.peek().Text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("sql: expected %s, got %q at offset %d", kw, p.peek().Text, p.peek().Pos)
	}
	return nil
}

func (p *Parser) acceptSymbol(sym string) bool {
	if p.peek().Kind == TokSymbol && p.peek().Text == sym {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return fmt.Errorf("sql: expected %q, got %q at offset %d", sym, p.peek().Text, p.peek().Pos)
	}
	return nil
}

func (p *Parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Limit: -1}
	stmt.Distinct = p.acceptKeyword("DISTINCT")

	for {
		if p.acceptSymbol("*") {
			stmt.Items = append(stmt.Items, SelectItem{Star: true})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.acceptKeyword("AS") {
				t := p.next()
				if t.Kind != TokIdent {
					return nil, fmt.Errorf("sql: expected alias after AS, got %q", t.Text)
				}
				item.Alias = t.Text
			} else if p.peek().Kind == TokIdent {
				item.Alias = p.next().Text
			}
			stmt.Items = append(stmt.Items, item)
		}
		if !p.acceptSymbol(",") {
			break
		}
	}

	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	from, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	stmt.From = from

	for {
		left := false
		if p.acceptKeyword("LEFT") {
			left = true
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
		} else if p.acceptKeyword("INNER") {
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
		} else if !p.acceptKeyword("JOIN") {
			break
		}
		tr, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Joins = append(stmt.Joins, JoinClause{Left: left, Table: tr, On: on})
	}

	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			g, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, g)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		pos := p.toks[p.pos-1].Pos
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = h
		if len(stmt.GroupBy) == 0 && !anyAgg(stmt) {
			return nil, fmt.Errorf("%w (offset %d)", ErrHavingWithoutGroup, pos)
		}
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		n, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		stmt.Limit = n
	}
	if p.acceptKeyword("OFFSET") {
		n, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		stmt.Offset = n
	}
	return stmt, nil
}

func (p *Parser) parseInt() (int, error) {
	t := p.next()
	if t.Kind != TokNumber {
		return 0, fmt.Errorf("sql: expected number, got %q at offset %d", t.Text, t.Pos)
	}
	n, err := strconv.Atoi(t.Text)
	if err != nil {
		return 0, fmt.Errorf("sql: bad integer %q", t.Text)
	}
	return n, nil
}

func (p *Parser) parseTableRef() (TableRef, error) {
	t := p.next()
	if t.Kind != TokIdent {
		return TableRef{}, fmt.Errorf("sql: expected table name, got %q at offset %d", t.Text, t.Pos)
	}
	tr := TableRef{Table: t.Text}
	if p.acceptKeyword("AS") {
		a := p.next()
		if a.Kind != TokIdent {
			return TableRef{}, fmt.Errorf("sql: expected alias, got %q", a.Text)
		}
		tr.Alias = a.Text
	} else if p.peek().Kind == TokIdent {
		tr.Alias = p.next().Text
	}
	return tr, nil
}

// Expression grammar (precedence climbing):
//
//	expr     := orExpr
//	orExpr   := andExpr (OR andExpr)*
//	andExpr  := notExpr (AND notExpr)*
//	notExpr  := NOT notExpr | cmpExpr
//	cmpExpr  := addExpr ((=|<>|<|<=|>|>=|LIKE|MATCH) addExpr
//	            | IS [NOT] NULL | [NOT] IN (list) | BETWEEN addExpr AND addExpr)?
//	addExpr  := mulExpr ((+|-) mulExpr)*
//	mulExpr  := primary ((*|/) primary)*
//	primary  := literal | aggregate | columnRef | ( expr )
func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpOr, Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpAnd, Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &NotExpr{Inner: inner}, nil
	}
	return p.parseCmp()
}

func (p *Parser) parseCmp() (Expr, error) {
	left, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if p.peek().Kind == TokSymbol {
		var op BinaryOp
		matched := true
		switch p.peek().Text {
		case "=":
			op = OpEq
		case "<>", "!=":
			op = OpNe
		case "<":
			op = OpLt
		case "<=":
			op = OpLe
		case ">":
			op = OpGt
		case ">=":
			op = OpGe
		default:
			matched = false
		}
		if matched {
			p.next()
			right, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op, Left: left, Right: right}, nil
		}
	}
	if p.acceptKeyword("LIKE") {
		right, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: OpLike, Left: left, Right: right}, nil
	}
	if p.acceptKeyword("MATCH") {
		right, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: OpMatch, Left: left, Right: right}, nil
	}
	if p.acceptKeyword("IS") {
		neg := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{Inner: left, Negate: neg}, nil
	}
	if p.acceptKeyword("BETWEEN") {
		lo, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{
			Op:    OpAnd,
			Left:  &BinaryExpr{Op: OpGe, Left: left, Right: lo},
			Right: &BinaryExpr{Op: OpLe, Left: left, Right: hi},
		}, nil
	}
	negIn := false
	if p.peek().Kind == TokKeyword && p.peek().Text == "NOT" {
		// Lookahead for NOT IN.
		save := p.pos
		p.next()
		if p.peek().Kind == TokKeyword && p.peek().Text == "IN" {
			negIn = true
		} else {
			p.pos = save
		}
	}
	if p.acceptKeyword("IN") {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		var in Expr = &InExpr{Inner: left, List: list}
		if negIn {
			in = &NotExpr{Inner: in}
		}
		return in, nil
	}
	return left, nil
}

func (p *Parser) parseAdd() (Expr, error) {
	left, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.peek().Kind == TokSymbol && (p.peek().Text == "+" || p.peek().Text == "-") {
		op := OpAdd
		if p.next().Text == "-" {
			op = OpSub
		}
		right, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseMul() (Expr, error) {
	left, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.peek().Kind == TokSymbol && (p.peek().Text == "*" || p.peek().Text == "/") {
		op := OpMul
		if p.next().Text == "/" {
			op = OpDiv
		}
		right, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
	return left, nil
}

var aggKeywords = map[string]AggFunc{
	"COUNT": AggCount, "SUM": AggSum, "MIN": AggMin, "MAX": AggMax, "AVG": AggAvg,
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokNumber:
		p.next()
		if strings.Contains(t.Text, ".") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, fmt.Errorf("sql: bad number %q", t.Text)
			}
			return &Literal{Value: relational.Float(f)}, nil
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sql: bad number %q", t.Text)
		}
		return &Literal{Value: relational.Int(n)}, nil
	case TokString:
		p.next()
		return &Literal{Value: relational.String_(t.Text)}, nil
	case TokKeyword:
		switch t.Text {
		case "NULL":
			p.next()
			return &Literal{Value: relational.Null()}, nil
		case "TRUE":
			p.next()
			return &Literal{Value: relational.Bool(true)}, nil
		case "FALSE":
			p.next()
			return &Literal{Value: relational.Bool(false)}, nil
		}
		if fn, ok := aggKeywords[t.Text]; ok {
			p.next()
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			if p.acceptSymbol("*") {
				if fn != AggCount {
					return nil, fmt.Errorf("sql: %s(*) is only valid for COUNT", aggText[fn])
				}
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
				return &AggExpr{Func: fn, Star: true}, nil
			}
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return &AggExpr{Func: fn, Arg: arg}, nil
		}
		return nil, fmt.Errorf("sql: unexpected keyword %s at offset %d", t.Text, t.Pos)
	case TokIdent:
		p.next()
		if p.acceptSymbol(".") {
			c := p.next()
			if c.Kind != TokIdent {
				return nil, fmt.Errorf("sql: expected column after %q.", t.Text)
			}
			return &ColumnRef{Table: t.Text, Column: c.Text}, nil
		}
		return &ColumnRef{Column: t.Text}, nil
	case TokSymbol:
		if t.Text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		if t.Text == "-" {
			p.next()
			inner, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: OpSub, Left: &Literal{Value: relational.Int(0)}, Right: inner}, nil
		}
	}
	return nil, fmt.Errorf("sql: unexpected token %q at offset %d", t.Text, t.Pos)
}
