package classad

import (
	"fmt"
	"strconv"
	"strings"
)

// Expr is a parsed ClassAd expression. Nodes are immutable once parsed,
// so ads and their clones share them freely.
type Expr interface {
	// String renders the expression back to parseable source.
	String() string
	// eval evaluates the node; ctx.depth already counts it (see evalExpr).
	eval(ctx evalContext) Value
}

type litExpr struct{ v Value }

// scope qualifies an attribute reference.
type scope uint8

const (
	scopeNone   scope = iota // unscoped: MY first, then TARGET
	scopeMy                  // MY.name
	scopeTarget              // TARGET.name
)

type attrExpr struct {
	scope scope
	name  string // lower-cased by the parser, as Ad stores binding names
}

type unaryExpr struct {
	op tokenKind
	x  Expr
}

type binaryExpr struct {
	op   tokenKind
	l, r Expr
}

type condExpr struct {
	cond, then, els Expr
}

type callExpr struct {
	fn   string // lower-cased
	args []Expr
}

func (e *litExpr) String() string { return e.v.String() }

func (e *attrExpr) String() string {
	switch e.scope {
	case scopeMy:
		return "my." + e.name
	case scopeTarget:
		return "target." + e.name
	}
	return e.name
}

func (e *unaryExpr) String() string {
	op := "!"
	if e.op == tokMinus {
		op = "-"
	}
	return op + e.x.String()
}

var opText = map[tokenKind]string{
	tokPlus: "+", tokMinus: "-", tokStar: "*", tokSlash: "/", tokPercent: "%",
	tokAnd: "&&", tokOr: "||", tokEq: "==", tokNe: "!=",
	tokLt: "<", tokLe: "<=", tokGt: ">", tokGe: ">=",
	tokMetaEq: "=?=", tokMetaNe: "=!=",
}

func (e *binaryExpr) String() string {
	return "(" + e.l.String() + " " + opText[e.op] + " " + e.r.String() + ")"
}

func (e *condExpr) String() string {
	return "(" + e.cond.String() + " ? " + e.then.String() + " : " + e.els.String() + ")"
}

func (e *callExpr) String() string {
	parts := make([]string, len(e.args))
	for i, a := range e.args {
		parts[i] = a.String()
	}
	return e.fn + "(" + strings.Join(parts, ", ") + ")"
}

type parser struct {
	toks []token
	pos  int
}

// Parse parses a single ClassAd expression.
func Parse(src string) (Expr, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.parseCond()
	if err != nil {
		return nil, err
	}
	if p.cur().kind != tokEOF {
		return nil, fmt.Errorf("classad: trailing input at %s", p.cur())
	}
	return e, nil
}

// MustParse parses or panics; for package-level expression constants.
func MustParse(src string) Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

func (p *parser) cur() token { return p.toks[p.pos] }

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(k tokenKind, what string) (token, error) {
	if p.cur().kind != k {
		return token{}, fmt.Errorf("classad: expected %s, found %s", what, p.cur())
	}
	return p.advance(), nil
}

// Grammar, lowest to highest precedence:
//   cond   := or ('?' cond ':' cond)?
//   or     := and ('||' and)*
//   and    := cmp ('&&' cmp)*
//   cmp    := add (relop add)*
//   add    := mul (('+'|'-') mul)*
//   mul    := unary (('*'|'/'|'%') unary)*
//   unary  := ('!'|'-'|'+')* postfix
//   postfix:= primary
//   primary:= literal | ident | ident '(' args ')' | scope '.' ident | '(' cond ')'

func (p *parser) parseCond() (Expr, error) {
	c, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.cur().kind != tokQuestion {
		return c, nil
	}
	p.advance()
	then, err := p.parseCond()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokColon, "':'"); err != nil {
		return nil, err
	}
	els, err := p.parseCond()
	if err != nil {
		return nil, err
	}
	return &condExpr{cond: c, then: then, els: els}, nil
}

func (p *parser) parseBinaryChain(sub func() (Expr, error), ops ...tokenKind) (Expr, error) {
	l, err := sub()
	if err != nil {
		return nil, err
	}
	for {
		k := p.cur().kind
		found := false
		for _, op := range ops {
			if k == op {
				found = true
				break
			}
		}
		if !found {
			return l, nil
		}
		p.advance()
		r, err := sub()
		if err != nil {
			return nil, err
		}
		l = &binaryExpr{op: k, l: l, r: r}
	}
}

func (p *parser) parseOr() (Expr, error) {
	return p.parseBinaryChain(p.parseAnd, tokOr)
}

func (p *parser) parseAnd() (Expr, error) {
	return p.parseBinaryChain(p.parseCmp, tokAnd)
}

func (p *parser) parseCmp() (Expr, error) {
	return p.parseBinaryChain(p.parseAdd,
		tokEq, tokNe, tokLt, tokLe, tokGt, tokGe, tokMetaEq, tokMetaNe)
}

func (p *parser) parseAdd() (Expr, error) {
	return p.parseBinaryChain(p.parseMul, tokPlus, tokMinus)
}

func (p *parser) parseMul() (Expr, error) {
	return p.parseBinaryChain(p.parseUnary, tokStar, tokSlash, tokPercent)
}

func (p *parser) parseUnary() (Expr, error) {
	switch p.cur().kind {
	case tokNot:
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &unaryExpr{op: tokNot, x: x}, nil
	case tokMinus:
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &unaryExpr{op: tokMinus, x: x}, nil
	case tokPlus:
		p.advance()
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokInt:
		p.advance()
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("classad: bad integer %q: %v", t.text, err)
		}
		return &litExpr{Int(i)}, nil
	case tokReal:
		p.advance()
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("classad: bad real %q: %v", t.text, err)
		}
		return &litExpr{Float(f)}, nil
	case tokString:
		p.advance()
		return &litExpr{Str(t.text)}, nil
	case tokLParen:
		p.advance()
		e, err := p.parseCond()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return e, nil
	case tokIdent:
		p.advance()
		lower := strings.ToLower(t.text)
		switch lower {
		case "true":
			return &litExpr{Bool(true)}, nil
		case "false":
			return &litExpr{Bool(false)}, nil
		case "undefined":
			return &litExpr{UndefinedValue()}, nil
		case "error":
			return &litExpr{ErrorValue()}, nil
		}
		if p.cur().kind == tokLParen {
			p.advance()
			var args []Expr
			if p.cur().kind != tokRParen {
				for {
					a, err := p.parseCond()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if p.cur().kind != tokComma {
						break
					}
					p.advance()
				}
			}
			if _, err := p.expect(tokRParen, "')' after arguments"); err != nil {
				return nil, err
			}
			return &callExpr{fn: lower, args: args}, nil
		}
		if (lower == "my" || lower == "target") && p.cur().kind == tokDot {
			p.advance()
			name, err := p.expect(tokIdent, "attribute after scope")
			if err != nil {
				return nil, err
			}
			sc := scopeMy
			if lower == "target" {
				sc = scopeTarget
			}
			return &attrExpr{scope: sc, name: strings.ToLower(name.text)}, nil
		}
		return &attrExpr{name: lower}, nil
	}
	return nil, fmt.Errorf("classad: unexpected token %s", t)
}
