package classad

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokInt
	tokReal
	tokString
	tokLParen
	tokRParen
	tokComma
	tokDot
	tokPlus
	tokMinus
	tokStar
	tokSlash
	tokPercent
	tokNot
	tokAnd      // &&
	tokOr       // ||
	tokEq       // ==
	tokNe       // !=
	tokLt       // <
	tokLe       // <=
	tokGt       // >
	tokGe       // >=
	tokMetaEq   // =?=
	tokMetaNe   // =!=
	tokQuestion // ?
	tokColon    // :
	tokAssign   // =
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

type lexer struct {
	src []rune
	pos int
}

func newLexer(src string) *lexer {
	return &lexer{src: []rune(src)}
}

func (l *lexer) peek() rune {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) at(off int) rune {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) && unicode.IsSpace(l.src[l.pos]) {
		l.pos++
	}
	start := l.pos
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: start}, nil
	}
	c := l.src[l.pos]
	switch {
	case unicode.IsLetter(c) || c == '_':
		for l.pos < len(l.src) && (unicode.IsLetter(l.src[l.pos]) || unicode.IsDigit(l.src[l.pos]) || l.src[l.pos] == '_') {
			l.pos++
		}
		return token{kind: tokIdent, text: string(l.src[start:l.pos]), pos: start}, nil
	case unicode.IsDigit(c):
		isReal := false
		for l.pos < len(l.src) && unicode.IsDigit(l.src[l.pos]) {
			l.pos++
		}
		if l.peek() == '.' && unicode.IsDigit(l.at(1)) {
			isReal = true
			l.pos++
			for l.pos < len(l.src) && unicode.IsDigit(l.src[l.pos]) {
				l.pos++
			}
		}
		if l.peek() == 'e' || l.peek() == 'E' {
			save := l.pos
			l.pos++
			if l.peek() == '+' || l.peek() == '-' {
				l.pos++
			}
			if unicode.IsDigit(l.peek()) {
				isReal = true
				for l.pos < len(l.src) && unicode.IsDigit(l.src[l.pos]) {
					l.pos++
				}
			} else {
				l.pos = save
			}
		}
		kind := tokInt
		if isReal {
			kind = tokReal
		}
		return token{kind: kind, text: string(l.src[start:l.pos]), pos: start}, nil
	case c == '"':
		l.pos++
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) {
				return token{}, fmt.Errorf("classad: unterminated string at %d", start)
			}
			ch := l.src[l.pos]
			if ch == '"' {
				l.pos++
				return token{kind: tokString, text: sb.String(), pos: start}, nil
			}
			if ch == '\\' && l.pos+1 < len(l.src) {
				l.escape(&sb)
				continue
			}
			sb.WriteRune(ch)
			l.pos++
		}
	}
	two := func(k tokenKind, n int) (token, error) {
		t := token{kind: k, text: string(l.src[start : start+n]), pos: start}
		l.pos += n
		return t, nil
	}
	switch c {
	case '(':
		return two(tokLParen, 1)
	case ')':
		return two(tokRParen, 1)
	case ',':
		return two(tokComma, 1)
	case '.':
		return two(tokDot, 1)
	case '+':
		return two(tokPlus, 1)
	case '-':
		return two(tokMinus, 1)
	case '*':
		return two(tokStar, 1)
	case '/':
		return two(tokSlash, 1)
	case '%':
		return two(tokPercent, 1)
	case '?':
		return two(tokQuestion, 1)
	case ':':
		return two(tokColon, 1)
	case '!':
		if l.at(1) == '=' {
			return two(tokNe, 2)
		}
		return two(tokNot, 1)
	case '&':
		if l.at(1) == '&' {
			return two(tokAnd, 2)
		}
		return token{}, fmt.Errorf("classad: stray '&' at %d", start)
	case '|':
		if l.at(1) == '|' {
			return two(tokOr, 2)
		}
		return token{}, fmt.Errorf("classad: stray '|' at %d", start)
	case '=':
		if l.at(1) == '=' {
			return two(tokEq, 2)
		}
		if l.at(1) == '?' && l.at(2) == '=' {
			return two(tokMetaEq, 3)
		}
		if l.at(1) == '!' && l.at(2) == '=' {
			return two(tokMetaNe, 3)
		}
		return two(tokAssign, 1)
	case '<':
		if l.at(1) == '=' {
			return two(tokLe, 2)
		}
		return two(tokLt, 1)
	case '>':
		if l.at(1) == '=' {
			return two(tokGe, 2)
		}
		return two(tokGt, 1)
	}
	return token{}, fmt.Errorf("classad: unexpected character %q at %d", c, start)
}

// quoteEscapes are the escape letters strconv.Quote emits, which is how
// Value.String renders strings: \a \b \f \n \r \t \v \\ \" and the
// numeric \xNN, \uNNNN and \UNNNNNNNN forms.
const quoteEscapes = `abfnrtv\"xuU`

// escape decodes the backslash escape at l.pos into sb and advances past
// it. Every escape strconv.Quote emits decodes, so a rendered string lexes
// back to itself; any other backslash is kept literally, with the
// character after it.
func (l *lexer) escape(sb *strings.Builder) {
	esc := l.src[l.pos+1]
	if strings.ContainsRune(quoteEscapes, esc) {
		tail := string(l.src[l.pos:min(l.pos+10, len(l.src))])
		if v, multibyte, rest, err := strconv.UnquoteChar(tail, '"'); err == nil {
			if multibyte {
				sb.WriteRune(v)
			} else {
				sb.WriteByte(byte(v)) // \xNN is a raw byte
			}
			// The escape itself is ASCII, so bytes consumed = runes consumed.
			l.pos += len(tail) - len(rest)
			return
		}
	}
	sb.WriteRune('\\')
	sb.WriteRune(esc)
	l.pos += 2
}

func lexAll(src string) ([]token, error) {
	l := newLexer(src)
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}
