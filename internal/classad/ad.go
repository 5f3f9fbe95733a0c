package classad

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"unicode/utf8"
)

// Ad is a ClassAd: an unordered set of (attribute, expression) pairs.
// Attribute names are case-insensitive, as in Condor.
//
// Rank writes a memo to the ad it ranks as TARGET, so one Ad must not be
// evaluated from two goroutines at once. Parsed expressions are never
// written and may be shared freely.
type Ad struct {
	attrs map[string]Expr
	rank  *rankMemo // allocated the first time this ad is ranked as TARGET
}

// rankMemo remembers the last Rank expression evaluated with the ad as
// TARGET. When every attribute reference the expression can reach is
// TARGET-scoped (targetOnly), its value depends on this ad alone and val
// holds it; otherwise Rank re-evaluates without walking the expression
// again. Set and Delete, the only writers of a binding after NewAd and
// Clone, clear it.
type rankMemo struct {
	expr       Expr
	val        float64
	targetOnly bool
}

// NewAd returns an empty ad.
func NewAd() *Ad {
	return &Ad{attrs: make(map[string]Expr)}
}

// Set binds an attribute to an expression.
func (a *Ad) Set(name string, e Expr) {
	a.attrs[strings.ToLower(name)] = e
	a.forgetRank()
}

// forgetRank clears the Rank memo. The memo itself is kept, so the next
// miss stores into it without allocating.
func (a *Ad) forgetRank() {
	if a.rank != nil {
		*a.rank = rankMemo{}
	}
}

// SetValue binds an attribute to a literal value. Rebinding the literal
// already bound (same kind, same content bit for bit) is a no-op, so a
// refresh that rewrites unchanged values allocates nothing.
func (a *Ad) SetValue(name string, v Value) {
	e, _ := a.Get(name)
	if l, ok := e.(*litExpr); ok && l.v.identical(v) {
		return
	}
	a.Set(name, &litExpr{v})
}

// SetString, SetInt, SetFloat and SetBool are literal-binding conveniences.
func (a *Ad) SetString(name, s string) { a.SetValue(name, Str(s)) }

// SetInt binds an integer literal.
func (a *Ad) SetInt(name string, i int64) { a.SetValue(name, Int(i)) }

// SetFloat binds a real literal.
func (a *Ad) SetFloat(name string, f float64) { a.SetValue(name, Float(f)) }

// SetBool binds a boolean literal.
func (a *Ad) SetBool(name string, b bool) { a.SetValue(name, Bool(b)) }

// SetExpr parses src and binds it; it returns a parse error if any.
func (a *Ad) SetExpr(name, src string) error {
	e, err := Parse(src)
	if err != nil {
		return err
	}
	a.Set(name, e)
	return nil
}

// Get returns the bound expression. ASCII names up to 64 bytes fold to
// lower case in a stack buffer, so a lookup by a mixed-case constant such
// as "FreeCpus" allocates nothing.
func (a *Ad) Get(name string) (Expr, bool) {
	var buf [64]byte
	if len(name) > len(buf) {
		e, ok := a.attrs[strings.ToLower(name)]
		return e, ok
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= utf8.RuneSelf {
			e, ok := a.attrs[strings.ToLower(name)]
			return e, ok
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf[i] = c
	}
	e, ok := a.attrs[string(buf[:len(name)])]
	return e, ok
}

// Delete removes an attribute.
func (a *Ad) Delete(name string) {
	delete(a.attrs, strings.ToLower(name))
	a.forgetRank()
}

// Len returns the number of attributes.
func (a *Ad) Len() int { return len(a.attrs) }

// Names returns attribute names, sorted.
func (a *Ad) Names() []string {
	out := make([]string, 0, len(a.attrs))
	for n := range a.attrs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Clone returns a shallow copy (expressions are immutable once parsed)
// without a Rank memo.
func (a *Ad) Clone() *Ad {
	c := NewAd()
	for n, e := range a.attrs {
		c.attrs[n] = e
	}
	return c
}

// String renders the ad in old-ClassAd "attr = expr" line syntax.
func (a *Ad) String() string {
	var sb strings.Builder
	for _, n := range a.Names() {
		fmt.Fprintf(&sb, "%s = %s\n", n, a.attrs[n].String())
	}
	return sb.String()
}

// ParseAd reads an old-syntax ad: one "Attr = Expr" per line, with blank
// lines and '#' comments ignored.
func ParseAd(r io.Reader) (*Ad, error) {
	a := NewAd()
	sc := bufio.NewScanner(r)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		eq := strings.Index(line, "=")
		if eq <= 0 {
			return nil, fmt.Errorf("classad: line %d: expected Attr = Expr", lineno)
		}
		name := strings.TrimSpace(line[:eq])
		if strings.ContainsAny(name, " \t") {
			return nil, fmt.Errorf("classad: line %d: bad attribute name %q", lineno, name)
		}
		if err := a.SetExpr(name, line[eq+1:]); err != nil {
			return nil, fmt.Errorf("classad: line %d: %w", lineno, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return a, nil
}

// ParseAdString parses an old-syntax ad from a string.
func ParseAdString(s string) (*Ad, error) {
	return ParseAd(strings.NewReader(s))
}

// MustParseAd parses or panics; for test fixtures and built-in ads.
func MustParseAd(s string) *Ad {
	a, err := ParseAdString(s)
	if err != nil {
		panic(err)
	}
	return a
}
