package classad

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strings"
	"unicode/utf8"
)

// Ad is a ClassAd: a set of (attribute, expression) bindings. Attribute
// names are case-insensitive, as in Condor.
//
// The bindings live in a slice sorted by lower-cased name, and a lookup
// scans it. The largest ad the program builds, a CE ad, has 16 bindings
// and a job ad 3: a scan of that many names, most of them rejected on
// length alone, beats hashing the name, and a queued job's ad costs one
// small array instead of a map.
//
// Rank writes a memo to the ad it ranks as TARGET, and MatchMemo writes
// one to both ads of a refused ask, so one Ad must not be evaluated from
// two goroutines at once. Parsed expressions are never written and may be
// shared freely.
type Ad struct {
	attrs []binding // sorted by name; names are unique
	// memo is allocated the first time this ad is ranked as TARGET or is
	// one of the two ads of a refused MatchMemo ask.
	memo *memo
}

// binding is one attribute of an ad.
type binding struct {
	name string // lower-cased
	expr Expr
}

// memo is what matchmaking remembers on an ad. wrote, which every writer
// of a binding calls, is the one place that invalidates it.
type memo struct {
	rank rankMemo

	// gen moves when a write may change a stored refusal: a rebinding of
	// a binding whose bit is set in watch, an insert, or a delete. Bit i
	// of watch is set when a refusal stored since gen last moved read
	// binding i. gen is 64 bits wide, so it cannot wrap.
	gen, watch uint64

	// refused is the ad that MatchMemo last found this ad does not match,
	// and myGen and targetGen are the two ads' generations at that ask.
	refused          *Ad
	myGen, targetGen uint64
}

// rankMemo remembers the last Rank expression evaluated with the ad as
// TARGET. When every attribute reference the expression can reach is
// TARGET-scoped (targetOnly), its value depends on this ad alone and val
// holds it; otherwise Rank re-evaluates without walking the expression
// again. Every write to a binding clears it.
type rankMemo struct {
	expr       Expr
	val        float64
	targetOnly bool
}

// memos returns the ad's memo, allocating it on first use.
func (a *Ad) memos() *memo {
	if a.memo == nil {
		a.memo = new(memo)
	}
	return a.memo
}

// wrote invalidates what the memo holds after binding i was rebound, or,
// when i is -1, after a binding was inserted or deleted. The Rank memo is
// cleared and its storage kept, so the next miss allocates nothing. A
// stored refusal outlives a write to a binding it did not read; an insert
// or a delete moves the generation whatever its name, because it shifts
// the positions watch holds and may bind a name a refusal found absent.
func (a *Ad) wrote(i int) {
	m := a.memo
	if m == nil {
		return
	}
	m.rank = rankMemo{}
	if i < 0 || m.watch&(1<<i) != 0 {
		m.gen++
		m.watch = 0
	}
}

// NewAd returns an empty ad.
func NewAd() *Ad {
	return &Ad{}
}

// lookup returns the expression bound to a name that is already
// lower-cased, as the parser leaves attribute references.
func (a *Ad) lookup(name string) (Expr, bool) {
	for i := range a.attrs {
		if a.attrs[i].name == name {
			return a.attrs[i].expr, true
		}
	}
	return nil, false
}

// index returns the position of name's binding, or -1. An ASCII name is
// folded to lower case as it is compared, so a lookup by a mixed-case
// constant such as "FreeCpus" allocates nothing.
func (a *Ad) index(name string) int {
	for i := 0; i < len(name); i++ {
		if name[i] >= utf8.RuneSelf {
			name = strings.ToLower(name)
			break
		}
	}
	for k := range a.attrs {
		if equalFold(a.attrs[k].name, name) {
			return k
		}
	}
	return -1
}

// equalFold reports whether s, with its ASCII letters lower-cased, is
// lower.
func equalFold(lower, s string) bool {
	if len(lower) != len(s) {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// bind stores e in binding i, or, when i is -1, inserts a binding of name
// at its sorted position.
func (a *Ad) bind(i int, name string, e Expr) {
	if i >= 0 {
		a.attrs[i].expr = e
	} else {
		name = strings.ToLower(name)
		k := 0
		for k < len(a.attrs) && a.attrs[k].name < name {
			k++
		}
		a.attrs = slices.Insert(a.attrs, k, binding{name: name, expr: e})
	}
	a.wrote(i)
}

// Set binds an attribute to an expression.
func (a *Ad) Set(name string, e Expr) {
	a.bind(a.index(name), name, e)
}

// SetValue binds an attribute to a literal value. Rebinding the literal
// already bound (same kind, same content bit for bit) is a no-op, so a
// refresh that rewrites unchanged values allocates nothing.
func (a *Ad) SetValue(name string, v Value) {
	i := a.index(name)
	if i >= 0 {
		if l, ok := a.attrs[i].expr.(*litExpr); ok && l.v.identical(v) {
			return
		}
	}
	a.bind(i, name, &litExpr{v})
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

// Get returns the bound expression.
func (a *Ad) Get(name string) (Expr, bool) {
	if i := a.index(name); i >= 0 {
		return a.attrs[i].expr, true
	}
	return nil, false
}

// Delete removes an attribute.
func (a *Ad) Delete(name string) {
	if i := a.index(name); i >= 0 {
		a.attrs = slices.Delete(a.attrs, i, i+1)
		a.wrote(-1)
	}
}

// Len returns the number of attributes.
func (a *Ad) Len() int { return len(a.attrs) }

// Names returns the lower-cased attribute names, sorted.
func (a *Ad) Names() []string {
	out := make([]string, len(a.attrs))
	for i, b := range a.attrs {
		out[i] = b.name
	}
	return out
}

// Clone returns a shallow copy (expressions are immutable once parsed)
// without a memo. The copy has room for one more binding: a clone is
// a template that its user completes, as a job ad gains its WallTime, and
// the spare slot saves growing the bindings to do it.
func (a *Ad) Clone() *Ad {
	attrs := make([]binding, len(a.attrs), len(a.attrs)+1)
	copy(attrs, a.attrs)
	return &Ad{attrs: attrs}
}

// String renders the ad in old-ClassAd "attr = expr" line syntax.
func (a *Ad) String() string {
	var sb strings.Builder
	for _, b := range a.attrs {
		fmt.Fprintf(&sb, "%s = %s\n", b.name, b.expr.String())
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
