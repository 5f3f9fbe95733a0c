package classad

import (
	"math"
	"math/rand"
	"testing"
)

// The differential fuzz decodes its bytes into an expression and ads over
// a small vocabulary, then checks the evaluator against the reference tree
// walker (reference_test.go) and Best/BestMatch against the unpruned scan.

var fuzzNames = []string{"a", "b", "self", "vo", "list", AttrRequirements, AttrRank}

var fuzzLits = []Value{
	UndefinedValue(), ErrorValue(), Bool(true), Bool(false),
	Int(0), Int(1), Int(-1), Int(2), Int(7), Int(1<<53 + 1), Int(math.MaxInt64), Int(math.MinInt64),
	Float(0), Float(math.Copysign(0, -1)), Float(0.5), Float(-2.5), Float(1e300),
	Float(math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1)),
	Str(""), Str("a"), Str("A"), Str(" a , ,B "), Str("a,"), Str("usatlas,USCMS"), Str("uscms"), Str(","), Str(" "),
}

var fuzzUnary = []tokenKind{tokNot, tokMinus}

var fuzzBinary = []tokenKind{
	tokPlus, tokMinus, tokStar, tokSlash, tokPercent, tokAnd, tokOr,
	tokEq, tokNe, tokLt, tokLe, tokGt, tokGe, tokMetaEq, tokMetaNe,
}

// fuzzFuncs maps every builtin, and one unknown name, to the argument
// count the generator favours.
var fuzzFuncs = []struct {
	name  string
	arity int
}{
	{"isundefined", 1}, {"iserror", 1}, {"ifthenelse", 3}, {"floor", 1}, {"ceiling", 1},
	{"round", 1}, {"int", 1}, {"real", 1}, {"min", 2}, {"max", 3}, {"strcat", 2},
	{"toupper", 1}, {"tolower", 1}, {"size", 1}, {"substr", 3},
	{"stringlistmember", 2}, {"stringlistsize", 1}, {"nosuch", 1},
}

// fuzzGen draws choices from the fuzz bytes; exhausted input reads as
// zeros, which always selects a literal, so generation terminates.
type fuzzGen struct {
	data []byte
	refs int // attribute references the current expression may still use
}

func (g *fuzzGen) pick(n int) int {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return int(b) % n
}

func (g *fuzzGen) expr(depth int) Expr {
	k := g.pick(8)
	if depth <= 0 {
		k %= 2
	}
	if k == 1 && g.refs == 0 {
		k = 0
	}
	switch k {
	case 0:
		return &litExpr{fuzzLits[g.pick(len(fuzzLits))]}
	case 1:
		g.refs--
		return &attrExpr{scope: scope(g.pick(3)), name: fuzzNames[g.pick(len(fuzzNames))]}
	case 2:
		return &unaryExpr{op: fuzzUnary[g.pick(len(fuzzUnary))], x: g.expr(depth - 1)}
	case 3, 4:
		return &binaryExpr{op: fuzzBinary[g.pick(len(fuzzBinary))], l: g.expr(depth - 1), r: g.expr(depth - 1)}
	case 5:
		return &condExpr{cond: g.expr(depth - 1), then: g.expr(depth - 1), els: g.expr(depth - 1)}
	}
	fn := fuzzFuncs[g.pick(len(fuzzFuncs))]
	n := fn.arity
	if g.pick(4) == 0 {
		n = g.pick(7)
	}
	args := make([]Expr, n)
	for i := range args {
		args[i] = g.expr(depth - 1)
	}
	return &callExpr{fn: fn.name, args: args}
}

// ad binds some of the vocabulary. A bound expression holds at most one
// attribute reference: cycles (self = self + 1, a = b with b = a) still
// reach the depth limit, but evaluation stays linear in it rather than
// branching at every level.
func (g *fuzzGen) ad(depth int) *Ad {
	a := NewAd()
	for _, n := range fuzzNames {
		if g.pick(3) == 0 {
			continue
		}
		g.refs = 1
		a.Set(n, g.expr(depth))
	}
	return a
}

func sameValue(a, b Value) bool {
	if a.kind == Real && b.kind == Real && math.IsNaN(a.f) && math.IsNaN(b.f) {
		return true
	}
	return a.identical(b)
}

func sameRank(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func checkEval(t *testing.T, data []byte) {
	g := &fuzzGen{data: data}
	my, target := g.ad(3), g.ad(3)
	g.refs = 8
	e := g.expr(5)
	for _, c := range []struct{ my, target *Ad }{{my, target}, {target, my}, {my, nil}} {
		got, want := EvalWithTarget(e, c.my, c.target), refEval(e, c.my, c.target)
		if !sameValue(got, want) {
			t.Fatalf("%s = %v (%v), reference %v (%v)\nmy:\n%starget:\n%s",
				e, got, got.Kind(), want, want.Kind(), c.my, c.target)
		}
	}
	if got, want := Match(my, target), refMatch(my, target); got != want {
		t.Fatalf("Match = %v, reference %v\nmy:\n%starget:\n%s", got, want, my, target)
	}
	if got, want := Rank(my, target), refRank(my, target); !sameRank(got, want) {
		t.Fatalf("Rank = %v, reference %v\nmy:\n%starget:\n%s", got, want, my, target)
	}

	// Candidates: nil entries and small ads whose literals tie, go NaN, or
	// lack Requirements or Rank; my is the job.
	cands := make([]*Ad, g.pick(10))
	for i := range cands {
		if g.pick(6) == 0 {
			continue
		}
		cands[i] = g.ad(1)
	}
	want := refBestMatch(my, cands)
	if got := BestMatch(my, cands); got != want {
		t.Fatalf("BestMatch = %d, reference %d", got, want)
	}
}

func FuzzEval(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("self = self + 1"))
	f.Add([]byte{1, 1, 2, 1, 0, 6, 15, 3, 5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 200, 100, 50, 25, 12, 6, 3})
	f.Fuzz(checkEval)
}

// TestBuiltinsMatchReference calls every builtin on every combination of
// up to three vocabulary literals.
func TestBuiltinsMatchReference(t *testing.T) {
	lits := make([]Expr, len(fuzzLits))
	for i, v := range fuzzLits {
		lits[i] = &litExpr{v}
	}
	var args []Expr
	var walk func(fn string, n int)
	walk = func(fn string, n int) {
		e := &callExpr{fn: fn, args: append([]Expr(nil), args...)}
		if got, want := Eval(e, nil), refEval(e, nil, nil); !sameValue(got, want) {
			t.Fatalf("%s = %v (%v), reference %v (%v)", e, got, got.Kind(), want, want.Kind())
		}
		if n == 0 {
			return
		}
		for _, l := range lits {
			args = append(args, l)
			walk(fn, n-1)
			args = args[:len(args)-1]
		}
	}
	for _, fn := range fuzzFuncs {
		walk(fn.name, 3)
	}
}

// TestEvalMatchesReference runs the fuzz check over a fixed stream of
// pseudo-random inputs, so the plain test suite covers it too.
func TestEvalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 512)
	for i := 0; i < 5000; i++ {
		data := buf[:rng.Intn(len(buf))]
		rng.Read(data)
		checkEval(t, data)
	}
}
