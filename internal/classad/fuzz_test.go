package classad

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
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

	// The Rank memo on target: rank the same job again (a hit when my's
	// Rank reads only target), rank a job that shares my's Rank expression
	// but binds other MY values, then delete, rebind or keep each target
	// attribute in turn and rank both again after each change. Exhausted
	// input deletes every attribute.
	other := g.ad(3)
	if r, ok := my.Get(AttrRank); ok {
		other.Set(AttrRank, r)
	}
	rank := func(step string, job *Ad) {
		if got, want := Rank(job, target), refRank(job, target); !sameRank(got, want) {
			t.Fatalf("%s: Rank = %v, reference %v\nmy:\n%starget:\n%s", step, got, want, job, target)
		}
	}
	rank("again", my)
	rank("shared Rank", other)
	rank("shared Rank again", other)
	for _, name := range fuzzNames {
		switch g.pick(4) {
		case 0:
			target.Delete(name)
		case 1:
			g.refs = 1
			target.Set(name, g.expr(3))
		case 2:
			target.SetValue(name, fuzzLits[g.pick(len(fuzzLits))])
		default:
			continue
		}
		rank("after "+name+" changed", my)
		rank("after "+name+" changed, shared Rank", other)
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

// adNames mixes cases of the names FuzzParseAd's operations bind, and
// includes the Kelvin sign, which lower-cases to an ASCII "k".
var adNames = []string{
	"Rank", "rank", "RANK", "WallTime", "walltime", "VO", "vo", "Vo",
	"FreeCpus", "freecpus", "a", "A", "b", "zz", "k", "\u212a",
}

// adExprs are what Set binds in FuzzParseAd.
var adExprs = []Expr{
	MustParse("TARGET.FreeCpus - TARGET.WaitingJobs"), MustParse("1"), MustParse(`"uscms"`),
	MustParse("a + b"), MustParse("undefined"),
}

// FuzzParseAd parses arbitrary text as an ad. ParseAd must not panic, and
// an ad it accepts must survive String and ParseAd with the same names and
// the same bindings. Then ops drives mixed-case Set, SetValue, Delete and
// Get on the ad, checked against a map keyed by the lower-cased name.
func FuzzParseAd(f *testing.F) {
	f.Add("", []byte{})
	f.Add("Name = \"UC_ATLAS_Tier2\"\n# comment\n\nCpus = 64\nRank = 10.5 - 0.5\n", []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add("A = 1\na = TARGET.x\nRequirements = stringListMember(TARGET.VO, \"usatlas,uscms\") && TARGET.WallTime <= 86400\n",
		[]byte{9, 17, 33, 2, 200, 14, 15, 3})
	f.Add("x = 2.0\ny = -1e3\nz = !true || s == \"\\t\"\n", []byte{255, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(checkParseAd)
}

func checkParseAd(t *testing.T, src string, ops []byte) {
	ad, err := ParseAdString(src)
	if err != nil {
		ad = NewAd()
	} else {
		text := ad.String()
		back, err := ParseAdString(text)
		if err != nil {
			t.Fatalf("rendered ad does not parse: %v\n%s", err, text)
		}
		if got, want := back.Names(), ad.Names(); !slices.Equal(got, want) {
			t.Fatalf("names %q after the round trip, want %q", got, want)
		}
		for _, n := range ad.Names() {
			a, _ := ad.Get(n)
			b, _ := back.Get(n)
			if a.String() != b.String() {
				t.Fatalf("%s = %s after the round trip, want %s", n, b, a)
			}
			if va, vb := Eval(a, ad), Eval(b, back); !sameValue(va, vb) {
				t.Fatalf("%s evaluates to %v (%v) after the round trip, want %v (%v)",
					n, vb, vb.Kind(), va, va.Kind())
			}
		}
	}

	model := make(map[string]Expr)
	for _, n := range ad.Names() {
		model[n], _ = ad.Get(n)
	}
	for len(ops) >= 2 {
		op, name := ops[0], adNames[int(ops[1])%len(adNames)]
		ops = ops[2:]
		key := strings.ToLower(name)
		switch op % 4 {
		case 0:
			e := adExprs[int(op/4)%len(adExprs)]
			ad.Set(name, e)
			model[key] = e
		case 1:
			v := fuzzLits[int(op/4)%len(fuzzLits)]
			old, had := model[key]
			ad.SetValue(name, v)
			got, _ := ad.Get(name)
			if l, ok := got.(*litExpr); !ok || !sameValue(l.v, v) {
				t.Fatalf("SetValue(%q, %v) bound %v", name, v, got)
			}
			if l, ok := old.(*litExpr); had && ok && l.v.identical(v) && got != old {
				t.Fatalf("SetValue(%q, %v) rebound an identical literal", name, v)
			}
			model[key] = got
		case 2:
			ad.Delete(name)
			delete(model, key)
		}
		got, ok := ad.Get(name)
		if want, wok := model[key]; ok != wok || got != want {
			t.Fatalf("Get(%q) = %v, %v; the model has %v, %v", name, got, ok, want, wok)
		}
		keys := make([]string, 0, len(model))
		for k := range model {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if names := ad.Names(); !slices.Equal(names, keys) || ad.Len() != len(keys) {
			t.Fatalf("Names = %q (Len %d), the model has %q", names, ad.Len(), keys)
		}
	}
}

// TestParseAdMatchesModel runs the FuzzParseAd check over rendered random
// ads and pseudo-random operations, so the plain test suite covers it too.
func TestParseAdMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 256)
	for i := 0; i < 2000; i++ {
		data := buf[:rng.Intn(len(buf))]
		rng.Read(data)
		g := &fuzzGen{data: data}
		checkParseAd(t, g.ad(3).String(), g.data)
	}
}
