package classad

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func evalStr(t *testing.T, src string) Value {
	t.Helper()
	e, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return Eval(e, NewAd())
}

func TestLiteralsAndArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		want Value
	}{
		{"42", Int(42)},
		{"-7", Int(-7)},
		{"3.5", Float(3.5)},
		{"2e3", Float(2000)},
		{"1 + 2 * 3", Int(7)},
		{"(1 + 2) * 3", Int(9)},
		{"7 / 2", Int(3)},
		{"7.0 / 2", Float(3.5)},
		{"7 % 3", Int(1)},
		{"1/0", ErrorValue()},
		{"1%0", ErrorValue()},
		{`"abc" + "def"`, Str("abcdef")},
		{"true", Bool(true)},
		{"FALSE", Bool(false)},
		{"UNDEFINED", UndefinedValue()},
		{"1 + undefined", UndefinedValue()},
		{"1 + error", ErrorValue()},
		{"-(2.5)", Float(-2.5)},
		{"!true", Bool(false)},
		{"!0", Bool(true)},
		{"2 < 3", Bool(true)},
		{"2 >= 3", Bool(false)},
		{"2.0 == 2", Bool(true)},
		{`"ABC" == "abc"`, Bool(true)}, // case-insensitive string compare
		{`"abc" < "abd"`, Bool(true)},
		{"true == true", Bool(true)},
		{"1 == 2 ? 10 : 20", Int(20)},
		{"2 ? 10 : 20", Int(10)},
		{"undefined ? 10 : 20", UndefinedValue()},
	}
	for _, c := range cases {
		got := evalStr(t, c.src)
		if !got.Equal(c.want) || got.Kind() != c.want.Kind() {
			t.Errorf("%q = %v (%v), want %v (%v)", c.src, got, got.Kind(), c.want, c.want.Kind())
		}
	}
}

func TestThreeValuedLogic(t *testing.T) {
	cases := []struct {
		src  string
		want Value
	}{
		{"false && undefined", Bool(false)},
		{"undefined && false", Bool(false)},
		{"true && undefined", UndefinedValue()},
		{"undefined && true", UndefinedValue()},
		{"true || undefined", Bool(true)},
		{"undefined || true", Bool(true)},
		{"false || undefined", UndefinedValue()},
		{"undefined || false", UndefinedValue()},
		{"undefined && undefined", UndefinedValue()},
		{"error && false", ErrorValue()},
		{"true && error", ErrorValue()},
	}
	for _, c := range cases {
		got := evalStr(t, c.src)
		if got.Kind() != c.want.Kind() || !got.Equal(c.want) {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestMetaOperators(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"undefined =?= undefined", true},
		{"undefined =?= 1", false},
		{"undefined =!= 1", true},
		{"1 =?= 1", true},
		{"1 =?= 1.0", true},    // numeric promotion
		{`"a" =?= "A"`, false}, // identity is case-sensitive
		{`"a" =?= "a"`, true},
	}
	for _, c := range cases {
		got := evalStr(t, c.src)
		b, ok := got.BoolVal()
		if !ok || b != c.want {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestAttributeReferences(t *testing.T) {
	ad := MustParseAd(`
Memory = 2048
Disk = Memory * 2
Cpus = 4
Deep = Disk + Cpus
`)
	if v := EvalAttr("deep", ad, nil); !v.Equal(Int(4100)) {
		t.Fatalf("deep = %v", v)
	}
	if v := EvalAttr("missing", ad, nil); !v.IsUndefined() {
		t.Fatalf("missing attr = %v, want UNDEFINED", v)
	}
}

func TestCyclicReferenceYieldsError(t *testing.T) {
	ad := MustParseAd("a = b\nb = a\n")
	if v := EvalAttr("a", ad, nil); !v.IsError() {
		t.Fatalf("cyclic ref = %v, want ERROR", v)
	}
}

func TestScopedReferences(t *testing.T) {
	job := MustParseAd(`
ImageSize = 500
Requirements = TARGET.Memory >= MY.ImageSize
`)
	machine := MustParseAd("Memory = 1024\n")
	req, _ := job.Get("requirements")
	if v := EvalWithTarget(req, job, machine); !v.IsTrue() {
		t.Fatalf("requirements = %v", v)
	}
	small := MustParseAd("Memory = 256\n")
	if v := EvalWithTarget(req, job, small); v.IsTrue() {
		t.Fatal("requirements true against small machine")
	}
}

func TestUnscopedFallsThroughToTarget(t *testing.T) {
	job := MustParseAd("Requirements = Arch == \"INTEL\"\n")
	machine := MustParseAd("Arch = \"INTEL\"\n")
	req, _ := job.Get("requirements")
	if v := EvalWithTarget(req, job, machine); !v.IsTrue() {
		t.Fatalf("unscoped lookup failed: %v", v)
	}
}

func TestBuiltins(t *testing.T) {
	cases := []struct {
		src  string
		want Value
	}{
		{"floor(3.9)", Int(3)},
		{"ceiling(3.1)", Int(4)},
		{"round(3.5)", Int(4)},
		{"int(3.9)", Int(3)},
		{"real(3)", Float(3)},
		{"min(3, 1, 2)", Int(1)},
		{"max(3, 1, 2.5)", Float(3)},
		{`strcat("a", "b", 3)`, Str("ab3")},
		{`toUpper("gram")`, Str("GRAM")},
		{`toLower("GRAM")`, Str("gram")},
		{`size("grid3")`, Int(5)},
		{`substr("gatekeeper", 4)`, Str("keeper")},
		{`substr("gatekeeper", 0, 4)`, Str("gate")},
		{`substr("abc", -2)`, Str("bc")},
		{`stringListMember("usatlas", "uscms, usatlas, ligo")`, Bool(true)},
		{`stringListMember("btev", "uscms, usatlas")`, Bool(false)},
		{`stringListSize("a,b,c")`, Int(3)},
		{`stringListSize("")`, Int(0)},
		{"isUndefined(undefined)", Bool(true)},
		{"isUndefined(1)", Bool(false)},
		{"isError(1/0)", Bool(true)},
		{"ifThenElse(true, 1, 2)", Int(1)},
		{"ifThenElse(false, 1, 2)", Int(2)},
		{"floor(undefined)", UndefinedValue()},
		{"nosuchfunction(1)", ErrorValue()},
	}
	for _, c := range cases {
		got := evalStr(t, c.src)
		if got.Kind() != c.want.Kind() || !got.Equal(c.want) {
			t.Errorf("%q = %v (%v), want %v", c.src, got, got.Kind(), c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"1 +", "(1", "foo(", "1 ? 2", "a b", `"unterminated`, "& &", "|",
		"1 @ 2",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseAdErrors(t *testing.T) {
	bad := []string{
		"noequals\n",
		"= expr\n",
		"two words = 1\n",
		"a = 1 +\n",
	}
	for _, src := range bad {
		if _, err := ParseAdString(src); err == nil {
			t.Errorf("ParseAdString(%q) succeeded, want error", src)
		}
	}
}

func TestAdRoundTrip(t *testing.T) {
	ad := MustParseAd(`
Name = "UC_ATLAS_Tier2"
Cpus = 64
Requirements = TARGET.WallTime <= 86400 && stringListMember(TARGET.VO, "usatlas,ivdgl")
Rank = 10.5 - 0.5
`)
	rendered := ad.String()
	back, err := ParseAdString(rendered)
	if err != nil {
		t.Fatalf("round-trip parse failed: %v\n%s", err, rendered)
	}
	if back.Len() != ad.Len() {
		t.Fatalf("round trip lost attributes: %d vs %d", back.Len(), ad.Len())
	}
	for _, n := range ad.Names() {
		a, _ := ad.Get(n)
		b, _ := back.Get(n)
		if Eval(a, ad).String() != Eval(b, back).String() {
			t.Fatalf("attribute %s changed: %s vs %s", n, a, b)
		}
	}
}

func TestMatchSymmetric(t *testing.T) {
	job := MustParseAd(`
VO = "uscms"
WallTime = 108000
Requirements = TARGET.FreeCpus > 0 && TARGET.MaxWallTime >= MY.WallTime
Rank = TARGET.FreeCpus
`)
	okSite := MustParseAd(`
FreeCpus = 20
MaxWallTime = 200000
Requirements = stringListMember(TARGET.VO, "uscms,usatlas")
`)
	noVOSite := MustParseAd(`
FreeCpus = 50
MaxWallTime = 200000
Requirements = stringListMember(TARGET.VO, "ligo")
`)
	shortSite := MustParseAd(`
FreeCpus = 50
MaxWallTime = 3600
`)
	if !Match(job, okSite) {
		t.Fatal("job should match okSite")
	}
	if Match(job, noVOSite) {
		t.Fatal("job matched a site that rejects its VO")
	}
	if Match(job, shortSite) {
		t.Fatal("job matched a site with too-short MaxWallTime")
	}
}

func TestMatchMissingRequirementsIsTrue(t *testing.T) {
	a := NewAd()
	b := NewAd()
	if !Match(a, b) {
		t.Fatal("two unconstrained ads should match")
	}
}

func TestUndefinedRequirementsDoesNotMatch(t *testing.T) {
	job := MustParseAd("Requirements = TARGET.NoSuchAttr > 5\n")
	site := NewAd()
	if Match(job, site) {
		t.Fatal("UNDEFINED requirements treated as a match")
	}
}

func TestBestMatchRanking(t *testing.T) {
	job := MustParseAd(`
Requirements = TARGET.FreeCpus > 0
Rank = TARGET.FreeCpus
`)
	sites := []*Ad{
		MustParseAd("FreeCpus = 5\n"),
		MustParseAd("FreeCpus = 50\n"),
		MustParseAd("FreeCpus = 0\n"),
		MustParseAd("FreeCpus = 50\n"), // tie with index 1; index 1 wins
	}
	if got := BestMatch(job, sites); got != 1 {
		t.Fatalf("BestMatch = %d, want 1", got)
	}
	all := MatchAll(job, sites)
	if len(all) != 3 || all[0] != 0 || all[1] != 1 || all[2] != 3 {
		t.Fatalf("MatchAll = %v", all)
	}
}

func TestBestMatchNoCandidates(t *testing.T) {
	job := MustParseAd("Requirements = TARGET.FreeCpus > 100\n")
	sites := []*Ad{MustParseAd("FreeCpus = 5\n"), nil}
	if got := BestMatch(job, sites); got != -1 {
		t.Fatalf("BestMatch = %d, want -1", got)
	}
}

func TestRankDefaults(t *testing.T) {
	a := NewAd()
	if r := Rank(a, NewAd()); r != 0 {
		t.Fatalf("missing rank = %v, want 0", r)
	}
	a.SetExpr("Rank", "TARGET.NoSuch")
	if r := Rank(a, NewAd()); r != 0 {
		t.Fatalf("undefined rank = %v, want 0", r)
	}
	a.SetExpr("Rank", "true")
	if r := Rank(a, NewAd()); r != 1 {
		t.Fatalf("boolean true rank = %v, want 1", r)
	}
}

// Property: any expression the parser accepts renders to a string that
// re-parses to an expression with the same value.
func TestExprStringRoundTripProperty(t *testing.T) {
	srcs := []string{
		"1 + 2 * 3 - 4 / 2",
		"a && b || !c",
		"(x > 5) ? \"big\" : \"small\"",
		"min(a, 3) + max(1, b)",
		"TARGET.Memory >= MY.ImageSize && stringListMember(vo, list)",
		"x =?= undefined",
	}
	ad := MustParseAd("a = true\nb = false\nc = true\nx = 7\nvo = \"ligo\"\nlist = \"ligo,sdss\"\nmemory = 10\nimagesize = 5\n")
	for _, src := range srcs {
		e1 := MustParse(src)
		e2, err := Parse(e1.String())
		if err != nil {
			t.Fatalf("re-parse of %q -> %q failed: %v", src, e1.String(), err)
		}
		v1 := EvalWithTarget(e1, ad, ad)
		v2 := EvalWithTarget(e2, ad, ad)
		if v1.Kind() != v2.Kind() || !v1.Equal(v2) {
			t.Fatalf("round trip changed value of %q: %v vs %v", src, v1, v2)
		}
	}
}

// Property: integer arithmetic in the ClassAd evaluator agrees with Go.
func TestArithmeticAgreesWithGoProperty(t *testing.T) {
	f := func(a, b int16) bool {
		ad := NewAd()
		ad.SetInt("a", int64(a))
		ad.SetInt("b", int64(b))
		sum := EvalAttr("a", ad, nil)
		_ = sum
		e := MustParse("a + b * 2 - (a % ifThenElse(b == 0, 1, b))")
		v := Eval(e, ad)
		bb := int64(b)
		div := bb
		if div == 0 {
			div = 1
		}
		want := int64(a) + bb*2 - int64(a)%div
		got, ok := v.IntVal()
		return ok && got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Match is symmetric by construction.
func TestMatchSymmetryProperty(t *testing.T) {
	f := func(x, y uint8) bool {
		a := NewAd()
		a.SetInt("v", int64(x))
		a.SetExpr("Requirements", "TARGET.v >= 10")
		b := NewAd()
		b.SetInt("v", int64(y))
		b.SetExpr("Requirements", "TARGET.v >= 10")
		return Match(a, b) == Match(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLexerStrings(t *testing.T) {
	e := MustParse(`"tab\there \"quoted\" back\\slash"`)
	v := Eval(e, NewAd())
	s, _ := v.StringVal()
	if !strings.Contains(s, "\t") || !strings.Contains(s, `"quoted"`) || !strings.Contains(s, `back\slash`) {
		t.Fatalf("escapes mishandled: %q", s)
	}
}

func BenchmarkMatch(b *testing.B) {
	job := MustParseAd(`
VO = "uscms"
WallTime = 108000
Requirements = TARGET.FreeCpus > 0 && TARGET.MaxWallTime >= MY.WallTime && stringListMember(MY.VO, TARGET.SupportedVOs)
Rank = TARGET.FreeCpus
`)
	site := MustParseAd(`
FreeCpus = 20
MaxWallTime = 200000
SupportedVOs = "uscms,usatlas,ivdgl"
`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !Match(job, site) {
			b.Fatal("no match")
		}
	}
}

// Property: Parse never panics and either returns an expression or an
// error for arbitrary input; accepted input re-renders and re-parses.
func TestParseTotalityProperty(t *testing.T) {
	f := func(src string) bool {
		e, err := Parse(src)
		if err != nil {
			return true
		}
		// Whatever parsed must round-trip through String().
		e2, err := Parse(e.String())
		if err != nil {
			return false
		}
		v1 := Eval(e, NewAd())
		v2 := Eval(e2, NewAd())
		return v1.Kind() == v2.Kind()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: evaluation is pure — evaluating the same expression against
// the same ad twice yields identical values.
func TestEvalPurityProperty(t *testing.T) {
	ad := MustParseAd("x = 3\ny = 4.5\ns = \"abc\"\n")
	exprs := []string{
		"x + y", "x > y || s == \"ABC\"", "substr(s, x - 2)",
		"min(x, y) * max(x, y)", "x % 2 == 1 ? s : \"even\"",
	}
	for _, src := range exprs {
		e := MustParse(src)
		a := Eval(e, ad)
		b := Eval(e, ad)
		if a.Kind() != b.Kind() || !a.Equal(b) {
			t.Fatalf("%q evaluated differently: %v vs %v", src, a, b)
		}
	}
}

// Integer min and max stay exact above 2^53; any real argument keeps the
// float comparison and a real result.
func TestMinMaxIntegerPrecision(t *testing.T) {
	cases := []struct {
		src  string
		want Value
	}{
		{"max(9007199254740993, 1)", Int(9007199254740993)},
		{"min(9007199254740993, 9007199254740992)", Int(9007199254740992)},
		{"min(-9007199254740993, 1)", Int(-9007199254740993)},
		{"max(9223372036854775807, 9223372036854775806, 0)", Int(math.MaxInt64)},
		{"min(-9223372036854775807 - 1, 0)", Int(math.MinInt64)},
		{"min(3)", Int(3)},
		{"max(2, 1.5)", Float(2)},
		{"min(1, 2.5)", Float(1)},
		{"max(9007199254740993, 0.5)", Float(9007199254740992)},
		{"max()", ErrorValue()},
		{`max(1, "a")`, ErrorValue()},
		{"min(1, undefined)", UndefinedValue()},
	}
	for _, c := range cases {
		got := evalStr(t, c.src)
		if !got.identical(c.want) {
			t.Errorf("%s = %v (%v), want %v (%v)", c.src, got, got.Kind(), c.want, c.want.Kind())
		}
	}
}

// Property: any string survives Ad.String → ParseAd, whatever escapes
// strconv.Quote renders it with.
func TestStringLiteralRoundTripProperty(t *testing.T) {
	roundTrips := func(s string) bool {
		ad := NewAd()
		ad.SetString("s", s)
		back, err := ParseAdString(ad.String())
		if err != nil {
			return false
		}
		got, ok := EvalAttr("s", back, nil).StringVal()
		return ok && got == s
	}
	for _, s := range []string{"a\rb", "\a\b\f\v", "\x00", "\x7f", " ", "\xff\xfe", "\U0001F600", `back\slash "q"`} {
		if !roundTrips(s) {
			t.Errorf("%q does not round-trip", s)
		}
	}
	if err := quick.Check(roundTrips, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Backslashes strconv.Quote never emits keep their literal meaning.
func TestLexerKeepsUnknownEscapes(t *testing.T) {
	for src, want := range map[string]string{
		`"a\qb"`:    `a\qb`,
		`"\'"`:      `\'`,
		`"\101"`:    `\101`,
		`"\xZZ"`:    `\xZZ`,
		`"\ud800"`:  `\ud800`,
		`"\x41é\t"`: "Aé\t",
	} {
		got, _ := Eval(MustParse(src), NewAd()).StringVal()
		if got != want {
			t.Errorf("%s lexes to %q, want %q", src, got, want)
		}
	}
}

// A held candidate is displaced only by a strictly higher job Rank, or an
// equal one with a strictly higher target Rank; a held NaN stays.
func TestBestOfferOrder(t *testing.T) {
	job := MustParseAd("Rank = TARGET.r\n")
	ad := func(src string) *Ad { return MustParseAd(src) }
	nan := NewAd()
	nan.SetFloat("r", math.NaN())
	cases := []struct {
		name  string
		cands []*Ad
		want  int
	}{
		{"tie keeps lowest index", []*Ad{nil, ad("r = 2\n"), ad("r = 2\n")}, 1},
		{"target rank breaks tie", []*Ad{ad("r = 2\n"), ad("r = 2\nRank = 1\n")}, 1},
		{"higher rank must still match", []*Ad{ad("r = 1\n"), ad("r = 5\nRequirements = false\n")}, 0},
		{"NaN never displaces", []*Ad{ad("r = 1\n"), nan}, 0},
		{"held NaN stays", []*Ad{nan, ad("r = 9\n")}, 0},
		{"nothing matches", []*Ad{nil, ad("Requirements = undefined\n")}, -1},
	}
	for _, c := range cases {
		if got := BestMatch(job, c.cands); got != c.want {
			t.Errorf("%s: BestMatch = %d, want %d", c.name, got, c.want)
		}
		if got := refBestMatch(job, c.cands); got != c.want {
			t.Errorf("%s: reference scan = %d, want %d", c.name, got, c.want)
		}
	}
}

// Rank memoizes on the TARGET ad only when every reference its expression
// can reach is TARGET-scoped. A TARGET reference is followed into the
// target's binding, which the evaluator evaluates with MY still bound to
// the job, so jobs sharing one Rank expression get their own values
// whenever such a binding reads MY or an unscoped name.
func TestRankMemoFollowsTargetBindings(t *testing.T) {
	rank := MustParse("TARGET.FreeCpus - TARGET.WaitingJobs")
	job := func(cpus int64) *Ad {
		a := NewAd()
		a.Set(AttrRank, rank)
		a.SetInt("Cpus", cpus)
		return a
	}
	jobs := []*Ad{job(1), job(4), job(1)}
	cases := []struct {
		name, ce string
		stored   bool
	}{
		{"literals", "FreeCpus = 8\nWaitingJobs = 3\n", true},
		{"missing attribute", "FreeCpus = 8\n", true},
		{"TARGET chain", "FreeCpus = TARGET.Slots - 2\nSlots = 10\nWaitingJobs = 3\n", true},
		{"binding reads MY", "FreeCpus = MY.Cpus * 2\nWaitingJobs = 3\n", false},
		{"binding reads an unscoped name", "FreeCpus = Cpus + 1\nCpus = 100\nWaitingJobs = 3\n", false},
		{"TARGET chain reaches MY", "FreeCpus = TARGET.Slots\nSlots = ifThenElse(MY.Cpus > 2, 10, 20)\nWaitingJobs = 3\n", false},
		{"reference cycle", "FreeCpus = TARGET.WaitingJobs\nWaitingJobs = TARGET.FreeCpus + 1\n", false},
	}
	for _, c := range cases {
		ce := MustParseAd(c.ce)
		for i, j := range jobs {
			if got, want := Rank(j, ce), refRank(j, ce); !sameRank(got, want) {
				t.Errorf("%s: job %d Rank = %v, reference %v", c.name, i, got, want)
			}
		}
		if stored := ce.memo != nil && ce.memo.rank.expr == rank && ce.memo.rank.targetOnly; stored != c.stored {
			t.Errorf("%s: value stored = %v, want %v", c.name, stored, c.stored)
		}
	}
}

// Set and Delete clear the memo; SetValue of the literal already bound
// changes nothing and keeps it.
func TestRankMemoInvalidation(t *testing.T) {
	job := MustParseAd("Rank = TARGET.FreeCpus - TARGET.WaitingJobs\n")
	ce := MustParseAd("FreeCpus = 8\nWaitingJobs = 3\n")
	steps := []struct {
		name   string
		change func()
		kept   bool // the memo still holds a value when Rank is called
		want   float64
	}{
		{"first", func() {}, false, 5},
		{"again", func() {}, true, 5},
		{"SetInt", func() { ce.SetInt("FreeCpus", 10) }, false, 7},
		{"Set", func() { ce.Set("WaitingJobs", MustParse("TARGET.FreeCpus / 2")) }, false, 5},
		{"identical SetInt", func() { ce.SetInt("FreeCpus", 10) }, true, 5},
		{"Delete", func() { ce.Delete("WaitingJobs") }, false, 0},
		{"Set after Delete", func() { ce.SetInt("WaitingJobs", 1) }, false, 9},
	}
	for _, s := range steps {
		s.change()
		if kept := ce.memo != nil && ce.memo.rank.expr != nil; kept != s.kept {
			t.Fatalf("%s: memo kept = %v, want %v", s.name, kept, s.kept)
		}
		if got := Rank(job, ce); got != s.want || got != refRank(job, ce) {
			t.Fatalf("%s: Rank = %v, want %v", s.name, got, s.want)
		}
	}
	if c := ce.Clone(); c.memo != nil {
		t.Fatal("Clone copied the memo")
	}
}

// A collector refresh that rebinds every CE ad makes every candidate of
// the next scan miss the memo. Once an ad's memo exists, the miss
// (evaluation plus the walk) allocates nothing.
func TestRankMemoMissAllocatesNothing(t *testing.T) {
	free := []Expr{MustParse("3"), MustParse("5")}
	ads := make([]*Ad, 1000)
	for i := range ads {
		ads[i] = MustParseAd(fmt.Sprintf(`FreeCpus = %d
WaitingJobs = %d
MaxWallTime = 172800
SupportedVOs = "usatlas,uscms"
Requirements = stringListMember(TARGET.VO, MY.SupportedVOs) && TARGET.WallTime <= MY.MaxWallTime
`, i%13, i%3))
	}
	job := MustParseAd("Rank = TARGET.FreeCpus - TARGET.WaitingJobs\nVO = \"uscms\"\nWallTime = 3600\n")
	k := 0
	scan := func() {
		k ^= 1
		for _, ad := range ads {
			ad.Set("freecpus", free[k])
		}
		BestMatch(job, ads)
	}
	scan()
	if allocs := testing.AllocsPerRun(20, scan); allocs != 0 {
		t.Fatalf("rebinding %d CE ads and scanning them made %v allocations, want 0", len(ads), allocs)
	}
	for i, ad := range ads {
		if m := ad.memo; m == nil || !m.rank.targetOnly {
			t.Fatalf("ad %d: the scan after a rebind stored no Rank", i)
		}
	}
}

// MatchMemo remembers a refusal on the job ad. A write to a binding
// neither Requirements read keeps it, as a collector refresh of the load
// attributes does; a write to one that was read, an insert or a delete
// moves a generation, and the next ask evaluates again.
func TestMatchMemoWatchesWhatRequirementsRead(t *testing.T) {
	ce := MustParseAd(`FreeCpus = 8
WaitingJobs = 3
MaxWallTime = 3600
SupportedVOs = "usatlas,uscms"
Requirements = stringListMember(TARGET.VO, MY.SupportedVOs) && TARGET.WallTime <= MY.MaxWallTime
`)
	job := MustParseAd("Rank = TARGET.FreeCpus - TARGET.WaitingJobs\nVO = \"uscms\"\nWallTime = 7200\n")
	steps := []struct {
		name   string
		change func()
		hit    bool // the ask is answered by the stored refusal
		want   bool
	}{
		{"first", func() {}, false, false},
		{"again", func() {}, true, false},
		{"load refresh", func() { ce.SetInt("FreeCpus", 2); ce.SetInt("WaitingJobs", 9) }, true, false},
		{"Rank rebound", func() { job.Set(AttrRank, MustParse("0")) }, true, false},
		{"identical SetValue", func() { ce.SetInt("MaxWallTime", 3600) }, true, false},
		{"job VO rewritten", func() { job.SetString("VO", "usatlas") }, false, false},
		{"insert", func() { ce.SetBool("OutboundIP", true) }, false, false},
		{"after the insert", func() {}, true, false},
		{"delete", func() { ce.Delete("WaitingJobs") }, false, false},
		{"MaxWallTime raised", func() { ce.SetInt("MaxWallTime", 7200) }, false, true},
		{"matched, no refusal stored", func() {}, false, true},
		{"job Requirements inserted", func() { job.SetExpr(AttrRequirements, "TARGET.FreeCpus > 4") }, false, false},
		{"load refresh the job reads", func() { ce.SetInt("FreeCpus", 5) }, false, true},
	}
	for _, s := range steps {
		s.change()
		if hit := memoServes(job, ce); hit != s.hit {
			t.Fatalf("%s: served by the memo = %v, want %v", s.name, hit, s.hit)
		}
		if got := MatchMemo(job, ce); got != s.want || got != Match(job, ce) || got != refMatch(job, ce) {
			t.Fatalf("%s: MatchMemo = %v, want %v", s.name, got, s.want)
		}
	}
}

// memoServes reports whether MatchMemo(my, target) would be answered by
// the refusal stored on my.
func memoServes(my, target *Ad) bool {
	m := my.memo
	return m != nil && m.refused == target && m.myGen == m.gen && m.targetGen == target.memo.gen
}

// The walk resolves an unscoped name as the evaluator does, in MY first and
// then in TARGET: the CE's Requirements reads its own MaxWallTime and the
// job's WallTime, so a write to the job's MaxWallTime keeps the refusal,
// and writes to the job's WallTime or the CE's MaxWallTime clear it.
func TestMatchMemoResolvesUnscopedNames(t *testing.T) {
	ce := MustParseAd("MaxWallTime = 3600\nRequirements = WallTime <= MaxWallTime\n")
	job := MustParseAd("WallTime = 7200\nMaxWallTime = 99999\n")
	for _, s := range []struct {
		name      string
		change    func()
		hit, want bool
	}{
		{"first", func() {}, false, false},
		{"job MaxWallTime", func() { job.SetInt("MaxWallTime", 1) }, true, false},
		{"job WallTime", func() { job.SetInt("WallTime", 7000) }, false, false},
		{"CE MaxWallTime", func() { ce.SetInt("MaxWallTime", 7200) }, false, true},
	} {
		s.change()
		if hit := memoServes(job, ce); hit != s.hit {
			t.Fatalf("%s: served by the memo = %v, want %v", s.name, hit, s.hit)
		}
		if got := MatchMemo(job, ce); got != s.want || got != refMatch(job, ce) {
			t.Fatalf("%s: MatchMemo = %v, want %v", s.name, got, s.want)
		}
	}
}

// A refusal is stored only when the walk of both Requirements can name
// every binding it read: not past maxEvalDepth, and not for a binding
// beyond the 64 a mask holds. An ask that matches allocates no memo.
func TestMatchMemoStoresNothingItCannotWatch(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 70; i++ {
		fmt.Fprintf(&sb, "a%02d = %d\n", i, i)
	}
	wide := MustParseAd(sb.String() + "Requirements = MY.a69 < 0\n")
	deep := MustParseAd("Requirements = " + strings.Repeat("-", 70) + "1 < 0\n")
	narrow := MustParseAd("Requirements = MY.x < 0\nx = 1\n")
	job := MustParseAd("WallTime = 60\n")
	for _, c := range []struct {
		name   string
		ce     *Ad
		stored bool
	}{
		{"binding beyond the mask", wide, false},
		{"walk deeper than maxEvalDepth", deep, false},
		{"watchable", narrow, true},
	} {
		if MatchMemo(job, c.ce) {
			t.Fatalf("%s: matched", c.name)
		}
		if stored := job.memo != nil && job.memo.refused == c.ce; stored != c.stored {
			t.Fatalf("%s: refusal stored = %v, want %v", c.name, stored, c.stored)
		}
	}
	open, fresh := MustParseAd("Requirements = true\n"), MustParseAd("WallTime = 60\n")
	if !MatchMemo(fresh, open) || fresh.memo != nil || open.memo != nil {
		t.Fatal("an ask that matched allocated a memo")
	}
	if c := job.Clone(); c.memo != nil {
		t.Fatal("Clone copied the memo")
	}
}
