package classad

import (
	"math"
	"strings"
)

// The reference evaluator is the original tree walker, kept as the oracle
// for the differential tests: a type switch over the nodes, one shared
// context whose depth a deferred call restores, a closure per attribute
// reference, a heap argument slice per call, and strings.Split for lists.
// Its only change is the exact integer min/max. It shares the value-level
// helpers (evalArith, evalCompare, toTri) with the evaluator under test.

type refContext struct {
	my     *Ad
	target *Ad
	depth  int
}

func refEval(e Expr, my, target *Ad) Value {
	return refEvalIn(e, &refContext{my: my, target: target})
}

func refEvalIn(e Expr, ctx *refContext) Value {
	ctx.depth++
	defer func() { ctx.depth-- }()
	if ctx.depth > maxEvalDepth {
		return ErrorValue()
	}
	switch ex := e.(type) {
	case *litExpr:
		return ex.v
	case *attrExpr:
		return refAttrRef(ex, ctx)
	case *unaryExpr:
		return refUnary(ex, ctx)
	case *binaryExpr:
		return refBinary(ex, ctx)
	case *condExpr:
		c := refEvalIn(ex.cond, ctx)
		if c.IsError() {
			return c
		}
		if c.IsUndefined() {
			return c
		}
		if c.IsTrue() {
			return refEvalIn(ex.then, ctx)
		}
		return refEvalIn(ex.els, ctx)
	case *callExpr:
		return refCall(ex, ctx)
	}
	return ErrorValue()
}

func refAttrRef(ex *attrExpr, ctx *refContext) Value {
	lookup := func(ad *Ad) (Value, bool) {
		if ad == nil {
			return UndefinedValue(), false
		}
		e, ok := ad.Get(ex.name)
		if !ok {
			return UndefinedValue(), false
		}
		return refEvalIn(e, ctx), true
	}
	switch ex.scope {
	case scopeMy:
		v, _ := lookup(ctx.my)
		return v
	case scopeTarget:
		v, _ := lookup(ctx.target)
		return v
	default:
		if v, ok := lookup(ctx.my); ok {
			return v
		}
		if v, ok := lookup(ctx.target); ok {
			return v
		}
		return UndefinedValue()
	}
}

func refUnary(ex *unaryExpr, ctx *refContext) Value {
	x := refEvalIn(ex.x, ctx)
	switch ex.op {
	case tokNot:
		switch x.kind {
		case Boolean:
			return Bool(!x.b)
		case Integer:
			return Bool(x.i == 0)
		case Real:
			return Bool(x.f == 0)
		case Undefined:
			return x
		}
		return ErrorValue()
	case tokMinus:
		switch x.kind {
		case Integer:
			return Int(-x.i)
		case Real:
			return Float(-x.f)
		case Undefined:
			return x
		}
		return ErrorValue()
	}
	return ErrorValue()
}

func refBinary(ex *binaryExpr, ctx *refContext) Value {
	if ex.op == tokMetaEq || ex.op == tokMetaNe {
		l := refEvalIn(ex.l, ctx)
		r := refEvalIn(ex.r, ctx)
		eq := l.Equal(r)
		if ex.op == tokMetaNe {
			eq = !eq
		}
		return Bool(eq)
	}
	if ex.op == tokAnd || ex.op == tokOr {
		return refLogic(ex, ctx)
	}
	l := refEvalIn(ex.l, ctx)
	r := refEvalIn(ex.r, ctx)
	if l.IsError() || r.IsError() {
		return ErrorValue()
	}
	if l.IsUndefined() || r.IsUndefined() {
		return UndefinedValue()
	}
	switch ex.op {
	case tokPlus, tokMinus, tokStar, tokSlash, tokPercent:
		return evalArith(ex.op, l, r)
	case tokEq, tokNe, tokLt, tokLe, tokGt, tokGe:
		return evalCompare(ex.op, l, r)
	}
	return ErrorValue()
}

func refLogic(ex *binaryExpr, ctx *refContext) Value {
	l := refEvalIn(ex.l, ctx)
	lv, lu, le := toTri(l)
	if ex.op == tokAnd {
		if le {
			return ErrorValue()
		}
		if !lu && !lv {
			return Bool(false)
		}
		r := refEvalIn(ex.r, ctx)
		rv, ru, re := toTri(r)
		if re {
			return ErrorValue()
		}
		if !ru && !rv {
			return Bool(false)
		}
		if lu || ru {
			return UndefinedValue()
		}
		return Bool(true)
	}
	if le {
		return ErrorValue()
	}
	if !lu && lv {
		return Bool(true)
	}
	r := refEvalIn(ex.r, ctx)
	rv, ru, re := toTri(r)
	if re {
		return ErrorValue()
	}
	if !ru && rv {
		return Bool(true)
	}
	if lu || ru {
		return UndefinedValue()
	}
	return Bool(false)
}

func refCall(ex *callExpr, ctx *refContext) Value {
	argv := make([]Value, len(ex.args))
	for i, a := range ex.args {
		argv[i] = refEvalIn(a, ctx)
	}
	switch ex.fn {
	case "isundefined":
		if len(argv) != 1 {
			return ErrorValue()
		}
		return Bool(argv[0].IsUndefined())
	case "iserror":
		if len(argv) != 1 {
			return ErrorValue()
		}
		return Bool(argv[0].IsError())
	case "ifthenelse":
		if len(argv) != 3 {
			return ErrorValue()
		}
		c := argv[0]
		if c.IsError() || c.IsUndefined() {
			return c
		}
		if c.IsTrue() {
			return argv[1]
		}
		return argv[2]
	}
	for _, v := range argv {
		if v.IsError() {
			return ErrorValue()
		}
		if v.IsUndefined() {
			return UndefinedValue()
		}
	}
	num1 := func(f func(float64) Value) Value {
		if len(argv) != 1 {
			return ErrorValue()
		}
		x, ok := argv[0].Number()
		if !ok {
			return ErrorValue()
		}
		return f(x)
	}
	switch ex.fn {
	case "floor":
		return num1(func(x float64) Value { return Int(int64(math.Floor(x))) })
	case "ceiling":
		return num1(func(x float64) Value { return Int(int64(math.Ceil(x))) })
	case "round":
		return num1(func(x float64) Value { return Int(int64(math.Round(x))) })
	case "int":
		return num1(func(x float64) Value { return Int(int64(x)) })
	case "real":
		return num1(Float)
	case "min", "max":
		if len(argv) < 1 {
			return ErrorValue()
		}
		best, ok := argv[0].Number()
		if !ok {
			return ErrorValue()
		}
		allInt := argv[0].kind == Integer
		for _, v := range argv[1:] {
			if _, ok := v.Number(); !ok {
				return ErrorValue()
			}
			allInt = allInt && v.kind == Integer
		}
		if allInt {
			ibest := argv[0].i
			for _, v := range argv[1:] {
				if (ex.fn == "min" && v.i < ibest) || (ex.fn == "max" && v.i > ibest) {
					ibest = v.i
				}
			}
			return Int(ibest)
		}
		for _, v := range argv[1:] {
			x, _ := v.Number()
			if (ex.fn == "min" && x < best) || (ex.fn == "max" && x > best) {
				best = x
			}
		}
		return Float(best)
	case "strcat":
		var sb strings.Builder
		for _, v := range argv {
			s, ok := v.StringVal()
			if !ok {
				s = v.String()
			}
			sb.WriteString(s)
		}
		return Str(sb.String())
	case "toupper":
		if len(argv) != 1 || argv[0].kind != String {
			return ErrorValue()
		}
		return Str(strings.ToUpper(argv[0].s))
	case "tolower":
		if len(argv) != 1 || argv[0].kind != String {
			return ErrorValue()
		}
		return Str(strings.ToLower(argv[0].s))
	case "size":
		if len(argv) != 1 || argv[0].kind != String {
			return ErrorValue()
		}
		return Int(int64(len(argv[0].s)))
	case "substr":
		if len(argv) < 2 || argv[0].kind != String {
			return ErrorValue()
		}
		s := argv[0].s
		off, ok := argv[1].IntVal()
		if !ok {
			return ErrorValue()
		}
		if off < 0 {
			off += int64(len(s))
		}
		if off < 0 || off > int64(len(s)) {
			return Str("")
		}
		end := int64(len(s))
		if len(argv) == 3 {
			n, ok := argv[2].IntVal()
			if !ok {
				return ErrorValue()
			}
			if off+n < end {
				end = off + n
			}
		}
		if end < off {
			end = off
		}
		return Str(s[off:end])
	case "stringlistmember":
		if len(argv) != 2 || argv[0].kind != String || argv[1].kind != String {
			return ErrorValue()
		}
		for _, part := range strings.Split(argv[1].s, ",") {
			if strings.EqualFold(strings.TrimSpace(part), argv[0].s) {
				return Bool(true)
			}
		}
		return Bool(false)
	case "stringlistsize":
		if len(argv) != 1 || argv[0].kind != String {
			return ErrorValue()
		}
		if strings.TrimSpace(argv[0].s) == "" {
			return Int(0)
		}
		return Int(int64(len(strings.Split(argv[0].s, ","))))
	}
	return ErrorValue()
}

func refHalfMatch(my, target *Ad) bool {
	req, ok := my.Get(AttrRequirements)
	if !ok {
		return true
	}
	return refEval(req, my, target).IsTrue()
}

func refMatch(a, b *Ad) bool { return refHalfMatch(a, b) && refHalfMatch(b, a) }

func refRank(my, target *Ad) float64 {
	e, ok := my.Get(AttrRank)
	if !ok {
		return 0
	}
	v := refEval(e, my, target)
	f, ok := v.Number()
	if !ok {
		if b, bok := v.BoolVal(); bok && b {
			return 1
		}
		return 0
	}
	return f
}

// refBestMatch is the original unpruned scan: every candidate's
// Requirements, then both Ranks, with the comparison written out.
func refBestMatch(job *Ad, candidates []*Ad) int {
	best := -1
	var bestRank, bestTargetRank float64
	for i, c := range candidates {
		if c == nil || !refMatch(job, c) {
			continue
		}
		r := refRank(job, c)
		tr := refRank(c, job)
		if best == -1 || r > bestRank || (r == bestRank && tr > bestTargetRank) {
			best, bestRank, bestTargetRank = i, r, tr
		}
	}
	return best
}
