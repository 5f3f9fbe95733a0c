package classad

import (
	"math"
	"strings"
)

// maxEvalDepth bounds recursive attribute references; exceeding it yields
// ERROR rather than unbounded recursion (e.g. "a = b \n b = a").
const maxEvalDepth = 64

// evalContext carries the self/target ads and the nesting depth during
// evaluation. It is passed by value: each nested evaluation works on its
// own copy one level deeper, so returning needs no bookkeeping and no
// context reaches the heap.
type evalContext struct {
	my     *Ad
	target *Ad
	depth  int
}

// Eval evaluates an expression in the context of ad my, with no target.
func Eval(e Expr, my *Ad) Value {
	return evalExpr(e, evalContext{my: my})
}

// EvalWithTarget evaluates e with both MY and TARGET scopes bound, as the
// matchmaker does.
func EvalWithTarget(e Expr, my, target *Ad) Value {
	return evalExpr(e, evalContext{my: my, target: target})
}

// EvalAttr evaluates the named attribute of ad my; UNDEFINED if absent.
func EvalAttr(name string, my, target *Ad) Value {
	e, ok := my.Get(name)
	if !ok {
		return UndefinedValue()
	}
	return EvalWithTarget(e, my, target)
}

// evalExpr enters one nested evaluation. Every node counts against
// maxEvalDepth, including the expression an attribute reference resolves
// to, so a reference cycle yields ERROR instead of recursing forever.
func evalExpr(e Expr, ctx evalContext) Value {
	ctx.depth++
	if ctx.depth > maxEvalDepth {
		return ErrorValue()
	}
	return e.eval(ctx)
}

func (e *litExpr) eval(evalContext) Value { return e.v }

// eval resolves an attribute reference. Unscoped references resolve in MY
// first, then TARGET (old-ClassAd matchmaking lookup order).
func (e *attrExpr) eval(ctx evalContext) Value {
	switch e.scope {
	case scopeMy:
		return evalRef(ctx.my, e.name, ctx)
	case scopeTarget:
		return evalRef(ctx.target, e.name, ctx)
	}
	if ctx.my != nil {
		if x, ok := ctx.my.attrs[e.name]; ok {
			return evalExpr(x, ctx)
		}
	}
	return evalRef(ctx.target, e.name, ctx)
}

// evalRef evaluates ad's binding of the lower-cased name; UNDEFINED when
// ad is nil or lacks it.
func evalRef(ad *Ad, name string, ctx evalContext) Value {
	if ad == nil {
		return UndefinedValue()
	}
	x, ok := ad.attrs[name]
	if !ok {
		return UndefinedValue()
	}
	return evalExpr(x, ctx)
}

func (e *unaryExpr) eval(ctx evalContext) Value {
	x := evalExpr(e.x, ctx)
	switch e.op {
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

func (e *binaryExpr) eval(ctx evalContext) Value {
	switch e.op {
	case tokMetaEq, tokMetaNe:
		// Meta-operators never propagate UNDEFINED: they test identity.
		l := evalExpr(e.l, ctx)
		r := evalExpr(e.r, ctx)
		return Bool(l.Equal(r) == (e.op == tokMetaEq))
	case tokAnd, tokOr:
		// Short-circuit logic with three-valued semantics:
		// FALSE && x == FALSE; TRUE || x == TRUE even if x is UNDEFINED.
		return e.evalLogic(ctx)
	}

	l := evalExpr(e.l, ctx)
	r := evalExpr(e.r, ctx)
	if l.IsError() || r.IsError() {
		return ErrorValue()
	}
	if l.IsUndefined() || r.IsUndefined() {
		return UndefinedValue()
	}

	switch e.op {
	case tokPlus, tokMinus, tokStar, tokSlash, tokPercent:
		return evalArith(e.op, l, r)
	case tokEq, tokNe, tokLt, tokLe, tokGt, tokGe:
		return evalCompare(e.op, l, r)
	}
	return ErrorValue()
}

func toTri(v Value) (val bool, undef, errv bool) {
	switch v.kind {
	case Undefined:
		return false, true, false
	case Error:
		return false, false, true
	default:
		return v.IsTrue(), false, false
	}
}

func (e *binaryExpr) evalLogic(ctx evalContext) Value {
	l := evalExpr(e.l, ctx)
	lv, lu, le := toTri(l)
	if e.op == tokAnd {
		if le {
			return ErrorValue()
		}
		if !lu && !lv {
			return Bool(false)
		}
		r := evalExpr(e.r, ctx)
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
	// OR
	if le {
		return ErrorValue()
	}
	if !lu && lv {
		return Bool(true)
	}
	r := evalExpr(e.r, ctx)
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

func (e *condExpr) eval(ctx evalContext) Value {
	c := evalExpr(e.cond, ctx)
	if c.IsError() || c.IsUndefined() {
		return c
	}
	if c.IsTrue() {
		return evalExpr(e.then, ctx)
	}
	return evalExpr(e.els, ctx)
}

func evalArith(op tokenKind, l, r Value) Value {
	// String concatenation via '+'.
	if op == tokPlus && l.kind == String && r.kind == String {
		return Str(l.s + r.s)
	}
	if l.kind == Integer && r.kind == Integer {
		switch op {
		case tokPlus:
			return Int(l.i + r.i)
		case tokMinus:
			return Int(l.i - r.i)
		case tokStar:
			return Int(l.i * r.i)
		case tokSlash:
			if r.i == 0 {
				return ErrorValue()
			}
			return Int(l.i / r.i)
		case tokPercent:
			if r.i == 0 {
				return ErrorValue()
			}
			return Int(l.i % r.i)
		}
	}
	lf, lok := l.Number()
	rf, rok := r.Number()
	if !lok || !rok {
		return ErrorValue()
	}
	switch op {
	case tokPlus:
		return Float(lf + rf)
	case tokMinus:
		return Float(lf - rf)
	case tokStar:
		return Float(lf * rf)
	case tokSlash:
		if rf == 0 {
			return ErrorValue()
		}
		return Float(lf / rf)
	case tokPercent:
		if rf == 0 {
			return ErrorValue()
		}
		return Float(math.Mod(lf, rf))
	}
	return ErrorValue()
}

func evalCompare(op tokenKind, l, r Value) Value {
	// String comparisons are case-insensitive in old ClassAds.
	if l.kind == String && r.kind == String {
		c := strings.Compare(strings.ToLower(l.s), strings.ToLower(r.s))
		return cmpResult(op, c)
	}
	if l.kind == Boolean && r.kind == Boolean {
		switch op {
		case tokEq:
			return Bool(l.b == r.b)
		case tokNe:
			return Bool(l.b != r.b)
		}
		return ErrorValue()
	}
	lf, lok := l.Number()
	rf, rok := r.Number()
	if !lok || !rok {
		return ErrorValue()
	}
	switch {
	case lf < rf:
		return cmpResult(op, -1)
	case lf > rf:
		return cmpResult(op, 1)
	default:
		return cmpResult(op, 0)
	}
}

func cmpResult(op tokenKind, c int) Value {
	switch op {
	case tokEq:
		return Bool(c == 0)
	case tokNe:
		return Bool(c != 0)
	case tokLt:
		return Bool(c < 0)
	case tokLe:
		return Bool(c <= 0)
	case tokGt:
		return Bool(c > 0)
	case tokGe:
		return Bool(c >= 0)
	}
	return ErrorValue()
}
