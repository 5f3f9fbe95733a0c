package classad

import (
	"math"
	"strings"
)

// eval dispatches the built-in function library. Unknown functions
// evaluate to ERROR, matching Condor.
func (e *callExpr) eval(ctx evalContext) Value {
	// Up to four arguments evaluate into a stack array; every built-in but
	// strcat, min and max takes at most three.
	var buf [4]Value
	argv := buf[:0]
	if len(e.args) > len(buf) {
		argv = make([]Value, 0, len(e.args))
	}
	// isundefined must see the raw value, but that falls out naturally:
	// UNDEFINED is a first-class value here.
	for _, a := range e.args {
		argv = append(argv, evalExpr(a, ctx))
	}
	switch e.fn {
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

	// Remaining functions propagate ERROR/UNDEFINED from any argument.
	for _, v := range argv {
		if v.IsError() {
			return ErrorValue()
		}
		if v.IsUndefined() {
			return UndefinedValue()
		}
	}

	switch e.fn {
	case "floor", "ceiling", "round", "int", "real":
		if len(argv) != 1 {
			return ErrorValue()
		}
		x, ok := argv[0].Number()
		if !ok {
			return ErrorValue()
		}
		switch e.fn {
		case "floor":
			return Int(int64(math.Floor(x)))
		case "ceiling":
			return Int(int64(math.Ceil(x)))
		case "round":
			return Int(int64(math.Round(x)))
		case "int":
			return Int(int64(x))
		}
		return Float(x)
	case "min", "max":
		return minMax(argv, e.fn == "max")
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
		// stringListMember(item, "a,b,c") — used for site VO support lists.
		if len(argv) != 2 || argv[0].kind != String || argv[1].kind != String {
			return ErrorValue()
		}
		return Bool(stringListMember(argv[0].s, argv[1].s))
	case "stringlistsize":
		if len(argv) != 1 || argv[0].kind != String {
			return ErrorValue()
		}
		if strings.TrimSpace(argv[0].s) == "" {
			return Int(0)
		}
		return Int(int64(strings.Count(argv[0].s, ",") + 1))
	}
	return ErrorValue()
}

// minMax implements min and max over numeric arguments. All-integer
// arguments compare and return as int64, exact beyond 2^53; any real
// argument makes the comparison and the result real.
func minMax(argv []Value, isMax bool) Value {
	if len(argv) < 1 {
		return ErrorValue()
	}
	allInt := true
	for _, v := range argv {
		if _, ok := v.Number(); !ok {
			return ErrorValue()
		}
		allInt = allInt && v.kind == Integer
	}
	if allInt {
		best := argv[0].i
		for _, v := range argv[1:] {
			if (isMax && v.i > best) || (!isMax && v.i < best) {
				best = v.i
			}
		}
		return Int(best)
	}
	best, _ := argv[0].Number()
	for _, v := range argv[1:] {
		x, _ := v.Number()
		if (isMax && x > best) || (!isMax && x < best) {
			best = x
		}
	}
	return Float(best)
}

// stringListMember reports whether item equals, ignoring case, one of the
// comma-separated entries of list with surrounding spaces trimmed. It walks
// the list in place; an empty entry (including an empty list) matches only
// an empty item.
func stringListMember(item, list string) bool {
	for {
		entry, rest, more := strings.Cut(list, ",")
		if strings.EqualFold(strings.TrimSpace(entry), item) {
			return true
		}
		if !more {
			return false
		}
		list = rest
	}
}
