// Package classad implements the Condor ClassAd language: typed values with
// UNDEFINED/ERROR three-valued logic, an expression lexer/parser/evaluator,
// attribute ads, and two-ad matchmaking (Requirements/Rank).
//
// Condor-G, which Grid3 used for all grid job management (§4.2, §4.7),
// matches job ads against resource ads by evaluating each ad's Requirements
// expression in the context of the other. This package reproduces the 2003
// "old ClassAd" semantics that condor_submit and the Condor matchmaker used.
package classad

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates value types.
type Kind uint8

// Value kinds. Undefined and Error are first-class values, not Go errors:
// ClassAd evaluation never fails, it produces ERROR.
const (
	Undefined Kind = iota
	Error
	Boolean
	Integer
	Real
	String
)

func (k Kind) String() string {
	switch k {
	case Undefined:
		return "UNDEFINED"
	case Error:
		return "ERROR"
	case Boolean:
		return "BOOLEAN"
	case Integer:
		return "INTEGER"
	case Real:
		return "REAL"
	case String:
		return "STRING"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Value is a ClassAd runtime value.
type Value struct {
	kind Kind
	b    bool
	i    int64
	f    float64
	s    string
}

// Constructors.

// UndefinedValue returns the UNDEFINED value.
func UndefinedValue() Value { return Value{kind: Undefined} }

// ErrorValue returns the ERROR value.
func ErrorValue() Value { return Value{kind: Error} }

// Bool returns a boolean value.
func Bool(b bool) Value { return Value{kind: Boolean, b: b} }

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: Integer, i: i} }

// Float returns a real value.
func Float(f float64) Value { return Value{kind: Real, f: f} }

// Str returns a string value.
func Str(s string) Value { return Value{kind: String, s: s} }

// Kind returns the value's type.
func (v Value) Kind() Kind { return v.kind }

// IsUndefined reports kind == Undefined.
func (v Value) IsUndefined() bool { return v.kind == Undefined }

// IsError reports kind == Error.
func (v Value) IsError() bool { return v.kind == Error }

// BoolVal returns the boolean content; ok is false for non-booleans.
func (v Value) BoolVal() (val, ok bool) { return v.b, v.kind == Boolean }

// IntVal returns the integer content; ok is false for non-integers.
func (v Value) IntVal() (int64, bool) { return v.i, v.kind == Integer }

// StringVal returns the string content; ok is false for non-strings.
func (v Value) StringVal() (string, bool) { return v.s, v.kind == String }

// Number returns the value as a float64 for Integer or Real kinds.
func (v Value) Number() (float64, bool) {
	switch v.kind {
	case Integer:
		return float64(v.i), true
	case Real:
		return v.f, true
	}
	return 0, false
}

// IsTrue reports whether the value is the boolean true, or a non-zero
// number (old-ClassAd truthiness used by Requirements evaluation).
func (v Value) IsTrue() bool {
	switch v.kind {
	case Boolean:
		return v.b
	case Integer:
		return v.i != 0
	case Real:
		return v.f != 0
	}
	return false
}

// String renders the value in ClassAd literal syntax.
func (v Value) String() string {
	switch v.kind {
	case Undefined:
		return "UNDEFINED"
	case Error:
		return "ERROR"
	case Boolean:
		if v.b {
			return "TRUE"
		}
		return "FALSE"
	case Integer:
		return strconv.FormatInt(v.i, 10)
	case Real:
		// A whole number renders without a point; give it one, or it
		// would read back as an integer. Inf and NaN keep their names.
		s := strconv.FormatFloat(v.f, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eInN") {
			s += ".0"
		}
		return s
	case String:
		return strconv.Quote(v.s)
	}
	return "ERROR"
}

// identical reports whether v and o have the same kind and the same
// content bit for bit. Unlike Equal it does not promote 1 to 1.0, and it
// tells 0.0 from -0.0: identical values render identically.
func (v Value) identical(o Value) bool {
	return v.kind == o.kind && v.b == o.b && v.i == o.i && v.s == o.s &&
		math.Float64bits(v.f) == math.Float64bits(o.f)
}

// Equal implements =?= (is-identical-to): same kind and same content, with
// no type promotion and no UNDEFINED propagation.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		// =?= promotes between Integer and Real per Condor semantics.
		a, aok := v.Number()
		b, bok := o.Number()
		return aok && bok && a == b
	}
	switch v.kind {
	case Undefined, Error:
		return true
	case Boolean:
		return v.b == o.b
	case Integer:
		return v.i == o.i
	case Real:
		return v.f == o.f || (math.IsNaN(v.f) && math.IsNaN(o.f))
	case String:
		return v.s == o.s
	}
	return false
}
