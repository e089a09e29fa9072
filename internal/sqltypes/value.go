// Package sqltypes provides the NULL-aware SQL value model shared by the
// schema catalog, the relational execution engine, the constraint solver
// and the X-Data dataset generator.
//
// Values follow SQL semantics: comparisons involving NULL yield Unknown
// (three-valued logic), NULLs compare equal for grouping and duplicate
// elimination ("IS NOT DISTINCT FROM" semantics), and arithmetic on NULL
// yields NULL.
package sqltypes

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind identifies the runtime type of a Value.
type Kind uint8

// The supported value kinds. KindNull is the kind of the untyped NULL;
// typed NULLs keep their column kind with the Null flag set.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Numeric reports whether the kind supports arithmetic.
func (k Kind) Numeric() bool { return k == KindInt || k == KindFloat }

// Value is a single SQL value. The zero Value is the untyped NULL.
type Value struct {
	kind Kind
	null bool
	i    int64
	f    float64
	s    string
	b    bool
}

// Null returns the untyped NULL value.
func Null() Value { return Value{kind: KindNull, null: true} }

// TypedNull returns a NULL carrying the given column kind, as produced by
// outer-join padding.
func TypedNull(k Kind) Value { return Value{kind: k, null: true} }

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{kind: KindInt, i: v} }

// NewFloat returns a floating-point value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, f: v} }

// NewString returns a string value.
func NewString(v string) Value { return Value{kind: KindString, s: v} }

// NewBool returns a boolean value.
func NewBool(v bool) Value { return Value{kind: KindBool, b: v} }

// Kind returns the value's kind. For typed NULLs this is the column kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.null }

// Int returns the integer payload. It panics if the value is not a
// non-NULL integer; callers are expected to have checked Kind/IsNull.
func (v Value) Int() int64 {
	if v.null || v.kind != KindInt {
		panic(fmt.Sprintf("sqltypes: Int() on %s", v))
	}
	return v.i
}

// Float returns the value as float64, converting integers. It panics on
// NULL or non-numeric values.
func (v Value) Float() float64 {
	if v.null || !v.kind.Numeric() {
		panic(fmt.Sprintf("sqltypes: Float() on %s", v))
	}
	if v.kind == KindInt {
		return float64(v.i)
	}
	return v.f
}

// Str returns the string payload; it panics on NULL or non-string values.
func (v Value) Str() string {
	if v.null || v.kind != KindString {
		panic(fmt.Sprintf("sqltypes: Str() on %s", v))
	}
	return v.s
}

// Bool returns the boolean payload; it panics on NULL or non-boolean
// values.
func (v Value) Bool() bool {
	if v.null || v.kind != KindBool {
		panic(fmt.Sprintf("sqltypes: Bool() on %s", v))
	}
	return v.b
}

// String renders the value for display and for canonical row encodings.
func (v Value) String() string {
	if v.null {
		return "NULL"
	}
	switch v.kind {
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindBool:
		if v.b {
			return "TRUE"
		}
		return "FALSE"
	default:
		return "NULL"
	}
}

// SQLLiteral renders the value as a SQL literal (strings quoted, quotes
// doubled) suitable for INSERT statements.
func (v Value) SQLLiteral() string {
	if v.null {
		return "NULL"
	}
	if v.kind == KindString {
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	}
	return v.String()
}

// AppendSQLLiteral appends SQLLiteral() to dst and returns the extended
// buffer, formatting numbers in place instead of through a string.
func (v Value) AppendSQLLiteral(dst []byte) []byte {
	if v.null {
		return append(dst, "NULL"...)
	}
	switch v.kind {
	case KindInt:
		return strconv.AppendInt(dst, v.i, 10)
	case KindFloat:
		return strconv.AppendFloat(dst, v.f, 'g', -1, 64)
	case KindString:
		dst = append(dst, '\'')
		s := v.s
		for {
			q := strings.IndexByte(s, '\'')
			if q < 0 {
				break
			}
			dst = append(dst, s[:q+1]...)
			dst = append(dst, '\'')
			s = s[q+1:]
		}
		dst = append(dst, s...)
		return append(dst, '\'')
	case KindBool:
		if v.b {
			return append(dst, "TRUE"...)
		}
		return append(dst, "FALSE"...)
	default:
		return append(dst, "NULL"...)
	}
}

// SQLLiteralBound is an upper bound on len(SQLLiteral()), exact for
// every kind but floats, for sizing a buffer before AppendSQLLiteral
// calls.
func (v Value) SQLLiteralBound() int {
	switch {
	case v.null:
		return len("NULL")
	case v.kind == KindString:
		return 2 + len(v.s) + strings.Count(v.s, "'")
	case v.kind == KindInt:
		n, x := 1, v.i
		if x < 0 {
			n++ // the sign; x/10 below keeps MinInt64 in range
		}
		for x /= 10; x != 0; x /= 10 {
			n++
		}
		return n
	case v.kind == KindBool:
		if v.b {
			return len("TRUE")
		}
		return len("FALSE")
	default:
		return 24 // the longest shortest-form float64
	}
}

// Tristate is the result of a three-valued logic evaluation.
type Tristate uint8

// Three-valued logic outcomes.
const (
	False Tristate = iota
	True
	Unknown
)

// String returns the 3VL name.
func (t Tristate) String() string {
	switch t {
	case False:
		return "FALSE"
	case True:
		return "TRUE"
	default:
		return "UNKNOWN"
	}
}

// And computes SQL 3VL conjunction.
func (t Tristate) And(o Tristate) Tristate {
	if t == False || o == False {
		return False
	}
	if t == True && o == True {
		return True
	}
	return Unknown
}

// Or computes SQL 3VL disjunction.
func (t Tristate) Or(o Tristate) Tristate {
	if t == True || o == True {
		return True
	}
	if t == False && o == False {
		return False
	}
	return Unknown
}

// Not computes SQL 3VL negation.
func (t Tristate) Not() Tristate {
	switch t {
	case True:
		return False
	case False:
		return True
	default:
		return Unknown
	}
}

// CmpOp is a SQL comparison operator.
type CmpOp uint8

// The six comparison operators of the paper's mutation space.
const (
	OpEQ CmpOp = iota
	OpNE
	OpLT
	OpLE
	OpGT
	OpGE
)

// AllCmpOps lists every comparison operator, in a stable order.
var AllCmpOps = []CmpOp{OpEQ, OpNE, OpLT, OpLE, OpGT, OpGE}

// String returns the SQL spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case OpEQ:
		return "="
	case OpNE:
		return "<>"
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", uint8(op))
	}
}

// Negate returns the complementary operator (e.g. < becomes >=).
func (op CmpOp) Negate() CmpOp {
	switch op {
	case OpEQ:
		return OpNE
	case OpNE:
		return OpEQ
	case OpLT:
		return OpGE
	case OpLE:
		return OpGT
	case OpGT:
		return OpLE
	case OpGE:
		return OpLT
	}
	return op
}

// Flip returns the operator with its operands swapped (e.g. a < b becomes
// b > a).
func (op CmpOp) Flip() CmpOp {
	switch op {
	case OpLT:
		return OpGT
	case OpLE:
		return OpGE
	case OpGT:
		return OpLT
	case OpGE:
		return OpLE
	default:
		return op // = and <> are symmetric
	}
}

// HoldsSign reports whether the operator accepts the given comparison sign
// (-1: less, 0: equal, +1: greater).
func (op CmpOp) HoldsSign(sign int) bool {
	switch op {
	case OpEQ:
		return sign == 0
	case OpNE:
		return sign != 0
	case OpLT:
		return sign < 0
	case OpLE:
		return sign <= 0
	case OpGT:
		return sign > 0
	case OpGE:
		return sign >= 0
	}
	return false
}

// Compare orders two non-NULL values of compatible kinds, returning
// -1, 0 or +1. Numeric kinds compare numerically across int/float. It
// panics on NULL or incomparable kinds; use TriCompare for SQL semantics.
func Compare(a, b Value) int {
	if a.null || b.null {
		panic("sqltypes: Compare on NULL")
	}
	switch {
	case a.kind.Numeric() && b.kind.Numeric():
		if a.kind == KindInt && b.kind == KindInt {
			switch {
			case a.i < b.i:
				return -1
			case a.i > b.i:
				return 1
			}
			return 0
		}
		af, bf := a.Float(), b.Float()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		}
		return 0
	case a.kind == KindString && b.kind == KindString:
		return strings.Compare(a.s, b.s)
	case a.kind == KindBool && b.kind == KindBool:
		switch {
		case !a.b && b.b:
			return -1
		case a.b && !b.b:
			return 1
		}
		return 0
	}
	panic(fmt.Sprintf("sqltypes: incomparable kinds %s and %s", a.kind, b.kind))
}

// TriCompare applies op to a and b with SQL semantics: if either operand
// is NULL the result is Unknown.
func TriCompare(op CmpOp, a, b Value) Tristate {
	if a.null || b.null {
		return Unknown
	}
	if op.HoldsSign(Compare(a, b)) {
		return True
	}
	return False
}

// Identical reports whether two values are indistinguishable for grouping,
// duplicate elimination and result comparison: NULLs are identical to each
// other (within numeric/string classes), and 1 equals 1.0.
func Identical(a, b Value) bool {
	if a.null || b.null {
		return a.null == b.null
	}
	if a.kind.Numeric() != b.kind.Numeric() {
		return false
	}
	if !a.kind.Numeric() && a.kind != b.kind {
		return false
	}
	return Compare(a, b) == 0
}

// Add returns a+b with numeric promotion; NULL if either side is NULL.
func Add(a, b Value) Value { return arith(a, b, '+') }

// Sub returns a-b with numeric promotion; NULL if either side is NULL.
func Sub(a, b Value) Value { return arith(a, b, '-') }

// Mul returns a*b with numeric promotion; NULL if either side is NULL.
func Mul(a, b Value) Value { return arith(a, b, '*') }

// Div returns a/b; integer division stays integral (SQL behaviour); NULL
// if either side is NULL or b is zero (we model division by zero as NULL
// rather than an error, since generated data never relies on it).
func Div(a, b Value) Value { return arith(a, b, '/') }

func arith(a, b Value, op byte) Value {
	if a.null || b.null {
		return Null()
	}
	if !a.kind.Numeric() || !b.kind.Numeric() {
		panic(fmt.Sprintf("sqltypes: arithmetic %c on %s, %s", op, a.kind, b.kind))
	}
	if a.kind == KindInt && b.kind == KindInt {
		switch op {
		case '+':
			return NewInt(a.i + b.i)
		case '-':
			return NewInt(a.i - b.i)
		case '*':
			return NewInt(a.i * b.i)
		case '/':
			if b.i == 0 {
				return Null()
			}
			return NewInt(a.i / b.i)
		}
	}
	af, bf := a.Float(), b.Float()
	switch op {
	case '+':
		return NewFloat(af + bf)
	case '-':
		return NewFloat(af - bf)
	case '*':
		return NewFloat(af * bf)
	case '/':
		if bf == 0 {
			return Null()
		}
		return NewFloat(af / bf)
	}
	panic("unreachable")
}

// Row is a tuple of values.
type Row []Value

// Key returns a canonical string encoding of the row, used for duplicate
// detection, grouping and multiset comparison. NULLs encode distinctly
// from any literal value.
func (r Row) Key() string { return string(r.AppendKey(nil)) }

// AppendKey appends the Key encoding to dst and returns the extended
// buffer. Hot dedup loops reuse one buffer across rows and look up maps
// via m[string(buf)] (which Go compiles allocation-free), interning the
// string only when a key is actually stored.
func (r Row) AppendKey(dst []byte) []byte {
	for i, v := range r {
		if i > 0 {
			dst = append(dst, '\x1f')
		}
		if v.null {
			dst = append(dst, '\x00', 'N')
			continue
		}
		switch v.kind {
		case KindInt:
			dst = append(dst, 'i')
			dst = strconv.AppendInt(dst, v.i, 10)
		case KindFloat:
			// Encode integral floats identically to ints so that
			// numeric-equal rows compare identical.
			if v.f == float64(int64(v.f)) {
				dst = append(dst, 'i')
				dst = strconv.AppendInt(dst, int64(v.f), 10)
			} else {
				dst = append(dst, 'f')
				dst = strconv.AppendFloat(dst, v.f, 'g', -1, 64)
			}
		case KindString:
			dst = append(dst, 's')
			dst = append(dst, v.s...)
		case KindBool:
			if v.b {
				dst = append(dst, 'b', 'T')
			} else {
				dst = append(dst, 'b', 'F')
			}
		}
	}
	return dst
}

// FNV-1a 64-bit parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// HashSeed is the FNV-1a offset basis: the starting state for
// HashValue chains (join keys, group keys, row hashes).
const HashSeed = uint64(fnvOffset64)

// HashValue folds one value into an FNV-1a hash state with the row
// canonical encoding: NULLs hash distinctly from every literal,
// integral floats hash identically to the equal integer (so 1 and 1.0
// — which Compare orders equal — collide on purpose), and every value
// is tagged and fixed-width or terminated, so chained hashes are
// prefix-free. Identical(a, b) implies HashValue(h, a) == HashValue(h,
// b); distinct values collide only with FNV's ~2^-64 probability. The
// engine uses it for join keys, grouping, DISTINCT and multiset
// comparison.
func HashValue(h uint64, v Value) uint64 {
	if v.null {
		return (h ^ 0xff) * fnvPrime64
	}
	switch v.kind {
	case KindInt:
		h = (h ^ 'i') * fnvPrime64
		return hashUint64(h, uint64(v.i))
	case KindFloat:
		// Integral floats encode as ints so numeric-equal values hash
		// identical (matching Key()).
		if v.f == float64(int64(v.f)) {
			h = (h ^ 'i') * fnvPrime64
			return hashUint64(h, uint64(int64(v.f)))
		}
		h = (h ^ 'f') * fnvPrime64
		return hashUint64(h, math.Float64bits(v.f))
	case KindString:
		h = (h ^ 's') * fnvPrime64
		for i := 0; i < len(v.s); i++ {
			h = (h ^ uint64(v.s[i])) * fnvPrime64
		}
		return (h ^ 0x1f) * fnvPrime64 // terminator: prefix-freedom
	case KindBool:
		if v.b {
			return (h ^ 'T') * fnvPrime64
		}
		return (h ^ 'F') * fnvPrime64
	}
	return (h ^ 0xff) * fnvPrime64
}

// Hash returns a 64-bit FNV-1a hash of the row's canonical encoding:
// the cheap replacement for Key() on the result-comparison hot path,
// where building a fresh string per row dominated profile time. The
// encoding mirrors Key() exactly — see HashValue — so Hash(a) ==
// Hash(b) whenever Key(a) == Key(b) (and collides otherwise only with
// FNV's ~2^-64 probability).
func (r Row) Hash() uint64 {
	h := HashSeed
	for _, v := range r {
		h = HashValue(h, v)
	}
	return h
}

// Identical reports whether two rows are element-wise Identical: the
// exact equality behind Key() without building the strings. It is the
// collision check paired with Hash-keyed maps (grouping, DISTINCT,
// duplicate elimination).
func (r Row) Identical(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i, v := range r {
		if !Identical(v, o[i]) {
			return false
		}
	}
	return true
}

func hashUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime64
		v >>= 8
	}
	return h
}

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// String renders the row as a parenthesized value list.
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
