package sqltypes

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull:   "NULL",
		KindInt:    "INT",
		KindFloat:  "FLOAT",
		KindString: "VARCHAR",
		KindBool:   "BOOLEAN",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestValueAccessors(t *testing.T) {
	if v := NewInt(42); v.Int() != 42 || v.Kind() != KindInt || v.IsNull() {
		t.Errorf("NewInt round-trip failed: %v", v)
	}
	if v := NewFloat(2.5); v.Float() != 2.5 || v.Kind() != KindFloat {
		t.Errorf("NewFloat round-trip failed: %v", v)
	}
	if v := NewString("abc"); v.Str() != "abc" || v.Kind() != KindString {
		t.Errorf("NewString round-trip failed: %v", v)
	}
	if v := NewBool(true); !v.Bool() || v.Kind() != KindBool {
		t.Errorf("NewBool round-trip failed: %v", v)
	}
	if v := Null(); !v.IsNull() || v.Kind() != KindNull {
		t.Errorf("Null() = %v", v)
	}
	if v := TypedNull(KindInt); !v.IsNull() || v.Kind() != KindInt {
		t.Errorf("TypedNull(KindInt) = %v", v)
	}
}

func TestIntFloatCrossCompare(t *testing.T) {
	if Compare(NewInt(3), NewFloat(3.0)) != 0 {
		t.Error("3 should equal 3.0")
	}
	if Compare(NewInt(3), NewFloat(3.5)) != -1 {
		t.Error("3 should be less than 3.5")
	}
	if Compare(NewFloat(4.5), NewInt(4)) != 1 {
		t.Error("4.5 should be greater than 4")
	}
}

func TestStringCompare(t *testing.T) {
	if Compare(NewString("a"), NewString("b")) != -1 {
		t.Error(`"a" < "b" expected`)
	}
	if Compare(NewString("b"), NewString("b")) != 0 {
		t.Error(`"b" == "b" expected`)
	}
}

func TestTriCompareNulls(t *testing.T) {
	for _, op := range AllCmpOps {
		if got := TriCompare(op, Null(), NewInt(1)); got != Unknown {
			t.Errorf("NULL %s 1 = %v, want UNKNOWN", op, got)
		}
		if got := TriCompare(op, NewInt(1), Null()); got != Unknown {
			t.Errorf("1 %s NULL = %v, want UNKNOWN", op, got)
		}
		if got := TriCompare(op, Null(), Null()); got != Unknown {
			t.Errorf("NULL %s NULL = %v, want UNKNOWN", op, got)
		}
	}
}

func TestTriCompareOps(t *testing.T) {
	type tc struct {
		op   CmpOp
		a, b int64
		want Tristate
	}
	cases := []tc{
		{OpEQ, 1, 1, True}, {OpEQ, 1, 2, False},
		{OpNE, 1, 2, True}, {OpNE, 2, 2, False},
		{OpLT, 1, 2, True}, {OpLT, 2, 2, False}, {OpLT, 3, 2, False},
		{OpLE, 2, 2, True}, {OpLE, 3, 2, False},
		{OpGT, 3, 2, True}, {OpGT, 2, 2, False},
		{OpGE, 2, 2, True}, {OpGE, 1, 2, False},
	}
	for _, c := range cases {
		if got := TriCompare(c.op, NewInt(c.a), NewInt(c.b)); got != c.want {
			t.Errorf("%d %s %d = %v, want %v", c.a, c.op, c.b, got, c.want)
		}
	}
}

func TestTristateLogic(t *testing.T) {
	// Truth tables for SQL 3VL.
	vals := []Tristate{True, False, Unknown}
	for _, a := range vals {
		for _, b := range vals {
			and := a.And(b)
			or := a.Or(b)
			switch {
			case a == False || b == False:
				if and != False {
					t.Errorf("%v AND %v = %v, want FALSE", a, b, and)
				}
			case a == True && b == True:
				if and != True {
					t.Errorf("%v AND %v = %v, want TRUE", a, b, and)
				}
			default:
				if and != Unknown {
					t.Errorf("%v AND %v = %v, want UNKNOWN", a, b, and)
				}
			}
			switch {
			case a == True || b == True:
				if or != True {
					t.Errorf("%v OR %v = %v, want TRUE", a, b, or)
				}
			case a == False && b == False:
				if or != False {
					t.Errorf("%v OR %v = %v, want FALSE", a, b, or)
				}
			default:
				if or != Unknown {
					t.Errorf("%v OR %v = %v, want UNKNOWN", a, b, or)
				}
			}
		}
	}
	if True.Not() != False || False.Not() != True || Unknown.Not() != Unknown {
		t.Error("3VL NOT truth table violated")
	}
}

func TestNegateFlipInvolutions(t *testing.T) {
	for _, op := range AllCmpOps {
		if op.Negate().Negate() != op {
			t.Errorf("Negate not an involution for %s", op)
		}
		if op.Flip().Flip() != op {
			t.Errorf("Flip not an involution for %s", op)
		}
	}
}

// Property: for all int pairs, exactly one of <, =, > holds, and the
// derived operators are consistent with them.
func TestCmpOpTrichotomyProperty(t *testing.T) {
	f := func(a, b int32) bool {
		va, vb := NewInt(int64(a)), NewInt(int64(b))
		lt := TriCompare(OpLT, va, vb) == True
		eq := TriCompare(OpEQ, va, vb) == True
		gt := TriCompare(OpGT, va, vb) == True
		count := 0
		for _, h := range []bool{lt, eq, gt} {
			if h {
				count++
			}
		}
		if count != 1 {
			return false
		}
		le := TriCompare(OpLE, va, vb) == True
		ge := TriCompare(OpGE, va, vb) == True
		ne := TriCompare(OpNE, va, vb) == True
		return le == (lt || eq) && ge == (gt || eq) && ne == !eq
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: negated operator evaluates to the logical complement on
// non-NULL values.
func TestNegateSemanticsProperty(t *testing.T) {
	f := func(a, b int32) bool {
		va, vb := NewInt(int64(a)), NewInt(int64(b))
		for _, op := range AllCmpOps {
			if TriCompare(op, va, vb) == TriCompare(op.Negate(), va, vb) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: flipped operator with swapped operands agrees with original.
func TestFlipSemanticsProperty(t *testing.T) {
	f := func(a, b int32) bool {
		va, vb := NewInt(int64(a)), NewInt(int64(b))
		for _, op := range AllCmpOps {
			if TriCompare(op, va, vb) != TriCompare(op.Flip(), vb, va) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIdentical(t *testing.T) {
	if !Identical(Null(), Null()) {
		t.Error("NULL should be Identical to NULL")
	}
	if Identical(Null(), NewInt(0)) || Identical(NewInt(0), Null()) {
		t.Error("NULL should not be Identical to 0")
	}
	if !Identical(NewInt(1), NewFloat(1.0)) {
		t.Error("1 should be Identical to 1.0")
	}
	if Identical(NewInt(1), NewString("1")) {
		t.Error(`1 should not be Identical to "1"`)
	}
}

func TestArithmetic(t *testing.T) {
	if got := Add(NewInt(2), NewInt(3)); got.Int() != 5 {
		t.Errorf("2+3 = %v", got)
	}
	if got := Sub(NewInt(2), NewInt(3)); got.Int() != -1 {
		t.Errorf("2-3 = %v", got)
	}
	if got := Mul(NewInt(2), NewInt(3)); got.Int() != 6 {
		t.Errorf("2*3 = %v", got)
	}
	if got := Div(NewInt(7), NewInt(2)); got.Int() != 3 {
		t.Errorf("7/2 = %v (integer division expected)", got)
	}
	if got := Div(NewInt(7), NewInt(0)); !got.IsNull() {
		t.Errorf("7/0 = %v, want NULL", got)
	}
	if got := Add(NewInt(1), NewFloat(0.5)); got.Float() != 1.5 {
		t.Errorf("1+0.5 = %v", got)
	}
	if got := Add(Null(), NewInt(1)); !got.IsNull() {
		t.Errorf("NULL+1 = %v, want NULL", got)
	}
}

func TestRowKey(t *testing.T) {
	r1 := Row{NewInt(1), NewString("a"), Null()}
	r2 := Row{NewInt(1), NewString("a"), Null()}
	r3 := Row{NewInt(1), NewString("a"), NewInt(0)}
	if r1.Key() != r2.Key() {
		t.Error("identical rows should share a key")
	}
	if r1.Key() == r3.Key() {
		t.Error("NULL and 0 must have distinct keys")
	}
	// Integral floats and ints must collide so 1 == 1.0 in results.
	if (Row{NewFloat(2.0)}).Key() != (Row{NewInt(2)}).Key() {
		t.Error("2.0 and 2 should share a key")
	}
	// Adjacent-cell ambiguity: ("ab","c") vs ("a","bc").
	if (Row{NewString("ab"), NewString("c")}).Key() == (Row{NewString("a"), NewString("bc")}).Key() {
		t.Error("row key must not concatenate cells ambiguously")
	}
}

func TestRowClone(t *testing.T) {
	r := Row{NewInt(1), NewInt(2)}
	c := r.Clone()
	c[0] = NewInt(9)
	if r[0].Int() != 1 {
		t.Error("Clone must not share backing storage")
	}
}

func TestSQLLiteral(t *testing.T) {
	if got := NewString("it's").SQLLiteral(); got != "'it''s'" {
		t.Errorf("SQLLiteral = %q", got)
	}
	if got := Null().SQLLiteral(); got != "NULL" {
		t.Errorf("SQLLiteral = %q", got)
	}
	if got := NewInt(-3).SQLLiteral(); got != "-3" {
		t.Errorf("SQLLiteral = %q", got)
	}
}

func TestHoldsSignConsistency(t *testing.T) {
	for _, op := range AllCmpOps {
		for sign := -1; sign <= 1; sign++ {
			a, b := NewInt(int64(sign)), NewInt(0)
			want := TriCompare(op, a, b) == True
			if got := op.HoldsSign(sign); got != want {
				t.Errorf("%s.HoldsSign(%d) = %v, want %v", op, sign, got, want)
			}
		}
	}
}

// TestAppendSQLLiteral checks AppendSQLLiteral against SQLLiteral, and
// SQLLiteralBound against the literal's length: exact for every kind but
// floats, where it bounds it.
func TestAppendSQLLiteral(t *testing.T) {
	vals := []Value{
		Null(), TypedNull(KindInt), TypedNull(KindString),
		NewInt(0), NewInt(7), NewInt(-7), NewInt(10), NewInt(-10), NewInt(99999),
		NewInt(math.MaxInt64), NewInt(math.MinInt64),
		NewFloat(0), NewFloat(2.5), NewFloat(-1e300), NewFloat(-2.2250738585072014e-308), NewFloat(1.0 / 3),
		NewString(""), NewString("abc"), NewString("it's"), NewString("''"), NewString("x'y'z"),
		NewBool(true), NewBool(false),
	}
	for _, v := range vals {
		want := v.SQLLiteral()
		if got := string(v.AppendSQLLiteral([]byte("pre:"))); got != "pre:"+want {
			t.Errorf("%#v: AppendSQLLiteral appended %q, want %q", v, got, "pre:"+want)
		}
		bound := v.SQLLiteralBound()
		if bound < len(want) || (v.Kind() != KindFloat && bound != len(want)) {
			t.Errorf("%#v: SQLLiteralBound %d, literal %q has length %d", v, bound, want, len(want))
		}
	}
}
