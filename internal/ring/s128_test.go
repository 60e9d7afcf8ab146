package ring

import (
	"math"
	"testing"
	"testing/quick"
)

func TestS128Basics(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name string
		v    S128
		sign int
	}{
		{name: "zero", v: S128Of(0), sign: 0},
		{name: "positive", v: S128Of(5), sign: 1},
		{name: "negative", v: S128Of(0).SubUint(1), sign: -1},
		{name: "large positive", v: S128Of(math.MaxUint64).AddUint(math.MaxUint64), sign: 1},
		{name: "deep negative", v: S128Of(0).SubUint(math.MaxUint64).SubUint(math.MaxUint64), sign: -1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			if got := tt.v.Sign(); got != tt.sign {
				t.Errorf("Sign() = %d, want %d", got, tt.sign)
			}
			if got := tt.v.IsNeg(); got != (tt.sign < 0) {
				t.Errorf("IsNeg() = %v, want %v", got, tt.sign < 0)
			}
			if got := tt.v.IsPos(); got != (tt.sign > 0) {
				t.Errorf("IsPos() = %v, want %v", got, tt.sign > 0)
			}
		})
	}
}

func TestS128AddSubInverse(t *testing.T) {
	t.Parallel()
	inv := func(start, a, b uint64) bool {
		s := S128Of(start).AddUint(a).SubUint(b).AddUint(b).SubUint(a)
		return s.Cmp(S128Of(start)) == 0
	}
	if err := quick.Check(inv, nil); err != nil {
		t.Error(err)
	}
}

func TestS128AddSubUintIsAddThenSub(t *testing.T) {
	t.Parallel()
	same := func(hi int32, lo, a, b uint64) bool {
		s := S128{hi: int64(hi), lo: lo}
		return s.AddSubUint(a, b) == s.AddUint(a).SubUint(b)
	}
	if err := quick.Check(same, nil); err != nil {
		t.Error(err)
	}
	// A carry and a borrow in one call cancel: (2^64-1) + 1 - 2^63.
	if got := S128Of(math.MaxUint64).AddSubUint(1, 1<<63); got != S128Of(1<<63) {
		t.Errorf("AddSubUint across the word boundary = %v, want 2^63", got)
	}
}

func TestS128Commutes(t *testing.T) {
	t.Parallel()
	comm := func(a, b, c uint64) bool {
		x := S128Of(0).AddUint(a).SubUint(b).AddUint(c)
		y := S128Of(0).AddUint(c).AddUint(a).SubUint(b)
		return x.Cmp(y) == 0
	}
	if err := quick.Check(comm, nil); err != nil {
		t.Error(err)
	}
}

func TestS128OrderingMatchesBigArithmetic(t *testing.T) {
	t.Parallel()
	// Compare S128 ordering with exact integer arithmetic on small values.
	ord := func(a, b int32) bool {
		x := fromInt64(int64(a))
		y := fromInt64(int64(b))
		want := 0
		switch {
		case a < b:
			want = -1
		case a > b:
			want = 1
		}
		return x.Cmp(y) == want
	}
	if err := quick.Check(ord, nil); err != nil {
		t.Error(err)
	}
}

func fromInt64(v int64) S128 {
	if v >= 0 {
		return S128Of(uint64(v))
	}
	return S128Of(0).SubUint(uint64(-v))
}

func TestS128MulMatchesRepeatedAddition(t *testing.T) {
	t.Parallel()
	mul := func(a uint64, kRaw uint8) bool {
		k := uint64(kRaw)
		sum := S128Of(0)
		for i := uint64(0); i < k; i++ {
			sum = sum.AddUint(a)
		}
		return S128Mul(k, a).Cmp(sum) == 0 && S128Mul(a, k).Cmp(sum) == 0
	}
	if err := quick.Check(mul, nil); err != nil {
		t.Error(err)
	}
	// The largest product the contract admits: 2^63 * (2^64-1) < 2^127.
	top := S128Mul(1<<63, math.MaxUint64)
	if !top.IsPos() || top.Cmp(S128Mul(1<<63, math.MaxUint64-1)) <= 0 {
		t.Errorf("S128Mul(2^63, 2^64-1) = %v is not the positive maximum", top)
	}
}

func TestS128Sub(t *testing.T) {
	t.Parallel()
	sub := func(a, b int32) bool {
		got := fromInt64(int64(a)).Sub(fromInt64(int64(b)))
		return got.Cmp(fromInt64(int64(a)-int64(b))) == 0
	}
	if err := quick.Check(sub, nil); err != nil {
		t.Error(err)
	}
	// Large values: (2^64 + 5) - 5 = 2^64.
	big := S128Of(math.MaxUint64).AddUint(6).Sub(S128Of(5))
	if big.Cmp(S128Of(math.MaxUint64).AddUint(1)) != 0 {
		t.Error("large Sub mismatch")
	}
}

func TestS128Uint64(t *testing.T) {
	t.Parallel()
	if v, ok := S128Of(77).Uint64(); !ok || v != 77 {
		t.Errorf("Uint64 = (%d, %v), want (77, true)", v, ok)
	}
	if _, ok := S128Of(0).SubUint(1).Uint64(); ok {
		t.Error("negative value must not convert to uint64")
	}
	if _, ok := S128Of(math.MaxUint64).AddUint(1).Uint64(); ok {
		t.Error("overflowing value must not convert to uint64")
	}
}

func TestS128String(t *testing.T) {
	t.Parallel()
	if got := S128Of(42).String(); got != "42" {
		t.Errorf("String = %q, want 42", got)
	}
	if got := S128Of(0).SubUint(7).String(); got != "-7" {
		t.Errorf("String = %q, want -7", got)
	}
}

func TestS128Float64(t *testing.T) {
	t.Parallel()
	v := S128Of(1 << 32)
	if got := v.Float64(); got != float64(uint64(1)<<32) {
		t.Errorf("Float64 = %v", got)
	}
	neg := S128Of(0).SubUint(1 << 20)
	if got := neg.Float64(); got != -float64(uint64(1)<<20) {
		t.Errorf("negative Float64 = %v, want %v", got, -float64(uint64(1)<<20))
	}
}
