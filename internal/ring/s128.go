package ring

import (
	"fmt"
	"math/bits"
)

// S128 is a signed 128-bit integer accumulator.
//
// The Choose Random Peer algorithm (Figure 1 of the paper) maintains a
// running value T that starts at |I(s, l(h(s)))| - lambda and is updated
// by T += arc - lambda at each step. Arc lengths are up to 2^64-1 units,
// so T can momentarily exceed the int64 range in tiny networks; S128
// keeps the bookkeeping exact for every network size. It is also used by
// the exact assignment analyzer to evaluate the thresholds
// C_k = (k+1)*lambda - sum(arcs) which may be negative.
type S128 struct {
	hi int64  // sign-carrying high word
	lo uint64 // low word
}

// S128Of returns an S128 holding the given unsigned value.
func S128Of(v uint64) S128 {
	return S128{hi: 0, lo: v}
}

// S128Mul returns the exact product a*b. a*b must be below 2^127 (one
// factor at most 2^63 suffices), which holds for every "count of
// lambdas" the sampler and the analyzer form.
func S128Mul(a, b uint64) S128 {
	hi, lo := bits.Mul64(a, b)
	return S128{hi: int64(hi), lo: lo}
}

// AddUint returns s + v.
func (s S128) AddUint(v uint64) S128 {
	lo, carry := bits.Add64(s.lo, v, 0)
	return S128{hi: s.hi + int64(carry), lo: lo}
}

// SubUint returns s - v.
func (s S128) SubUint(v uint64) S128 {
	lo, borrow := bits.Sub64(s.lo, v, 0)
	return S128{hi: s.hi - int64(borrow), lo: lo}
}

// AddSubUint returns s + a - b: AddUint then SubUint in one call,
// which keeps core's per-step walk update within the inliner's budget.
func (s S128) AddSubUint(a, b uint64) S128 {
	lo, carry := bits.Add64(s.lo, a, 0)
	lo, borrow := bits.Sub64(lo, b, 0)
	return S128{hi: s.hi + int64(carry) - int64(borrow), lo: lo}
}

// Sub returns s - t.
func (s S128) Sub(t S128) S128 {
	lo, borrow := bits.Sub64(s.lo, t.lo, 0)
	return S128{hi: s.hi - t.hi - int64(borrow), lo: lo}
}

// Sign reports -1, 0 or +1 for s < 0, s == 0 and s > 0 respectively.
func (s S128) Sign() int {
	switch {
	case s.hi < 0:
		return -1
	case s.hi > 0:
		return 1
	case s.lo == 0:
		return 0
	default:
		return 1
	}
}

// IsNeg reports whether s < 0.
func (s S128) IsNeg() bool { return s.hi < 0 }

// IsPos reports whether s > 0.
func (s S128) IsPos() bool { return s.hi > 0 || (s.hi == 0 && s.lo > 0) }

// Cmp compares s with t, returning -1, 0 or +1.
func (s S128) Cmp(t S128) int {
	if s.hi != t.hi {
		if s.hi < t.hi {
			return -1
		}
		return 1
	}
	if s.lo != t.lo {
		if s.lo < t.lo {
			return -1
		}
		return 1
	}
	return 0
}

// Uint64 returns the value as a uint64. It must only be called when the
// value is known to be in [0, 2^64); ok reports whether it was.
func (s S128) Uint64() (v uint64, ok bool) {
	if s.hi != 0 {
		return 0, false
	}
	return s.lo, true
}

// Float64 returns an approximate float64 rendering of the value, used
// only for diagnostics.
func (s S128) Float64() float64 {
	return float64(s.hi)*UnitsPerCircle + float64(s.lo)
}

// String renders the value for diagnostics.
func (s S128) String() string {
	if s.hi == 0 {
		return fmt.Sprintf("%d", s.lo)
	}
	if s.hi == -1 {
		return fmt.Sprintf("-%d", -s.lo) // -s.lo == 2^64 - s.lo (mod 2^64)
	}
	return fmt.Sprintf("(hi=%d,lo=%d)", s.hi, s.lo)
}
