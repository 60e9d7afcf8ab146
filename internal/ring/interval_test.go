package ring

import (
	"math/rand/v2"
	"testing"
)

func TestIntervalLengthAndContains(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name     string
		iv       Interval
		x        Point
		contains bool
	}{
		{name: "start excluded", iv: NewInterval(10, 20), x: 10, contains: false},
		{name: "end included", iv: NewInterval(10, 20), x: 20, contains: true},
		{name: "interior", iv: NewInterval(10, 20), x: 15, contains: true},
		{name: "outside", iv: NewInterval(10, 20), x: 25, contains: false},
		{name: "wrapping interior", iv: NewInterval(^Point(0)-5, 5), x: 0, contains: true},
		{name: "wrapping outside", iv: NewInterval(^Point(0)-5, 5), x: 100, contains: false},
		{name: "empty contains nothing", iv: NewInterval(7, 7), x: 7, contains: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			if got := tt.iv.Contains(tt.x); got != tt.contains {
				t.Errorf("Contains(%d) = %v, want %v", tt.x, got, tt.contains)
			}
		})
	}
	if got := NewInterval(10, 20).Length(); got != 10 {
		t.Errorf("Length = %d, want 10", got)
	}
	if !NewInterval(7, 7).IsEmpty() {
		t.Error("same endpoints must be empty")
	}
}

// TestBetween pins the protocol predicates, including the full-circle
// reading of a == b that sets them apart from Interval.
func TestBetween(t *testing.T) {
	t.Parallel()
	top := ^Point(0)
	tests := []struct {
		a, b, x    Point
		incl, excl bool
	}{
		{a: 10, b: 20, x: 10, incl: false, excl: false},
		{a: 10, b: 20, x: 15, incl: true, excl: true},
		{a: 10, b: 20, x: 20, incl: true, excl: false},
		{a: 10, b: 20, x: 25, incl: false, excl: false},
		{a: top - 5, b: 5, x: 0, incl: true, excl: true},
		{a: top - 5, b: 5, x: 100, incl: false, excl: false},
		{a: 7, b: 7, x: 7, incl: true, excl: false},
		{a: 7, b: 7, x: 3, incl: true, excl: true},
	}
	for _, tt := range tests {
		if got := BetweenIncl(tt.a, tt.b, tt.x); got != tt.incl {
			t.Errorf("BetweenIncl(%d, %d, %d) = %v, want %v", tt.a, tt.b, tt.x, got, tt.incl)
		}
		if got := BetweenExcl(tt.a, tt.b, tt.x); got != tt.excl {
			t.Errorf("BetweenExcl(%d, %d, %d) = %v, want %v", tt.a, tt.b, tt.x, got, tt.excl)
		}
	}
}

func TestIntervalString(t *testing.T) {
	t.Parallel()
	if got := NewInterval(1<<62, 3<<62).String(); got != "(0.250000, 0.750000]" {
		t.Errorf("String = %q", got)
	}
}

func TestIntervalBig(t *testing.T) {
	t.Parallel()
	iv := NewInterval(0, 100)
	if !iv.Big(100) {
		t.Error("length == lambda must be big")
	}
	if iv.Big(101) {
		t.Error("length < lambda must be small")
	}
}

func TestCountIn(t *testing.T) {
	t.Parallel()
	r, err := New([]Point{10, 20, 30, 40})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		iv   Interval
		want int
	}{
		{name: "covers two", iv: NewInterval(15, 35), want: 2},
		{name: "excludes anchor at start", iv: NewInterval(10, 35), want: 2},
		{name: "includes clockwise endpoint peer", iv: NewInterval(15, 30), want: 2},
		{name: "empty span", iv: NewInterval(15, 15), want: 0},
		{name: "no peers", iv: NewInterval(31, 39), want: 0},
		{name: "wrapping covers all but anchor", iv: NewInterval(10, 10-1), want: 3},
		{name: "wrap around top", iv: NewInterval(35, 15), want: 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			if got := r.CountIn(tt.iv); got != tt.want {
				t.Errorf("CountIn(%v) = %d, want %d", tt.iv, got, tt.want)
			}
		})
	}
}

func TestCountInMatchesBruteForce(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(11, 13))
	r, err := Generate(rng, 64)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 500; trial++ {
		iv := NewInterval(Point(rng.Uint64()), Point(rng.Uint64()))
		want := 0
		for i := 0; i < r.Len(); i++ {
			if iv.Contains(r.At(i)) {
				want++
			}
		}
		if got := r.CountIn(iv); got != want {
			t.Fatalf("CountIn(%v) = %d, brute force %d", iv, got, want)
		}
	}
}

func TestPeerless(t *testing.T) {
	t.Parallel()
	r, err := New([]Point{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		iv   Interval
		want bool
	}{
		{name: "between peers", iv: NewInterval(21, 29), want: true},
		{name: "endpoint peer allowed", iv: NewInterval(21, 30), want: true},
		{name: "interior peer", iv: NewInterval(15, 25), want: false},
		{name: "anchor at start excluded so peerless", iv: NewInterval(20, 29), want: true},
		{name: "full arc", iv: NewInterval(20, 30), want: true},
		{name: "beyond one arc", iv: NewInterval(15, 35), want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			if got := r.Peerless(tt.iv); got != tt.want {
				t.Errorf("Peerless(%v) = %v, want %v", tt.iv, got, tt.want)
			}
		})
	}
}

func TestMaximallyPeerless(t *testing.T) {
	t.Parallel()
	r, err := New([]Point{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	// Arcs between consecutive peers are maximally peerless.
	if !r.MaximallyPeerless(NewInterval(10, 20)) {
		t.Error("(10,20] should be maximally peerless")
	}
	// Non-peer endpoints disqualify.
	if r.MaximallyPeerless(NewInterval(11, 20)) {
		t.Error("(11,20] start is not a peer point")
	}
	// Spanning a peer disqualifies.
	if r.MaximallyPeerless(NewInterval(10, 30)) {
		t.Error("(10,30] contains peer 20")
	}
}
