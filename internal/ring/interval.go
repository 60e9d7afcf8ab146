package ring

import "fmt"

// Interval is the half-open clockwise interval (Start, End] on the unit
// circle, matching the paper's I(a, b) notation. Start == End denotes the
// empty interval (the full circle is not representable, mirroring the
// paper where intervals of interest are always proper sub-arcs).
type Interval struct {
	Start Point
	End   Point
}

// NewInterval returns the interval (start, end].
func NewInterval(start, end Point) Interval {
	return Interval{Start: start, End: end}
}

// Length returns |I| in circle units.
func (iv Interval) Length() uint64 {
	return Distance(iv.Start, iv.End)
}

// IsEmpty reports whether the interval contains no points.
func (iv Interval) IsEmpty() bool { return iv.Start == iv.End }

// Contains reports whether x lies in (Start, End].
func (iv Interval) Contains(x Point) bool {
	d := Distance(iv.Start, x)
	return d != 0 && d <= iv.Length()
}

// BetweenIncl reports whether x lies in the clockwise interval (a, b].
// Unlike Interval, a == b spans the full circle — the protocol
// convention, under which a lone node owns every key — so every x
// qualifies.
func BetweenIncl(a, b, x Point) bool {
	if a == b {
		return true
	}
	d := Distance(a, x)
	return d != 0 && d <= Distance(a, b)
}

// BetweenExcl reports whether x lies in the open clockwise interval
// (a, b). When a == b the interval is the full circle minus a.
func BetweenExcl(a, b, x Point) bool {
	if a == b {
		return x != a
	}
	d := Distance(a, x)
	return d != 0 && d < Distance(a, b)
}

// Big reports whether the interval length is at least lambda; intervals
// that are not big are small (paper, Section 3).
func (iv Interval) Big(lambda uint64) bool {
	return iv.Length() >= lambda
}

// String renders the interval as fractions of the circle.
func (iv Interval) String() string {
	return fmt.Sprintf("(%v, %v]", iv.Start, iv.End)
}

// CountIn returns the number of peer points of r inside the half-open
// interval (Start, End]. This is the paper's pi(x, y) when Start and End
// are arbitrary points.
func (r *Ring) CountIn(iv Interval) int {
	if iv.IsEmpty() {
		return 0
	}
	count := 0
	// Walk clockwise from the successor of Start while within the span.
	span := iv.Length()
	start := r.Successor(iv.Start)
	for k := 0; k < r.Len(); k++ {
		i := (start + k) % r.Len()
		d := Distance(iv.Start, r.points[i])
		if d == 0 {
			// Peer exactly at Start is excluded by half-openness; its
			// successor ordering places it first, so skip it.
			continue
		}
		if d > span {
			break
		}
		count++
	}
	return count
}

// Peerless reports whether the interval contains no peer points except
// possibly at its clockwise endpoint (paper, Section 3).
func (r *Ring) Peerless(iv Interval) bool {
	if iv.IsEmpty() {
		return true
	}
	n := r.CountIn(iv)
	if n == 0 {
		return true
	}
	// Allow a single peer point exactly at the clockwise endpoint.
	return n == 1 && r.IndexOf(iv.End) >= 0
}

// MaximallyPeerless reports whether the interval is peerless and both of
// its endpoints are peer points.
func (r *Ring) MaximallyPeerless(iv Interval) bool {
	return r.IndexOf(iv.Start) >= 0 && r.IndexOf(iv.End) >= 0 && r.Peerless(iv)
}
