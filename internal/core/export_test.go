package core

import (
	"math/rand/v2"
	"reflect"
)

// ExclusiveFrom returns an exclusive fork of s whose trial starts come
// from src, for external tests that script where a trial starts, and
// whether the fork runs its trials on its DHT's own runner rather than
// on dht.NewRunner's.
func ExclusiveFrom(s *Sampler, src rand.Source) (*Sampler, bool) {
	f := s.fork(0, true)
	f.rng = rand.New(src)
	return f, reflect.TypeOf(f.run) != stepwise
}
