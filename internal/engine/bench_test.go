package engine

import (
	"context"
	"fmt"
	"testing"
)

// BenchmarkSampleNTally runs TallyOnly batches over the oracle at the
// sizes SampleN's callers use, at one and two workers, reporting
// samples/sec: a tiny ring where every worker adds into the same few
// cache lines of the tally, E1's smallest and a mid-size ring, and the
// repository benchmark's 10^6 peers at 2^16 samples a call, where the
// n-entry tally is most of a call's memory. The small rings draw 2^18
// samples a call (≈ 0.2 s), so that one op is long enough for two
// binaries' alternating runs to resolve a few percent.
func BenchmarkSampleNTally(b *testing.B) {
	for _, tc := range []struct{ n, k int }{
		{64, 1 << 18},
		{256, 1 << 18},
		{4096, 1 << 18},
		{1_000_000, 1 << 16},
	} {
		b.Run(fmt.Sprintf("n=%d", tc.n), func(b *testing.B) {
			o := testOracle(b, tc.n)
			s := testSampler(b, o)
			for _, w := range []int{1, 2} {
				b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						cfg := Config{Workers: w, Seed: uint64(i), Owners: o.Owners(), TallyOnly: true}
						if _, err := SampleN(context.Background(), s, tc.k, cfg); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(tc.k)*float64(b.N)/b.Elapsed().Seconds(), "samples/sec")
				})
			}
		})
	}
}
