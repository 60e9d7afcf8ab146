package engine

import (
	"context"
	"math"
	"runtime"
	"testing"

	"github.com/dht-sampling/randompeer/internal/raceflag"
)

// tallySlack is how many bytes more than a one-worker call a many-worker
// SampleN call may allocate: a goroutine's closure and its share of
// runtime bookkeeping, never a tally (2^16 owners · 8 bytes = 512 KiB).
const tallySlack = 16 << 10

// TestAllocBudgetSampleNTally pins one tally per call. A TallyOnly run
// allocates the result's n-entry tally and one fork per block; the
// block count does not depend on the worker count, so neither may the
// bytes. A per-worker tally would add n·8 bytes a worker.
func TestAllocBudgetSampleNTally(t *testing.T) {
	raceflag.SkipBudgets(t)
	const n = 1 << 16
	o := testOracle(t, n)
	s := testSampler(t, o)
	const k = 16 * DefaultBlockSize // enough blocks for eight workers
	bytesAt := func(workers int) uint64 {
		t.Helper()
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			res, err := SampleN(context.Background(), s, k, Config{Workers: workers, Seed: 1, Owners: n, TallyOnly: true})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if res.Workers != workers {
				t.Fatalf("ran %d workers, want %d", res.Workers, workers)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	one := bytesAt(1)
	if one > n*8+tallySlack {
		t.Errorf("one worker allocates %d bytes, want one %d-byte tally plus at most %d", one, n*8, tallySlack)
	}
	t.Logf("1 worker: %d bytes for a %d-byte tally and %d blocks", one, n*8, k/DefaultBlockSize)
	for _, workers := range []int{2, 8} {
		got := bytesAt(workers)
		t.Logf("%d workers: %d bytes", workers, got)
		if got > one+tallySlack {
			t.Errorf("%d workers allocate %d bytes, one worker %d: more than %d apart", workers, got, one, tallySlack)
		}
	}
}
