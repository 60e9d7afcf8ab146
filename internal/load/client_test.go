package load

import (
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/dht-sampling/randompeer/internal/obs"
	"github.com/dht-sampling/randompeer/internal/sim"
)

// eagerClients is the reference draw: the Zipf table built up front,
// as Start did before the draw became lazy, then request i's client
// for i in [0, n).
func eagerClients(clients int, s float64, seed uint64, n int) []uint64 {
	if clients <= 0 {
		clients = 1
	}
	var zcum []float64
	if s > 0 && clients > 1 {
		zcum = zipfCumulative(clients, s)
	}
	out := make([]uint64, n)
	for i := range out {
		switch {
		case zcum != nil:
			u := float64(splitmix64(seed+3, uint64(i))>>11) / (1 << 53)
			out[i] = uint64(sort.SearchFloat64s(zcum, u))
		case clients > 1:
			out[i] = splitmix64(seed+3, uint64(i)) % uint64(clients)
		}
	}
	return out
}

// startRun runs n zero-latency requests through Start and a full kernel
// run; do sees every request.
func startRun(t *testing.T, clients int, s float64, seed uint64, n int, do func(Request)) {
	t.Helper()
	k := sim.NewKernel(seed)
	_, err := Start(k, Config{
		Clients:  clients,
		Requests: n,
		MeanGap:  time.Microsecond,
		GapSigma: 1,
		ZipfS:    s,
		Seed:     seed,
		Registry: obs.NewRegistry(),
		Do: func(req Request) (int, error) {
			do(req)
			return -1, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
}

func TestClientMatchesEagerReference(t *testing.T) {
	const n = 10_000
	for _, tc := range []struct {
		clients int
		s       float64
		seed    uint64
	}{
		{1 << 20, 1.1, 7},
		{1 << 14, 1.1, 12345},
		{100, 1.2, 5},
		{64, 0.5, 3},
		{1000, 0, 9},
		{1000, -1, 9},
		{1, 1.1, 4},
		{0, 0, 4},
	} {
		want := eagerClients(tc.clients, tc.s, tc.seed, n)
		check := func(how string, i uint64, got uint64) {
			t.Helper()
			if got != want[i] {
				t.Fatalf("Clients=%d ZipfS=%g Seed=%d, %s: request %d drew client %d, reference %d",
					tc.clients, tc.s, tc.seed, how, i, got, want[i])
			}
		}

		startRun(t, tc.clients, tc.s, tc.seed, n, func(req Request) {
			check("in order", req.Index, req.Client())
		})

		// Keep the requests, then read them from the back and from a
		// shuffled order: the table is first built from the last index.
		reqs := make([]Request, n)
		startRun(t, tc.clients, tc.s, tc.seed, n, func(req Request) { reqs[req.Index] = req })
		for j := n - 1; j >= 0; j-- {
			check("reversed", reqs[j].Index, reqs[j].Client())
		}
		for _, j := range rand.New(rand.NewPCG(tc.seed, 1)).Perm(n) {
			check("shuffled", reqs[j].Index, reqs[j].Client())
		}
	}
}

// Requests kept past the run may be read from several goroutines at
// once; the first reads race to build the table.
func TestClientConcurrentFirstRead(t *testing.T) {
	const n, clients, s, seed = 2000, 1 << 14, 1.1, 21
	want := eagerClients(clients, s, seed, n)
	reqs := make([]Request, n)
	startRun(t, clients, s, seed, n, func(req Request) { reqs[req.Index] = req })
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, req := range reqs {
				if got := req.Client(); got != want[i] {
					t.Errorf("request %d drew client %d, reference %d", i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestStartRejectsNonFinite(t *testing.T) {
	for _, tc := range []struct {
		name            string
		gapSigma, zipfS float64
	}{
		{"GapSigma NaN", math.NaN(), 1.1},
		{"GapSigma +Inf", math.Inf(1), 1.1},
		{"GapSigma -Inf", math.Inf(-1), 1.1},
		{"ZipfS NaN", 1, math.NaN()},
		{"ZipfS +Inf", 1, math.Inf(1)},
		{"ZipfS -Inf", 1, math.Inf(-1)},
	} {
		_, err := Start(sim.NewKernel(1), Config{
			Clients:  64,
			Requests: 10,
			MeanGap:  time.Millisecond,
			GapSigma: tc.gapSigma,
			ZipfS:    tc.zipfS,
			Registry: obs.NewRegistry(),
			Do:       func(Request) (int, error) { return -1, nil },
		})
		if err == nil {
			t.Errorf("%s: Start accepted it", tc.name)
		}
	}
}

// allocated returns the bytes allocated by a 1000-request run at 2^20
// clients, Zipf(1.1); do sees every request.
func allocated(t *testing.T, do func(Request)) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	startRun(t, 1<<20, 1.1, 7, 1000, do)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A run whose Do never reads the client builds no Zipf table: at a
// million clients the table alone is 8 MiB.
func TestUnreadClientBuildsNoTable(t *testing.T) {
	if got := allocated(t, func(Request) {}); got >= 1<<20 {
		t.Fatalf("Start and a 1000-request run at 2^20 clients allocated %d bytes; want < 1 MiB", got)
	}
}

// A run whose Do reads every client twice builds the table once.
func TestReadClientBuildsOneTable(t *testing.T) {
	const table = 8 << 20
	got := allocated(t, func(req Request) { req.Client(); req.Client() })
	if got < table || got >= table+1<<20 {
		t.Fatalf("a 1000-request run reading every client twice allocated %d bytes; want one 8 MiB table plus < 1 MiB", got)
	}
}
