package main

import (
	"fmt"
	"os"
	"runtime"

	"github.com/dht-sampling/randompeer/internal/exp"
	"github.com/dht-sampling/randompeer/internal/overlays"
)

// MemBench records the flat-storage capacity measurement for one
// backend: the overlay built at n with the GC-settled heap cost per
// node, the build wall time, and the bytes the process obtained from
// the OS (the "peak RSS" the capacity plan budgets for). These are the
// committed numbers behind the "10M-peer rings in a few GB" claim;
// cmd/benchdiff holds bytes/node to 0.1% and slots and probes exact.
type MemBench struct {
	Backend      string  `json:"backend"`
	Peers        int     `json:"peers"`
	BuildWallMS  float64 `json:"build_wall_ms"`
	PeersPerSec  float64 `json:"peers_per_sec"`
	BytesPerNode float64 `json:"bytes_per_node"`
	HeapMB       float64 `json:"heap_mb"`
	SysMB        float64 `json:"sys_mb"`
	Slots        int     `json:"slots"`
	ProbesOK     int     `json:"probes_ok"`
	Probes       int     `json:"probes"`
}

// measureMem runs the E30 storage-scale measurement (bulk build +
// GC-settled heap accounting + successor probes) through the same
// internal/exp runner the E30 experiment table uses, at sizes[backend]
// peers (0 leaves a backend out), one backend at a time so the first
// overlay is collected before the second builds.
func measureMem(sizes map[string]int, seed uint64) ([]MemBench, error) {
	var out []MemBench
	for _, name := range overlays.Names {
		n := sizes[name]
		if n <= 0 {
			continue
		}
		fmt.Fprintf(os.Stderr, "benchsnap: mem — building %s at n=%d (flat storage)...\n", name, n)
		res, err := exp.RunStorageScale(name, n, 200, seed)
		if err != nil {
			return nil, err
		}
		mb := MemBench{
			Backend: res.Backend, Peers: res.Peers,
			BuildWallMS:  float64(res.BuildWall.Microseconds()) / 1000,
			PeersPerSec:  float64(res.Peers) / res.BuildWall.Seconds(),
			BytesPerNode: res.BytesPerNode,
			HeapMB:       float64(res.HeapDelta) / (1 << 20),
			SysMB:        float64(res.SysAfter) / (1 << 20),
			Slots:        res.Slots,
			ProbesOK:     res.ProbesOK,
			Probes:       res.Probes,
		}
		out = append(out, mb)
		fmt.Fprintf(os.Stderr, "benchsnap: mem %s n=%d: built in %.2fs (%.0f peers/sec), %.0f bytes/node, heap %.0f MB, sys %.0f MB, probes %d/%d\n",
			name, n, res.BuildWall.Seconds(), mb.PeersPerSec, mb.BytesPerNode, mb.HeapMB, mb.SysMB, mb.ProbesOK, mb.Probes)
		// The overlay became unreachable when RunStorageScale returned;
		// collect it before the next backend builds, so measurements do
		// not stack heaps.
		runtime.GC()
	}
	return out, nil
}
