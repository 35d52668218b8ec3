//go:build !race

// The race detector makes sync.Pool drop items at random, so the pool
// cannot be relied on to hand the warm engine back under -race.

package tket_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/qubikos"
	"repro/internal/router"
	"repro/internal/tket"
)

// TestWarmRouteAllocatesOnlyItsResult pins the engine pool: after one
// warm-up route, a fresh Router routing the Eagle-127 golden case takes
// its decision scratch, layout and skeleton buffer from the pool and
// allocates little beyond its result. GC is off and GOMAXPROCS is 1, so
// the pool can neither be emptied by a collection nor hand out another
// P's engine.
func TestWarmRouteAllocatesOnlyItsResult(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var gc goldenCase
	for _, c := range goldenCases() {
		if c.name == "eagle127-route" {
			gc = c
		}
	}
	dev := gc.device()
	b, err := qubikos.Generate(dev, qubikos.Options{
		NumSwaps: gc.swaps, TargetTwoQubitGates: gc.gates, Seed: gc.seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := router.Prepare(b.Circuit, dev)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tket.New(gc.opts).RoutePrepared(p); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := tket.New(gc.opts).RoutePrepared(p)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if err := compareGolden(gc, b.Circuit, dev, res); err != nil {
		t.Fatal(err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("warm Eagle-127 route allocated %d B", got)
	const bound = 512 << 10
	if got > bound {
		t.Fatalf("warm Eagle-127 route allocated %d B, want at most %d", got, bound)
	}
}
