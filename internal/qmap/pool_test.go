package qmap_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/qmap"
	"repro/internal/qubikos"
	"repro/internal/router"
)

// pooledCases picks golden cases in an interleaved device order
// (aspen4 → eagle127 → sycamore54 → aspen4 → …), so consecutive routes
// hand the pooled engine to a device of another size, and back.
func pooledCases(t *testing.T) []goldenCase {
	t.Helper()
	byName := map[string]goldenCase{}
	for _, gc := range goldenCases() {
		byName[gc.name] = gc
	}
	var out []goldenCase
	for _, name := range []string{
		"aspen4-route", "eagle127-route", "sycamore54-route",
		"aspen4-truncated", "eagle127-placed", "aspen4-placed",
		"aspen4-route-strong", "aspen4-truncated-strong",
	} {
		gc, ok := byName[name]
		if !ok {
			t.Fatalf("no golden case %q", name)
		}
		out = append(out, gc)
	}
	return out
}

// TestPooledEngineInterleaved routes golden cases through fresh Routers,
// serially, across device changes: an engine rebound from one device to
// another must reproduce every recorded routing and work counter.
func TestPooledEngineInterleaved(t *testing.T) {
	for _, gc := range pooledCases(t) {
		checkGolden(t, gc, gc.opts)
	}
}

// TestPooledEngineConcurrent routes the interleaved cases from four
// goroutines at once, each starting at a different case, so engines move
// between goroutines and devices through the shared pool.
func TestPooledEngineConcurrent(t *testing.T) {
	cases := pooledCases(t)
	const goroutines = 4
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range cases {
				gc := cases[(g+i)%len(cases)]
				if err := routeGolden(gc, gc.opts); err != nil {
					errs[g] = fmt.Errorf("goroutine %d: %w", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestPooledEngineEpochWrap starts every epoch counter one step short of
// math.MaxInt32 on a warm engine: the route crosses the wrap, which must
// clear the stamps the warm-up left behind and restart at 1, and the
// result and work counters must still match the golden case.
func TestPooledEngineEpochWrap(t *testing.T) {
	for _, gc := range goldenCases() {
		if gc.placed || gc.name == "eagle127-route-strong" {
			continue // RouteFrom pins the mapping; the strong Eagle case is slow under -race
		}
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
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
			r := qmap.New(gc.opts)
			res, epochs, err := qmap.RouteAcrossEpochWrap(r, p, math.MaxInt32-1)
			if err != nil {
				t.Fatal(err)
			}
			if err := compareGolden(gc, b.Circuit, dev, res, r.Counters()); err != nil {
				t.Error(err)
			}
			for i, ep := range epochs {
				if ep < 1 || ep >= math.MaxInt32-1 {
					t.Errorf("epoch %d ended at %d; the route never wrapped it", i, ep)
				}
			}
		})
	}
}
