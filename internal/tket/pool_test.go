package tket_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/qubikos"
	"repro/internal/router"
	"repro/internal/tket"
)

// pooledCases orders the golden cases by device, interleaved (aspen4 →
// eagle127 → sycamore54 → aspen4 → eagle127), so consecutive routes
// hand the pooled engine to a device of another size, and back.
func pooledCases(t *testing.T) []goldenCase {
	t.Helper()
	byName := map[string]goldenCase{}
	for _, gc := range goldenCases() {
		byName[gc.name] = gc
	}
	var out []goldenCase
	for _, name := range []string{
		"aspen4-route", "eagle127-route", "sycamore54-route", "aspen4-placed", "eagle127-placed",
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
// another must reproduce every recorded routing.
func TestPooledEngineInterleaved(t *testing.T) {
	for _, gc := range pooledCases(t) {
		if err := routeGolden(gc); err != nil {
			t.Error(err)
		}
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
				if err := routeGolden(cases[(g+i)%len(cases)]); err != nil {
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

// TestPooledEngineEpochWrap starts the decision epoch one step short of
// math.MaxInt32 on a warm engine: the route crosses the wrap, which must
// clear the stamps the warm-up left behind and restart at 1, and the
// result must still match the golden case.
func TestPooledEngineEpochWrap(t *testing.T) {
	for _, gc := range goldenCases() {
		if gc.placed {
			continue // RouteFrom pins the mapping through its own Router
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
			res, epoch, err := tket.RouteAcrossEpochWrap(tket.New(gc.opts), p, math.MaxInt32-1)
			if err != nil {
				t.Fatal(err)
			}
			if err := compareGolden(gc, b.Circuit, dev, res); err != nil {
				t.Error(err)
			}
			if epoch < 1 || epoch >= math.MaxInt32-1 {
				t.Errorf("epoch ended at %d; the route never wrapped it", epoch)
			}
		})
	}
}
