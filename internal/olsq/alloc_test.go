//go:build !race

package olsq_test

import (
	"runtime"
	"testing"

	"repro/internal/olsq"
)

// A warm VerifyOptimal borrows a pooled SAT solver whose arena, watch
// lists and per-variable tables are already grown, so what it allocates
// is the encoding's literal tables and clause buffers, not the solver.
// Before pooling, the grid3x3 n=2 certificate below allocated about
// 1.19 MB in 10.3k allocations per call; pooled, about 0.12 MB in 4.4k.
// The bound sits between the two, with room for the pool to drop its
// solver at a garbage collection, so that losing the pool fails.
// (The race detector's instrumentation allocates, hence the build tag.)
func TestWarmVerifyOptimalAllocs(t *testing.T) {
	gc := goldenCorpus[2]
	b, dev := gc.generate(t)
	verify := func() {
		s, err := olsq.New(b.Circuit, dev, olsq.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.VerifyOptimal(gc.numSwaps); err != nil {
			t.Fatal(err)
		}
	}
	verify() // warm the pool
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		verify()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	allocs := (after.Mallocs - before.Mallocs) / runs
	t.Logf("warm VerifyOptimal: %d B/op, %d allocs/op", bytes, allocs)
	if bytes > 400_000 || allocs > 7_000 {
		t.Errorf("warm VerifyOptimal allocates %d B/op in %d allocs/op, want at most 400000 B and 7000 allocs", bytes, allocs)
	}
}
