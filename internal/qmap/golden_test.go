package qmap_test

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/qmap"
	"repro/internal/qubikos"
	"repro/internal/router"
)

// goldenCase pins one routing instance: the expected swap count and a
// fingerprint over the initial mapping and the full transpiled gate
// stream. The default-heuristic expectations were recorded from the
// pre-optimization engine (pointer-based A* states, container/heap,
// map-backed closed set and touch lists, per-layer Zobrist tables); the
// StrongHeuristic ones from the arena engine that still allocated one
// arena node per generated successor. The current engine must reproduce
// both exactly on the seeds-varied and placed-mapping paths.
type goldenCase struct {
	name   string
	device func() *arch.Device
	swaps  int
	gates  int
	seed   int64
	opts   qmap.Options
	placed bool
	want   int
	print  uint64
	// pops and gen pin the work counters (A* expansions and generated
	// successors), so a frontier change that keeps the routing but
	// reorders the search still fails.
	pops, gen int64
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{name: "aspen4-route", device: arch.RigettiAspen4, swaps: 5, gates: 300, seed: 9,
			opts: qmap.Options{MaxNodes: 2000, Seed: 7}, want: 267, print: 0xccb0f0cd3c0d9a2c, pops: 1223, gen: 12927},
		{name: "sycamore54-route", device: arch.GoogleSycamore54, swaps: 8, gates: 500, seed: 11,
			opts: qmap.Options{MaxNodes: 2000, Seed: 13}, want: 763, print: 0xbe38d4581bc57463, pops: 9995, gen: 428870},
		{name: "eagle127-route", device: arch.IBMEagle127, swaps: 5, gates: 600, seed: 17,
			opts: qmap.Options{MaxNodes: 2000, Seed: 21}, want: 3013, print: 0xda984ccfa977f3c5, pops: 53108, gen: 1438477},
		{name: "aspen4-truncated", device: arch.RigettiAspen4, swaps: 3, gates: 80, seed: 7,
			opts: qmap.Options{MaxNodes: 3, Seed: 7}, want: 85, print: 0xd0c90317290ccd23, pops: 78, gen: 692},
		{name: "aspen4-placed", device: arch.RigettiAspen4, swaps: 5, gates: 300, seed: 9,
			opts: qmap.Options{MaxNodes: 2000, Seed: 7}, placed: true, want: 8, print: 0x419eba7b38760eb6, pops: 16, gen: 91},
		{name: "eagle127-placed", device: arch.IBMEagle127, swaps: 5, gates: 600, seed: 17,
			opts: qmap.Options{MaxNodes: 2000, Seed: 21}, placed: true, want: 11, print: 0x24c13b1c50f37a19, pops: 21, gen: 54},
		{name: "aspen4-route-strong", device: arch.RigettiAspen4, swaps: 5, gates: 300, seed: 9,
			opts: qmap.Options{MaxNodes: 2000, Seed: 7, StrongHeuristic: true}, want: 178, print: 0x1885d09d04dbe40e, pops: 614, gen: 6596},
		{name: "eagle127-route-strong", device: arch.IBMEagle127, swaps: 5, gates: 600, seed: 17,
			opts: qmap.Options{MaxNodes: 2000, Seed: 21, StrongHeuristic: true}, want: 3223, print: 0xfa12e83762db266, pops: 180853, gen: 4533361},
		{name: "aspen4-truncated-strong", device: arch.RigettiAspen4, swaps: 3, gates: 80, seed: 7,
			opts: qmap.Options{MaxNodes: 3, Seed: 7, StrongHeuristic: true}, want: 84, print: 0x540f7c2b07f9eed0, pops: 74, gen: 640},
	}
}

func fingerprint(res *router.Result) uint64 {
	h := fnv.New64a()
	for _, p := range res.InitialMapping {
		fmt.Fprintf(h, "m%d,", p)
	}
	for _, g := range res.Transpiled.Gates {
		fmt.Fprintf(h, "g%d:%d:%d;", g.Kind, g.Q0, g.Q1)
	}
	return h.Sum64()
}

// checkGolden routes gc under opts and compares the result and the work
// counters against the recorded expectations.
func checkGolden(t *testing.T, gc goldenCase, opts qmap.Options) {
	t.Helper()
	if err := routeGolden(gc, opts); err != nil {
		t.Error(err)
	}
}

// routeGolden routes gc on a fresh Router and reports any mismatch with
// the recorded expectations. Results are also re-validated
// independently, so a fingerprint match can't hide an invalid routing.
// It reports instead of failing so that it can run off the test
// goroutine.
func routeGolden(gc goldenCase, opts qmap.Options) error {
	dev := gc.device()
	b, err := qubikos.Generate(dev, qubikos.Options{
		NumSwaps: gc.swaps, TargetTwoQubitGates: gc.gates, Seed: gc.seed,
	})
	if err != nil {
		return err
	}
	r := qmap.New(opts)
	p, err := router.Prepare(b.Circuit, dev)
	if err != nil {
		return err
	}
	var res *router.Result
	if gc.placed {
		res, err = r.RouteFrom(context.Background(), p, b.InitialMapping)
	} else {
		res, err = r.Route(b.Circuit, dev)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", gc.name, err)
	}
	return compareGolden(gc, b.Circuit, dev, res, r.Counters())
}

// compareGolden checks one routed result and its work counters against
// gc's recorded expectations.
func compareGolden(gc goldenCase, c *circuit.Circuit, dev *arch.Device, res *router.Result, cnt router.Counters) error {
	if err := router.Validate(c, dev, res); err != nil {
		return fmt.Errorf("%s: result no longer validates: %w", gc.name, err)
	}
	var errs []error
	if res.SwapCount != gc.want || fingerprint(res) != gc.print {
		errs = append(errs, fmt.Errorf("%s: swaps=%d print=%#x, recorded engine produced swaps=%d print=%#x",
			gc.name, res.SwapCount, fingerprint(res), gc.want, gc.print))
	}
	if cnt.Decisions != gc.pops || cnt.Candidates != gc.gen {
		errs = append(errs, fmt.Errorf("%s: pops=%d generated=%d, want pops=%d generated=%d",
			gc.name, cnt.Decisions, cnt.Candidates, gc.pops, gc.gen))
	}
	return errors.Join(errs...)
}

// TestGoldenCorpus routes the pinned-seed corpus and compares against
// the recorded expectations.
func TestGoldenCorpus(t *testing.T) {
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) { checkGolden(t, gc, gc.opts) })
	}
}

// TestGoldenCorpusWorkerInvariant re-runs the golden corpus at worker
// counts {1, 4, NumCPU}: Options.Workers is ignored by the serial
// engine, so every count must reproduce the recorded routing exactly.
func TestGoldenCorpusWorkerInvariant(t *testing.T) {
	for _, gc := range goldenCases() {
		for _, w := range []int{1, 4, runtime.NumCPU()} {
			gc, opts := gc, gc.opts
			opts.Workers = w
			t.Run(fmt.Sprintf("%s/workers=%d", gc.name, w), func(t *testing.T) { checkGolden(t, gc, opts) })
		}
	}
}
