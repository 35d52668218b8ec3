package tket_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/qubikos"
	"repro/internal/router"
	"repro/internal/tket"
)

// goldenCase pins one routing instance: the expected swap count and a
// fingerprint over the initial mapping and the full transpiled gate
// stream. The expectations were recorded from the pre-optimization
// engine (per-slice pending copies, map-based candidate dedup, full
// re-scored slices per candidate); the allocation-free engine must
// reproduce them exactly, which guards the hot-path rewrite against
// behavioural drift on both the seeds-varied and placed-mapping paths.
type goldenCase struct {
	name   string
	device func() *arch.Device
	swaps  int   // benchmark's planted optimum
	gates  int   // padded two-qubit gate total
	seed   int64 // qubikos generation seed
	opts   tket.Options
	placed bool   // route via RouteFrom from the planted optimal mapping
	want   int    // expected SwapCount
	print  uint64 // FNV-1a fingerprint of mapping + gates
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{name: "aspen4-route", device: arch.RigettiAspen4, swaps: 5, gates: 300, seed: 9,
			opts: tket.Options{Seed: 7}, want: 206, print: 0xef86cabb47cc8da3},
		{name: "sycamore54-route", device: arch.GoogleSycamore54, swaps: 8, gates: 500, seed: 11,
			opts: tket.Options{Seed: 13}, want: 722, print: 0x7a4d3acaa86217cf},
		{name: "eagle127-route", device: arch.IBMEagle127, swaps: 5, gates: 600, seed: 17,
			opts: tket.Options{Seed: 21}, want: 2761, print: 0x6db4188bbc20603e},
		{name: "aspen4-placed", device: arch.RigettiAspen4, swaps: 5, gates: 300, seed: 9,
			opts: tket.Options{Seed: 7}, placed: true, want: 5, print: 0xa0fedd87312ab5f7},
		{name: "eagle127-placed", device: arch.IBMEagle127, swaps: 5, gates: 600, seed: 17,
			opts: tket.Options{Seed: 21}, placed: true, want: 5, print: 0x5c6d565818b13eea},
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

// TestGoldenCorpus routes the pinned-seed corpus and compares against
// the recorded pre-refactor expectations.
func TestGoldenCorpus(t *testing.T) {
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			if err := routeGolden(gc); err != nil {
				t.Error(err)
			}
		})
	}
}

// routeGolden routes gc on a fresh Router and reports any mismatch with
// the recorded expectations. It reports instead of failing so that it
// can run off the test goroutine.
func routeGolden(gc goldenCase) error {
	dev := gc.device()
	b, err := qubikos.Generate(dev, qubikos.Options{
		NumSwaps: gc.swaps, TargetTwoQubitGates: gc.gates, Seed: gc.seed,
	})
	if err != nil {
		return err
	}
	r := tket.New(gc.opts)
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
	return compareGolden(gc, b.Circuit, dev, res)
}

// compareGolden checks one routed result against gc's recorded
// expectations. Results are also re-validated independently, so a
// fingerprint match can't hide an invalid routing.
func compareGolden(gc goldenCase, c *circuit.Circuit, dev *arch.Device, res *router.Result) error {
	if err := router.Validate(c, dev, res); err != nil {
		return fmt.Errorf("%s: result no longer validates: %w", gc.name, err)
	}
	if res.SwapCount != gc.want || fingerprint(res) != gc.print {
		return fmt.Errorf("%s: swaps=%d print=%#x, pre-refactor engine produced swaps=%d print=%#x",
			gc.name, res.SwapCount, fingerprint(res), gc.want, gc.print)
	}
	return nil
}
