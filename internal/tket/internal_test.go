package tket

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/router"
)

func TestPlaceInjectiveAndDegreeAware(t *testing.T) {
	c := circuit.New(9)
	// A hub-heavy interaction graph.
	for i := 1; i < 6; i++ {
		c.MustAppend(circuit.NewCX(0, i))
	}
	dev := arch.Grid3x3()
	m := place(router.TwoQubitSkeleton(c), dev, rand.New(rand.NewSource(1)))
	if err := m.Validate(dev.NumQubits()); err != nil {
		t.Fatal(err)
	}
	// The hub (q0, degree 5) should land on the grid center (degree 4).
	if m[0] != 4 {
		t.Errorf("hub placed at p%d, want the center p4", m[0])
	}
}

func TestDecisionBaseSumsDiscountFutureSlices(t *testing.T) {
	c := circuit.New(4)
	c.MustAppend(circuit.NewCX(0, 1), circuit.NewCX(0, 2))
	dev := arch.Line(4)
	opts := Options{LookaheadSlices: 1, LookaheadDiscount: 0.5}.withDefaults()
	dag := circuit.NewDAG(c)
	slices := dag.Layers()
	if len(slices) != 2 {
		t.Fatalf("layers=%d", len(slices))
	}
	m := router.Mapping{0, 1, 3, 2} // cx(0,1) adjacent; cx(0,2) at distance 3
	lay := &layout{m: m, inv: m.Inverse(4)}
	e := newEngine(dev, opts.LookaheadSlices)
	e.beginDecision(slices[0], slices, 0, dag, lay, opts.LookaheadSlices)
	// Current slice distance 1, next slice distance 3: with no swap
	// applied the deltas are zero, so the score of an identity candidate
	// is 1 + 0.5*3 = 2.5.
	if e.base[0] != 1 || e.base[1] != 3 {
		t.Fatalf("base sums = %v, want [1 3]", e.base)
	}
	score, d0 := e.scoreCandidate(3, 3, slices, 0, dag, lay, opts)
	if score != 2.5 || d0 != 0 {
		t.Fatalf("score=%v delta0=%d, want 2.5 and 0", score, d0)
	}
}

func TestScoreCandidateMatchesDirectEvaluation(t *testing.T) {
	// A swap's delta-evaluated score must equal re-summing the slices
	// with the swap applied.
	c := circuit.New(4)
	c.MustAppend(circuit.NewCX(0, 3), circuit.NewCX(1, 2))
	dev := arch.Line(4)
	opts := Options{}.withDefaults()
	dag := circuit.NewDAG(c)
	slices := dag.Layers()
	m := router.IdentityMapping(4)
	lay := &layout{m: m, inv: m.Inverse(4)}
	e := newEngine(dev, opts.LookaheadSlices)
	e.beginDecision(slices[0], slices, 0, dag, lay, opts.LookaheadSlices)
	direct := func() float64 {
		s := 0.0
		dist := dev.Distances()
		for _, v := range slices[0] {
			gt := dag.Gate(v)
			s += float64(dist.At(lay.m[gt.Q0], lay.m[gt.Q1]))
		}
		return s
	}
	lay.swap(0, 1)
	score, _ := e.scoreCandidate(0, 1, slices, 0, dag, lay, opts)
	if want := direct(); score != want {
		t.Fatalf("delta score=%v, direct re-sum=%v", score, want)
	}
	lay.swap(0, 1)
}

// TestDecisionLoopZeroAllocs pins the acceptance criterion of the
// hot-path rewrite: a warm swap decision — base sums, candidate
// collection, and scoring every candidate — performs zero heap
// allocations.
func TestDecisionLoopZeroAllocs(t *testing.T) {
	dev := arch.Grid3x3()
	c := circuit.New(9)
	for i := 0; i < 8; i++ {
		c.MustAppend(circuit.NewCX(i, (i+3)%9))
		c.MustAppend(circuit.NewCX((i+1)%9, (i+5)%9))
	}
	opts := Options{Seed: 1}.withDefaults()
	dag := circuit.NewDAG(c)
	slices := dag.Layers()
	m := router.IdentityMapping(9)
	lay := &layout{m: m, inv: m.Inverse(9)}
	e := newEngine(dev, opts.LookaheadSlices)
	decide := func() {
		e.beginDecision(slices[0], slices, 0, dag, lay, opts.LookaheadSlices)
		cands := e.collectCandidates(slices[0], dag, lay)
		for ci := range cands {
			a, b := int(cands[ci][0]), int(cands[ci][1])
			lay.swap(a, b)
			e.scoreCandidate(a, b, slices, 0, dag, lay, opts)
			lay.swap(a, b)
		}
	}
	decide() // warm-up: the node pool and candidate backing grow once
	if a := testing.AllocsPerRun(50, decide); a != 0 {
		t.Fatalf("warm swap decision allocates %.1f objects, want 0", a)
	}
}

func TestCandidatesTouchActiveQubits(t *testing.T) {
	c := circuit.New(4)
	c.MustAppend(circuit.NewCX(0, 3))
	dev := arch.Line(4)
	dag := circuit.NewDAG(c)
	m := router.IdentityMapping(4)
	lay := &layout{m: m, inv: m.Inverse(4)}
	e := newEngine(dev, 2)
	e.epoch++
	cands := e.collectCandidates([]int{0}, dag, lay)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	for _, cd := range cands {
		if cd[0] != 0 && cd[1] != 0 && cd[0] != 3 && cd[1] != 3 {
			t.Fatalf("candidate %v touches neither active qubit", cd)
		}
	}
}

// newEngine returns an unpooled engine bound to dev.
func newEngine(dev *arch.Device, lookahead int) *engine {
	e := new(engine)
	e.bind(dev, lookahead)
	return e
}
