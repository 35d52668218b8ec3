package olsq_test

// Golden corpus for the exact-verification engine. The expected values
// below were recorded from the pre-refactor engine (per-k re-encode, cold
// solver per bound, pointer-based CDCL core) on a fixed QUBIKOS corpus;
// the flat-arena incremental engine must reproduce every SAT/UNSAT
// verdict, MinSwaps value, and extracted swap count bit-for-bit, on both
// the incremental and the legacy per-k path. The solver counters pin the
// search itself: every decision, propagation, learned clause and restart.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/olsq"
	"repro/internal/qubikos"
	"repro/internal/router"
	"repro/internal/sat"
)

type goldenCase struct {
	device    string
	numSwaps  int
	instance  int
	decideLow bool // Decide(n-1) verdict
	decideAt  bool // Decide(n) verdict
	atCount   int  // swap count extracted from the Decide(n) witness
	minSwaps  int  // MinSwaps(n+2) result
}

// Recorded 2026-07-28 from the seed engine (commit f7754fb); instance
// seeds follow the optimality study's convention 7 + n*100_000 + i.
var goldenCorpus = []goldenCase{
	{"grid3x3", 1, 0, false, true, 1, 1},
	{"grid3x3", 1, 1, false, true, 1, 1},
	{"grid3x3", 2, 0, false, true, 2, 2},
	{"grid3x3", 2, 1, false, true, 2, 2},
	{"grid3x3", 3, 0, false, true, 3, 3},
	{"grid3x3", 3, 1, false, true, 3, 3},
	{"aspen4", 1, 0, false, true, 1, 1},
	{"aspen4", 1, 1, false, true, 1, 1},
	{"aspen4", 2, 0, false, true, 2, 2},
	{"aspen4", 2, 1, false, true, 2, 2},
	{"aspen4", 3, 0, false, true, 3, 3},
	{"aspen4", 3, 1, false, true, 3, 3},
}

// goldenCounters are one golden case's sat.Stats on one path (Conflicts,
// Decisions, Propagations, Restarts, Learned).
type goldenCounters struct {
	// verify is a new Solver's VerifyOptimal(n): the certification path,
	// on a pooled SAT solver.
	verify sat.Stats
	// sweep is Decide(n-1), Decide(n), MinSwaps(n+2) and VerifyOptimal(n)
	// on one Solver, summed over every SAT solver it used.
	sweep sat.Stats
}

func stats(conflicts, decisions, propagations, restarts, learned int64) sat.Stats {
	return sat.Stats{Conflicts: conflicts, Decisions: decisions, Propagations: propagations,
		Restarts: restarts, Learned: learned}
}

// Recorded 2026-10-17 at commit 4ae298c, before the SAT kernel rewrite
// (literal-indexed values, binary watchers, hole-based heap, pooled
// solvers). At that commit SolverStats reported the persistent solver
// only, so the per-k counters were summed over each bound's cold solver
// by a recording-only patch.
var goldenIncremental = map[string]goldenCounters{
	"grid3x3/n1/i0": {stats(50, 65, 2410, 0, 50), stats(50, 89, 3618, 0, 50)},
	"grid3x3/n1/i1": {stats(40, 57, 2045, 0, 40), stats(40, 89, 3253, 0, 40)},
	"grid3x3/n2/i0": {stats(541, 905, 41201, 4, 541), stats(568, 985, 45418, 4, 568)},
	"grid3x3/n2/i1": {stats(517, 860, 35839, 4, 517), stats(517, 877, 37667, 4, 517)},
	"grid3x3/n3/i0": {stats(1215, 2065, 127911, 9, 1215), stats(1215, 2130, 130275, 9, 1215)},
	"grid3x3/n3/i1": {stats(545, 984, 55374, 4, 545), stats(1018, 1893, 104655, 7, 1018)},
	"aspen4/n1/i0":  {stats(661, 1446, 82090, 4, 661), stats(661, 1554, 85380, 4, 661)},
	"aspen4/n1/i1":  {stats(674, 1352, 77092, 5, 674), stats(674, 1460, 80366, 5, 674)},
	"aspen4/n2/i0":  {stats(1092, 2278, 165875, 7, 1092), stats(1092, 2439, 170809, 7, 1092)},
	"aspen4/n2/i1":  {stats(840, 2376, 107350, 6, 840), stats(840, 2443, 112256, 6, 840)},
	"aspen4/n3/i0":  {stats(2650, 5974, 450805, 15, 2650), stats(3105, 6981, 557754, 18, 3105)},
	"aspen4/n3/i1":  {stats(704, 1650, 112041, 5, 704), stats(704, 1733, 118603, 5, 704)},
}

var goldenPerK = map[string]goldenCounters{
	"grid3x3/n1/i0": {stats(146, 202, 9900, 1, 145), stats(438, 606, 29700, 3, 435)},
	"grid3x3/n1/i1": {stats(259, 389, 16947, 2, 258), stats(777, 1167, 50841, 6, 774)},
	"grid3x3/n2/i0": {stats(448, 752, 37662, 4, 447), stats(1386, 2308, 114143, 12, 1382)},
	"grid3x3/n2/i1": {stats(505, 838, 45468, 3, 504), stats(1548, 2549, 137427, 9, 1544)},
	"grid3x3/n3/i0": {stats(3017, 4869, 325930, 19, 3016), stats(9195, 14805, 986243, 58, 9190)},
	"grid3x3/n3/i1": {stats(1709, 3058, 185622, 10, 1708), stats(5302, 9444, 565900, 31, 5297)},
	"aspen4/n1/i0":  {stats(232, 417, 36229, 1, 231), stats(696, 1251, 108687, 3, 693)},
	"aspen4/n1/i1":  {stats(122, 223, 11020, 0, 121), stats(366, 669, 33060, 0, 363)},
	"aspen4/n2/i0":  {stats(957, 1945, 136361, 6, 956), stats(2912, 5894, 410979, 18, 2908)},
	"aspen4/n2/i1":  {stats(1413, 3128, 181993, 8, 1412), stats(4284, 9543, 549229, 24, 4280)},
	"aspen4/n3/i0":  {stats(2555, 6222, 398020, 15, 2554), stats(7952, 19160, 1222312, 47, 7947)},
	"aspen4/n3/i1":  {stats(3018, 6825, 461027, 18, 3017), stats(9345, 21020, 1404210, 56, 9340)},
}

func goldenDevice(t *testing.T, name string) *arch.Device {
	t.Helper()
	dev, err := arch.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func (gc goldenCase) name() string {
	return fmt.Sprintf("%s/n%d/i%d", gc.device, gc.numSwaps, gc.instance)
}

// generate builds the case's QUBIKOS circuit.
func (gc goldenCase) generate(t *testing.T) (*qubikos.Benchmark, *arch.Device) {
	t.Helper()
	dev := goldenDevice(t, gc.device)
	b, err := qubikos.Generate(dev, qubikos.Options{
		NumSwaps:            gc.numSwaps,
		MaxTwoQubitGates:    30,
		TargetTwoQubitGates: 30,
		PreferHighDegree:    true,
		Seed:                7 + int64(gc.numSwaps)*100_000 + int64(gc.instance),
	})
	if err != nil {
		t.Fatal(err)
	}
	return b, dev
}

func runGoldenCase(t *testing.T, gc goldenCase, opts olsq.Options, want goldenCounters) {
	t.Helper()
	b, dev := gc.generate(t)
	v, err := olsq.New(b.Circuit, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.VerifyOptimal(gc.numSwaps); err != nil {
		t.Errorf("VerifyOptimal(%d) on a new Solver: %v", gc.numSwaps, err)
	}
	if got := v.SolverStats(); got != want.verify {
		t.Errorf("VerifyOptimal counters %+v want %+v", got, want.verify)
	}
	s, err := olsq.New(b.Circuit, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	okLow, _, err := s.Decide(gc.numSwaps - 1)
	if err != nil {
		t.Fatal(err)
	}
	if okLow != gc.decideLow {
		t.Errorf("Decide(%d)=%v want %v", gc.numSwaps-1, okLow, gc.decideLow)
	}
	okAt, resAt, err := s.Decide(gc.numSwaps)
	if err != nil {
		t.Fatal(err)
	}
	if okAt != gc.decideAt {
		t.Fatalf("Decide(%d)=%v want %v", gc.numSwaps, okAt, gc.decideAt)
	}
	if resAt.SwapCount != gc.atCount {
		t.Errorf("extracted swap count %d want %d", resAt.SwapCount, gc.atCount)
	}
	if err := router.Validate(b.Circuit, dev, &resAt.Result); err != nil {
		t.Errorf("extracted witness invalid: %v", err)
	}
	res, err := s.MinSwaps(gc.numSwaps + 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.SwapCount != gc.minSwaps {
		t.Errorf("MinSwaps=%d want %d", res.SwapCount, gc.minSwaps)
	}
	if err := s.VerifyOptimal(gc.numSwaps); err != nil {
		t.Errorf("VerifyOptimal(%d): %v", gc.numSwaps, err)
	}
	if got := s.SolverStats(); got != want.sweep {
		t.Errorf("sweep counters %+v want %+v", got, want.sweep)
	}
}

func TestGoldenCorpusIncremental(t *testing.T) {
	if testing.Short() {
		t.Skip("exact golden corpus in -short mode")
	}
	for _, gc := range goldenCorpus {
		gc := gc
		t.Run(gc.name(), func(t *testing.T) { runGoldenCase(t, gc, olsq.Options{}, goldenIncremental[gc.name()]) })
	}
}

func TestGoldenCorpusPerKReencode(t *testing.T) {
	if testing.Short() {
		t.Skip("exact golden corpus in -short mode")
	}
	for _, gc := range goldenCorpus {
		gc := gc
		t.Run(gc.name(), func(t *testing.T) {
			runGoldenCase(t, gc, olsq.Options{NonIncremental: true}, goldenPerK[gc.name()])
		})
	}
}

// TestGoldenCorpusPooledSolvers runs the golden corpus on both paths
// from four goroutines at once. They share the package's SAT solver
// pool, so a solver one goroutine returns is reset and reused by
// another; every verdict and counter must still match the serial run.
func TestGoldenCorpusPooledSolvers(t *testing.T) {
	if testing.Short() {
		t.Skip("exact golden corpus in -short mode")
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < 2*len(goldenCorpus); i += workers {
				gc := goldenCorpus[i%len(goldenCorpus)]
				opts, want := olsq.Options{}, goldenIncremental[gc.name()]
				if i >= len(goldenCorpus) {
					opts, want = olsq.Options{NonIncremental: true}, goldenPerK[gc.name()]
				}
				t.Run(fmt.Sprintf("w%d/%s/nonincremental=%v", w, gc.name(), opts.NonIncremental), func(t *testing.T) {
					runGoldenCase(t, gc, opts, want)
				})
			}
		}(w)
	}
	wg.Wait()
}
