package harness

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/family"
)

func smallSuite() SuiteConfig {
	return SuiteConfig{
		Device:              arch.RigettiAspen4(),
		SwapCounts:          []int{2, 3},
		CircuitsPerCount:    2,
		TargetTwoQubitGates: 60,
		Seed:                1,
		Verify:              true,
	}
}

func TestGenerateSuiteDeterministic(t *testing.T) {
	a, err := GenerateSuite(smallSuite())
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateSuite(smallSuite())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 4 || len(b) != 4 {
		t.Fatalf("suite sizes %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Circuit.NumGates() != b[i].Circuit.NumGates() {
			t.Fatal("suite not deterministic")
		}
	}
}

func TestAbstractGapsAndDeviceGaps(t *testing.T) {
	fig := pinnedFigure(t, "figure_swaps.json")
	gaps := AbstractGaps([]*Figure{fig})
	if len(gaps) != 4 {
		t.Fatalf("gaps=%d want 4 tools", len(gaps))
	}
	for _, g := range gaps {
		if g.MeanRatio < 1 {
			t.Errorf("%s mean %.2f < 1", g.Tool, g.MeanRatio)
		}
	}
	dg := DeviceGaps([]*Figure{fig})
	if len(dg) != 1 || dg[0].Device != "aspen4" {
		t.Fatalf("device gaps: %+v", dg)
	}
	if dg[0].BestRatio < 1 {
		t.Error("best ratio below 1")
	}
}

func TestRenderers(t *testing.T) {
	fig := pinnedFigure(t, "figure_swaps.json")
	var sb strings.Builder
	RenderFigure(&sb, fig)
	if !strings.Contains(sb.String(), "lightsabre") {
		t.Error("table missing tool name")
	}
	sb.Reset()
	RenderFigureCSV(&sb, fig)
	if !strings.Contains(sb.String(), "device,tool,metric,optimal") {
		t.Error("CSV header missing")
	}
	lines := strings.Count(sb.String(), "\n")
	if lines != 1+len(fig.Cells) {
		t.Errorf("CSV lines=%d want %d", lines, 1+len(fig.Cells))
	}
	if s := Summary([]*Figure{fig}); !strings.Contains(s, "Best-tool gap per device") {
		t.Error("summary missing device trend section")
	}
	// Depth rows must be labeled in both renderings.
	depth := pinnedFigure(t, "figure_depth.json")
	sb.Reset()
	RenderFigure(&sb, depth)
	if !strings.Contains(sb.String(), "depth") {
		t.Error("text table missing the depth metric label")
	}
	sb.Reset()
	RenderFigureCSV(&sb, depth)
	if !strings.Contains(sb.String(), ",depth,") {
		t.Error("CSV rows missing the depth metric label")
	}
}

func TestOptimalityStudySmall(t *testing.T) {
	if testing.Short() {
		t.Skip("SAT study in -short mode")
	}
	cfg := DefaultOptimalityConfig(2, 5)
	cfg.SwapCounts = []int{1, 2}
	rows, err := RunOptimalityStudyCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 2 devices x 2 counts
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		if r.Deviation != 0 {
			t.Errorf("%s n=%d: %d deviations — generator optimality broken", r.Device, r.OptSwaps, r.Deviation)
		}
		if r.Verified != r.Circuits {
			t.Errorf("%s n=%d: verified %d of %d", r.Device, r.OptSwaps, r.Verified, r.Circuits)
		}
	}
	var sb strings.Builder
	RenderOptimality(&sb, rows)
	if !strings.Contains(sb.String(), "grid-3x3") && !strings.Contains(sb.String(), "grid") {
		t.Error("optimality table missing grid device")
	}
}

// The certification worker pool must reproduce the serial rows exactly
// for any worker count (also exercised with -race in CI).
func TestOptimalityStudyParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("SAT study in -short mode")
	}
	cfg := DefaultOptimalityConfig(2, 5)
	cfg.SwapCounts = []int{1, 2}
	cfg.Workers = 1
	serial, err := RunOptimalityStudyCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 16} {
		cfg.Workers = workers
		parallel, err := RunOptimalityStudyCtx(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("workers=%d rows differ:\nserial:   %+v\nparallel: %+v", workers, serial, parallel)
		}
	}
}

// A cancelled study returns the cancellation cause, never a partial
// table.
func TestOptimalityStudyCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rows, err := RunOptimalityStudyCtx(ctx, DefaultOptimalityConfig(2, 5))
	if !errors.Is(err, context.Canceled) || rows != nil {
		t.Fatalf("rows=%v err=%v, want context.Canceled and no rows", rows, err)
	}
}

func TestCaseStudyRuns(t *testing.T) {
	cfg := DefaultCaseStudyConfig()
	cfg.Instances = 3
	cfg.TargetTwoQubitGates = 120
	cfg.DecaySweep = []float64{0, 0.8}
	res, err := RunCaseStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instances != 3 {
		t.Fatalf("instances=%d", res.Instances)
	}
	if res.MeanRatio < 1 {
		t.Errorf("mean ratio %.2f < 1", res.MeanRatio)
	}
	if len(res.DecayLines) != 2 {
		t.Fatalf("decay lines=%d", len(res.DecayLines))
	}
	var sb strings.Builder
	RenderCaseStudy(&sb, res)
	if !strings.Contains(sb.String(), "lookahead-decay ablation") {
		t.Error("case study rendering incomplete")
	}
}

func TestPaperSuitesConfiguration(t *testing.T) {
	suites := PaperSuites(10, 1)
	if len(suites) != 4 {
		t.Fatalf("suites=%d", len(suites))
	}
	wantGates := map[string]int{"aspen4": 300, "sycamore54": 1500, "rochester53": 1500, "eagle127": 3000}
	for _, s := range suites {
		if want := wantGates[s.Device.Name()]; s.TargetTwoQubitGates != want {
			t.Errorf("%s gates=%d want %d", s.Device.Name(), s.TargetTwoQubitGates, want)
		}
		if len(s.SwapCounts) != 4 || s.SwapCounts[0] != 5 || s.SwapCounts[3] != 20 {
			t.Errorf("%s swap counts %v", s.Device.Name(), s.SwapCounts)
		}
	}
}

func TestSectionIIIC(t *testing.T) {
	res, err := RunSectionIIIC(arch.RigettiAspen4(), 4, 120, 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows=%d", len(res.Rows))
	}
	if res.MinSegments < 5 { // OptSwaps+1
		t.Errorf("min segments %d, want >= 5 (one boundary per special)", res.MinSegments)
	}
	if res.MeanRatio < 1 {
		t.Errorf("mean ratio %.2f < 1", res.MeanRatio)
	}
	var sb strings.Builder
	RenderSectionIIIC(&sb, res)
	if !strings.Contains(sb.String(), "Section III-C") {
		t.Error("render header missing")
	}
}

// smallDepthSuite mirrors smallSuite for the depth-objective family.
func smallDepthSuite() SuiteConfig {
	return SuiteConfig{
		Device:              arch.RigettiAspen4(),
		Family:              family.QuekoDepthID,
		SwapCounts:          []int{4, 6}, // known-optimal routed depths
		CircuitsPerCount:    2,
		TargetTwoQubitGates: 40,
		Seed:                1,
		Verify:              true,
	}
}

// SelectTools must reject unknown names with the registry listed, and
// resolve known subsets in the given order.
func TestSelectTools(t *testing.T) {
	all, err := SelectTools("", 2)
	if err != nil || len(all) != 4 {
		t.Fatalf("empty selection: %v, %d tools", err, len(all))
	}
	sub, err := SelectTools(" tket , lightsabre ", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 2 || sub[0].Name != "tket" || sub[1].Name != "lightsabre" {
		t.Fatalf("subset = %+v", sub)
	}
	_, err = SelectTools("lightsabre,warpdrive", 2)
	if err == nil {
		t.Fatal("unknown tool accepted")
	}
	for _, name := range ToolNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list registered tool %s", err, name)
		}
	}
}
