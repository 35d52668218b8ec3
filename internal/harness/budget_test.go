package harness

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/family"
	"repro/internal/mlqls"
	"repro/internal/qmap"
	"repro/internal/router"
)

// TestWorkerBudgetSeamDeterministic pins the shared worker-budget seam
// end to end: a sweep whose budget lends router-internal workers
// (ml-qls's SABRE trial pool) must aggregate exactly the cells of a
// sweep whose budget lends nothing, with a tool that never borrows
// (qmap's serial A*) routed alongside. Run under -race in CI, this is
// the data-race coverage of the harness→router borrow path.
func TestWorkerBudgetSeamDeterministic(t *testing.T) {
	items, err := GenerateItems(smallSuite())
	if err != nil {
		t.Fatal(err)
	}
	tools := []ToolSpec{
		{"qmap", func(seed int64) router.Router {
			return qmap.New(qmap.Options{MaxNodes: 2000, Seed: seed})
		}},
		{"ml-qls", func(seed int64) router.Router {
			return mlqls.New(mlqls.Options{Seed: seed})
		}},
	}
	run := func(workers int) []Cell {
		cells, err := EvaluateItemsCtx(context.Background(), family.Swaps, items,
			[]int{2, 3}, tools, EvalConfig{Seed: 5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return cells
	}
	serial := run(1)   // budget lends nothing: every router runs serially
	budgeted := run(9) // budget lends up to 8 internal workers
	if !reflect.DeepEqual(serial, budgeted) {
		t.Errorf("cells diverge between budgeted and serial sweeps:\nserial:   %+v\nbudgeted: %+v",
			serial, budgeted)
	}
}
