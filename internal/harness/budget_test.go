package harness

import (
	"context"
	"reflect"
	"runtime"
	"testing"

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
	cfg := smallSuite()
	store := openStore(t)
	st, err := store.Ensure(cfg.Manifest())
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
	// The sweep reserves one budget slot per worker out of GOMAXPROCS,
	// so a fixed GOMAXPROCS makes the lent remainder host-independent.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(9))
	run := func(workers int, key string) []Cell {
		fig, err := RunStoredEvalCtx(context.Background(), store, st, tools,
			StoredEvalOptions{Seed: 5, Workers: workers, Key: key})
		if err != nil {
			t.Fatal(err)
		}
		return fig.Cells
	}
	unlent := run(9, "lends-nothing") // nine sweep workers hold every slot
	lent := run(1, "lends-eight")     // one sweep worker lends up to 8
	if !reflect.DeepEqual(unlent, lent) {
		t.Errorf("cells diverge between budgeted and unbudgeted sweeps:\nlends nothing: %+v\nlends eight:   %+v",
			unlent, lent)
	}
}
