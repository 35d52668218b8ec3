package router_test

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/arch"
	"repro/internal/bmt"
	"repro/internal/circuit"
	"repro/internal/harness"
	"repro/internal/mlqls"
	"repro/internal/qmap"
	"repro/internal/router"
	"repro/internal/sabre"
	"repro/internal/tket"
)

// ctxTools is every QLS tool in the repository: the four paper tools
// and the Section III-C vf2-ts baseline. Each call returns fresh
// instances.
func ctxTools() []router.Router {
	return []router.Router{
		sabre.New(sabre.Options{Trials: 2, Seed: 3}),
		tket.New(tket.Options{Seed: 3}),
		qmap.New(qmap.Options{Seed: 3}),
		mlqls.New(mlqls.Options{Seed: 3}),
		bmt.New(bmt.Options{}),
	}
}

func conformCircuit() *circuit.Circuit {
	c := circuit.New(9)
	rng := rand.New(rand.NewSource(7))
	for len(c.Gates) < 120 {
		a, b := rng.Intn(9), rng.Intn(9)
		if a != b {
			c.MustAppend(circuit.NewCX(a, b))
		}
	}
	return c
}

func conformPrepared(t *testing.T) *router.Prepared {
	t.Helper()
	p, err := router.Prepare(conformCircuit(), arch.Grid3x3())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func resultPrint(res *router.Result) uint64 {
	h := fnv.New64a()
	for _, p := range res.InitialMapping {
		fmt.Fprintf(h, "m%d,", p)
	}
	for _, g := range res.Transpiled.Gates {
		fmt.Fprintf(h, "g%d:%d:%d;", g.Kind, g.Q0, g.Q1)
	}
	return h.Sum64()
}

func counters(r router.Router) router.Counters {
	if ins, ok := r.(router.Instrumented); ok {
		return ins.Counters()
	}
	return router.Counters{}
}

// wantCancelled fails unless a route reported context.Canceled and no
// result.
func wantCancelled(t *testing.T, res *router.Result, err error) {
	t.Helper()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("partial result escaped a cancelled route")
	}
}

// TestAllToolsImplementCtxInterfaces pins the reach of this file: the
// conformance list covers every tool the harness registers, and every
// paper tool can route from a caller-supplied mapping (the
// standalone-router study and qubikos-route -from-optimal need it).
func TestAllToolsImplementCtxInterfaces(t *testing.T) {
	listed := map[string]bool{}
	for _, r := range ctxTools() {
		listed[r.Name()] = true
		_, placed := r.(router.PlacedRouter)
		if want := r.Name() != "vf2-ts"; placed != want {
			t.Errorf("%s: PlacedRouter = %v, want %v", r.Name(), placed, want)
		}
	}
	for _, name := range harness.ToolNames() {
		if !listed[name] {
			t.Errorf("registered tool %s is missing from the conformance list", name)
		}
	}
}

// TestRouteCtxBitIdenticalWithLiveContext asserts that an armed (but
// never-fired) cancellation context changes nothing: RoutePreparedCtx
// must produce the result and the work counters of Route. Each leg uses
// a fresh instance so the counters compare per call.
func TestRouteCtxBitIdenticalWithLiveContext(t *testing.T) {
	p := conformPrepared(t)
	plain := ctxTools()
	armed := ctxTools()
	for i := range plain {
		r := plain[i]
		t.Run(r.Name(), func(t *testing.T) {
			base, err := r.Route(p.Circuit, p.Device)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			got, err := armed[i].RoutePreparedCtx(ctx, p)
			if err != nil {
				t.Fatal(err)
			}
			if got.SwapCount != base.SwapCount || resultPrint(got) != resultPrint(base) {
				t.Errorf("ctx-aware path diverged: %d swaps (plain %d), print %#x (plain %#x)",
					got.SwapCount, base.SwapCount, resultPrint(got), resultPrint(base))
			}
			if a, b := counters(armed[i]), counters(r); a != b {
				t.Errorf("work counters diverged: %+v (plain %+v)", a, b)
			}
		})
	}
}

// TestRouteCtxCancelledBeforeStart asserts every tool reports a dead
// context instead of routing, through RoutePreparedCtx and, for the
// tools that route from a fixed mapping, through RouteFrom.
func TestRouteCtxCancelledBeforeStart(t *testing.T) {
	p := conformPrepared(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range ctxTools() {
		t.Run(r.Name(), func(t *testing.T) {
			res, err := r.RoutePreparedCtx(ctx, p)
			wantCancelled(t, res, err)
			pr, ok := r.(router.PlacedRouter)
			if !ok {
				return
			}
			t.Run("RouteFrom", func(t *testing.T) {
				res, err := pr.RouteFrom(ctx, p, router.IdentityMapping(p.Circuit.NumQubits))
				wantCancelled(t, res, err)
			})
		})
	}
}

// pollCtx reports cancellation from its n-th Err call on, which cancels
// a route at a chosen poll of its loops without depending on timing.
// Its Done channel is non-nil, so CtxCheckers arm on it, but never
// closes: the tools poll Err.
type pollCtx struct {
	context.Context
	done chan struct{}
	left atomic.Int64
}

func newPollCtx(n int64) *pollCtx {
	c := &pollCtx{Context: context.Background(), done: make(chan struct{})}
	c.left.Store(n)
	return c
}

func (c *pollCtx) Done() <-chan struct{} { return c.done }

func (c *pollCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestRoutePreparedCtxCancelled cancels every tool at its n-th context
// poll over a range of n: the route must either report
// context.Canceled with no result, or finish with exactly the result
// it produces uncancelled. A ctx that fires on the first poll must
// always cancel.
func TestRoutePreparedCtxCancelled(t *testing.T) {
	p := conformPrepared(t)
	base := ctxTools()
	for i, r := range ctxTools() {
		t.Run(r.Name(), func(t *testing.T) {
			want, err := base[i].RoutePreparedCtx(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			polls := []int64{0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89}
			cancelled := 0
			for _, n := range polls {
				res, err := ctxTools()[i].RoutePreparedCtx(newPollCtx(n), p)
				switch {
				case n == 0 || err != nil:
					wantCancelled(t, res, err)
					cancelled++
				case resultPrint(res) != resultPrint(want):
					t.Errorf("ctx fired at poll %d: route finished with a result unlike the uncancelled one", n+1)
				}
			}
			t.Logf("cancelled at %d of %d poll counts", cancelled, len(polls))
		})
	}
}
