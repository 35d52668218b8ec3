// Package tket implements a t|ket⟩-style qubit router (Cowtan et al.,
// "On the qubit routing problem", TQC 2019): the circuit is cut into
// timeslices of parallel two-qubit gates; while the current slice has
// unroutable gates, the router greedily applies the SWAP that most
// reduces the summed qubit distances of the current slice, with a
// discounted contribution from the following slices. Placement is a
// greedy interaction-degree embedding, mirroring t|ket⟩'s graph
// placement.
//
// The rigid slice boundary — no gate from a later slice can execute
// before the current slice completes — is the behaviour that drives
// t|ket⟩'s large optimality gap in the paper, and is reproduced here.
//
// The swap-decision loop is allocation-free in steady state, in the
// same style as the SABRE engine (see docs/performance.md): per-qubit
// gate lists and candidate dedup live in epoch-stamped scratch reused
// across decisions (and, through a package-level engine pool, across
// Routes and Routers), and each candidate swap is scored as an integer
// distance delta over the few gates touching the swapped qubits rather
// than re-summing every slice. Sums stay in integers until the final
// discount weighting, so scores — and therefore routing decisions —
// are bit-identical to the straightforward evaluation (pinned by
// TestGoldenCorpus).
package tket

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/graph"
	"repro/internal/router"
)

// Options configures the router.
type Options struct {
	// LookaheadSlices is how many upcoming slices contribute to the swap
	// score (discounted geometrically by LookaheadDiscount).
	LookaheadSlices int
	// LookaheadDiscount in (0,1] scales successive slices' contributions.
	LookaheadDiscount float64
	// Seed drives tie-breaking and the placement shuffle.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.LookaheadSlices <= 0 {
		o.LookaheadSlices = 2
	}
	if o.LookaheadDiscount == 0 {
		o.LookaheadDiscount = 0.5
	}
	return o
}

// Router is the t|ket⟩-style tool. A Router keeps no decision scratch:
// each Route borrows an engine from a package-level pool and returns it
// when it finishes, so building a fresh Router per cell costs nothing.
// Only the work counters are unsynchronized, plain fields; a Router must
// therefore not Route on two goroutines at once, and Counters must not
// be read while a Route is in flight. Distinct Routers are independent.
type Router struct {
	opts    Options
	initial router.Mapping // non-nil: skip placement
	stats   router.Counters
}

// Counters implements router.Instrumented: Decisions are swap decisions,
// Candidates the candidate SWAPs scored while making them, Restarts the
// Route calls (the tool is single-attempt).
func (r *Router) Counters() router.Counters { return r.stats }

// New returns a t|ket⟩-style router.
func New(opts Options) *Router { return &Router{opts: opts.withDefaults()} }

// RouteFrom implements router.PlacedRouter.
func (r *Router) RouteFrom(ctx context.Context, p *router.Prepared, initial router.Mapping) (*router.Result, error) {
	pinned := &Router{opts: r.opts, initial: router.PadMapping(initial, p.Device.NumQubits())}
	res, err := pinned.RoutePreparedCtx(ctx, p)
	r.stats.Add(pinned.stats)
	return res, err
}

// Name implements router.Router.
func (r *Router) Name() string { return "tket" }

// Route implements router.Router.
func (r *Router) Route(c *circuit.Circuit, dev *arch.Device) (*router.Result, error) {
	return router.PrepareAndRoute(r, c, dev)
}

// RoutePreparedCtx implements router.Router. Cancellation is polled
// once per swap decision.
func (r *Router) RoutePreparedCtx(ctx context.Context, p *router.Prepared) (*router.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("tket: %w", err)
	}
	// The engine goes back to the pool on every return, errors included;
	// a panicking route drops it rather than recycle half-updated scratch.
	e := acquireEngine(p.Device, r.opts.LookaheadSlices)
	res, err := r.route(ctx, p, e)
	releaseEngine(e)
	return res, err
}

// route runs the slice loop on a bound engine.
func (r *Router) route(ctx context.Context, p *router.Prepared, e *engine) (*router.Result, error) {
	e.check.Reset(ctx)
	rng := rand.New(rand.NewSource(r.opts.Seed))
	dag := p.DAG()
	slices := p.Layers()

	var mapping router.Mapping
	if r.initial != nil {
		mapping = r.initial.Clone()
	} else {
		mapping = place(p.Skeleton, p.Device, rng)
	}
	initial := mapping.Clone()
	lay := e.bindLayout(mapping)

	g := e.g
	dist := e.dist
	out := &e.out
	out.NumQubits, out.Gates = p.Skeleton.NumQubits, out.Gates[:0]
	swaps := 0

	for si := 0; si < len(slices); si++ {
		e.pending = append(e.pending[:0], slices[si]...)
		pending := e.pending
		for len(pending) > 0 {
			if e.check.Tick() {
				return nil, fmt.Errorf("tket: %w", e.check.Err())
			}
			// Emit everything currently executable in this slice.
			progressed := false
			rest := pending[:0]
			for _, v := range pending {
				gt := dag.Gate(v)
				if g.HasEdge(lay.m[gt.Q0], lay.m[gt.Q1]) {
					out.MustAppend(gt)
					progressed = true
				} else {
					rest = append(rest, v)
				}
			}
			pending = rest
			if len(pending) == 0 {
				break
			}
			if progressed {
				continue
			}

			// Greedy SWAP choice: candidates touch an active qubit. The
			// decision opens an epoch; base slice-distance sums and the
			// per-qubit gate lists are built once, then every candidate
			// is scored as an integer delta over the gates touching its
			// two qubits.
			e.beginDecision(pending, slices, si, dag, lay, r.opts.LookaheadSlices)
			cands := e.collectCandidates(pending, dag, lay)
			r.stats.Decisions++
			r.stats.Candidates += int64(len(cands))
			bestIdx, bestScore := -1, 0.0
			var bestDelta0 int64
			for ci := range cands {
				a, b := int(cands[ci][0]), int(cands[ci][1])
				lay.swap(a, b)
				score, d0 := e.scoreCandidate(a, b, slices, si, dag, lay, r.opts)
				lay.swap(a, b)
				if bestIdx == -1 || score < bestScore || (score == bestScore && rng.Intn(2) == 0) {
					bestIdx, bestScore, bestDelta0 = ci, score, d0
				}
			}
			if bestIdx == -1 {
				return nil, fmt.Errorf("tket: no candidate swaps for a pending slice")
			}
			// Only accept a swap that strictly improves the current-slice
			// distance (delta < 0); otherwise force progress along a
			// shortest path for the first pending gate (prevents
			// oscillation).
			if bestDelta0 >= 0 {
				v := pending[0]
				gt := dag.Gate(v)
				for !g.HasEdge(lay.m[gt.Q0], lay.m[gt.Q1]) {
					p0, p1 := lay.m[gt.Q0], lay.m[gt.Q1]
					for _, pn := range g.Neighbors(p0) {
						if dist.At(pn, p1) < dist.At(p0, p1) {
							qn := lay.inv[pn]
							out.MustAppend(circuit.NewSwap(gt.Q0, qn))
							swaps++
							lay.swap(gt.Q0, qn)
							break
						}
					}
				}
				continue
			}
			cd := cands[bestIdx]
			lay.swap(int(cd[0]), int(cd[1]))
			out.MustAppend(circuit.NewSwap(int(cd[0]), int(cd[1])))
			swaps++
		}
	}

	woven, err := router.WeaveSingleQubitGates(p.Padded, out)
	if err != nil {
		return nil, fmt.Errorf("tket: %w", err)
	}
	r.stats.Restarts++
	return &router.Result{
		Tool:           r.Name(),
		InitialMapping: initial,
		Transpiled:     woven,
		SwapCount:      swaps,
		Trials:         1,
	}, nil
}

type layout struct {
	m   router.Mapping
	inv []int
}

func (l *layout) swap(qa, qb int) {
	pa, pb := l.m[qa], l.m[qb]
	l.m[qa], l.m[qb] = pb, pa
	l.inv[pa], l.inv[pb] = qb, qa
}

// engine holds the decision loop's scratch. Everything is either
// epoch-stamped (compared against the per-decision epoch instead of
// being cleared) or length-reset with its backing array retained, so a
// steady-state swap decision performs zero heap allocations. Engines
// live in a package-level pool and outlast any one Router, so a warm
// Route allocates nothing for its decisions either.
type engine struct {
	g    *graph.Graph
	dist *graph.DistanceMatrix
	nQ   int // device qubit count == padded register size

	// check polls for cancellation once per routing iteration; the zero
	// value (direct engine users, background contexts) is inert.
	check router.CtxChecker

	// epoch increments once per swap decision.
	epoch    int32
	candSeen []int32    // program-qubit pair (a*nQ+b) -> epoch it was emitted
	cands    [][2]int32 // candidate swaps (program qubits, a < b)

	// Per-qubit lists of the gates scored this decision, as a node pool:
	// node -> (DAG gate, slice depth, distance at decision start).
	listHead  []int32 // program qubit -> head node (-1 ends), valid when listStamp == epoch
	listStamp []int32
	nodeGate  []int32
	nodeDepth []int32
	nodeOld   []int32
	nodeNext  []int32

	// base[d] is the decision-start distance sum of slice depth d
	// (0 = the pending remainder of the current slice); delta[d] is the
	// per-candidate adjustment. Sums stay integral until weighting.
	base  []int64
	delta []int64

	pending []int // current-slice worklist (backing reused across slices)

	// lay tracks the current mapping and its inverse; out is the
	// two-qubit skeleton under construction. Only the woven circuit built
	// from out escapes a Route.
	lay layout
	out circuit.Circuit
}

// engines recycles decision engines across Routes and Routers. A pooled
// engine is dropped at the next GC cycles if no Route reuses it.
var engines sync.Pool

// acquireEngine takes an engine from the pool, or makes one, and binds
// it to dev with lookahead+1 slice-depth sums.
func acquireEngine(dev *arch.Device, lookahead int) *engine {
	e, _ := engines.Get().(*engine)
	if e == nil {
		e = new(engine)
	}
	e.bind(dev, lookahead)
	return e
}

// releaseEngine returns e to the pool. It drops the cancellation
// context and the mapping so a pooled engine pins neither.
func releaseEngine(e *engine) {
	e.check = router.CtxChecker{}
	e.lay.m = nil
	engines.Put(e)
}

// bind points e at dev's coupling graph and distances. The per-qubit
// arrays depend only on the device size, so they are rebuilt only when
// it changes; a same-size device reuses them, since every stamp is
// compared against a fresh epoch.
func (e *engine) bind(dev *arch.Device, lookahead int) {
	e.g, e.dist = dev.Graph(), dev.Distances()
	if len(e.base) != lookahead+1 {
		e.base = make([]int64, lookahead+1)
		e.delta = make([]int64, lookahead+1)
	}
	nQ := dev.NumQubits()
	if e.candSeen != nil && e.nQ == nQ {
		return
	}
	e.nQ = nQ
	e.candSeen = make([]int32, nQ*nQ)
	e.listHead = make([]int32, nQ)
	e.listStamp = make([]int32, nQ)
	e.lay.inv = make([]int, nQ)
	e.epoch = 0
}

// bindLayout points e.lay at mapping, with its inverse rebuilt in the
// engine's buffer.
func (e *engine) bindLayout(mapping router.Mapping) *layout {
	inv := e.lay.inv
	for i := range inv {
		inv[i] = -1
	}
	for q, p := range mapping {
		inv[p] = q
	}
	e.lay.m = mapping
	return &e.lay
}

// beginDecision opens a new decision epoch and records the base
// distance sums and per-qubit gate lists for the pending gates and the
// lookahead slices. A pooled engine lives as long as the process, so the
// epoch can reach math.MaxInt32; it then clears both stamp arrays and
// restarts at 1, because a wrapped epoch would meet stale stamps and
// silently skip candidates.
func (e *engine) beginDecision(pending []int, slices [][]int, si int, dag *circuit.DAG, lay *layout, lookahead int) {
	if e.epoch == math.MaxInt32 {
		clear(e.candSeen)
		clear(e.listStamp)
		e.epoch = 0
	}
	e.epoch++
	for i := range e.base {
		e.base[i] = 0
	}
	e.nodeGate = e.nodeGate[:0]
	e.nodeDepth = e.nodeDepth[:0]
	e.nodeOld = e.nodeOld[:0]
	e.nodeNext = e.nodeNext[:0]
	e.addSlice(pending, 0, dag, lay)
	for d := 1; d <= lookahead && si+d < len(slices); d++ {
		e.addSlice(slices[si+d], d, dag, lay)
	}
}

func (e *engine) addSlice(gates []int, depth int, dag *circuit.DAG, lay *layout) {
	ep := e.epoch
	dist := e.dist
	for _, v := range gates {
		gt := dag.Gate(v)
		d := int64(dist.At(lay.m[gt.Q0], lay.m[gt.Q1]))
		e.base[depth] += d
		for k := 0; k < 2; k++ {
			q := gt.Q0
			if k == 1 {
				q = gt.Q1
			}
			if e.listStamp[q] != ep {
				e.listStamp[q] = ep
				e.listHead[q] = -1
			}
			node := int32(len(e.nodeGate))
			e.nodeGate = append(e.nodeGate, int32(v))
			e.nodeDepth = append(e.nodeDepth, int32(depth))
			e.nodeOld = append(e.nodeOld, int32(d))
			e.nodeNext = append(e.nodeNext, e.listHead[q])
			e.listHead[q] = node
		}
	}
}

// collectCandidates returns the program-qubit pairs of coupler edges
// touching a qubit active in the pending gates, in first-seen order.
// Dedup is an epoch stamp on the pair, not a map.
func (e *engine) collectCandidates(pending []int, dag *circuit.DAG, lay *layout) [][2]int32 {
	ep := e.epoch
	cands := e.cands[:0]
	for _, v := range pending {
		gt := dag.Gate(v)
		for k := 0; k < 2; k++ {
			q := gt.Q0
			if k == 1 {
				q = gt.Q1
			}
			for _, pn := range e.g.Neighbors(lay.m[q]) {
				qn := lay.inv[pn]
				a, b := q, qn
				if a > b {
					a, b = b, a
				}
				if e.candSeen[a*e.nQ+b] != ep {
					e.candSeen[a*e.nQ+b] = ep
					cands = append(cands, [2]int32{int32(a), int32(b)})
				}
			}
		}
	}
	e.cands = cands
	return cands
}

// scoreCandidate evaluates the discounted slice-distance score with the
// candidate swap of program qubits a and b already applied to lay. Only
// the gates in a's and b's lists can have moved; a gate on exactly
// (a, b) appears in both lists with a zero delta, so no dedup is
// needed. The weighted total replays the exact float operation order of
// the direct evaluation over the integer sums, so scores are
// bit-identical. The returned delta0 is the current-slice change — the
// strict-improvement test the caller applies.
func (e *engine) scoreCandidate(a, b int, slices [][]int, si int, dag *circuit.DAG, lay *layout, opts Options) (float64, int64) {
	ep := e.epoch
	for i := range e.delta {
		e.delta[i] = 0
	}
	dist := e.dist
	for k := 0; k < 2; k++ {
		q := a
		if k == 1 {
			q = b
		}
		if e.listStamp[q] != ep {
			continue
		}
		for node := e.listHead[q]; node != -1; node = e.nodeNext[node] {
			gt := dag.Gate(int(e.nodeGate[node]))
			nd := int64(dist.At(lay.m[gt.Q0], lay.m[gt.Q1]))
			e.delta[e.nodeDepth[node]] += nd - int64(e.nodeOld[node])
		}
	}
	total := float64(e.base[0] + e.delta[0])
	w := opts.LookaheadDiscount
	for d := 1; d <= opts.LookaheadSlices && si+d < len(slices); d++ {
		total += w * float64(e.base[d]+e.delta[d])
		w *= opts.LookaheadDiscount
	}
	return total, e.delta[0]
}

// place produces the initial mapping: program qubits in decreasing
// interaction degree are assigned BFS-outward from the device's densest
// qubit, so heavily interacting qubits cluster — a simplified version of
// t|ket⟩'s graph placement.
func place(skeleton *circuit.Circuit, dev *arch.Device, rng *rand.Rand) router.Mapping {
	ig := skeleton.InteractionGraph()
	nQ := skeleton.NumQubits
	order := make([]int, nQ)
	for i := range order {
		order[i] = i
	}
	rng.Shuffle(nQ, func(i, j int) { order[i], order[j] = order[j], order[i] })
	sort.SliceStable(order, func(a, b int) bool {
		return ig.Degree(order[a]) > ig.Degree(order[b])
	})

	// Physical qubits BFS-ordered from the maximum-degree location.
	g := dev.Graph()
	hub, best := 0, -1
	for p := 0; p < g.N(); p++ {
		if g.Degree(p) > best {
			hub, best = p, g.Degree(p)
		}
	}
	distFromHub := g.BFSFrom(hub)
	phys := make([]int, g.N())
	for i := range phys {
		phys[i] = i
	}
	sort.SliceStable(phys, func(a, b int) bool { return distFromHub[phys[a]] < distFromHub[phys[b]] })

	mapping := make(router.Mapping, nQ)
	for i, q := range order {
		mapping[q] = phys[i]
	}
	return mapping
}
