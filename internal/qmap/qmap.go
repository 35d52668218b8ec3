// Package qmap implements a QMAP-style heuristic mapper (Zulehner, Paler,
// Wille, TCAD 2019 — the heuristic behind MQT QMAP): the circuit is
// partitioned into layers of compatible two-qubit gates; for every layer
// an A* search over SWAP insertions finds a cheap mapping under which the
// whole layer is executable, with a one-layer discounted lookahead. Each
// layer is optimized mostly in isolation, which lets the mapping drift —
// the behaviour behind QMAP's large optimality gaps in the paper.
//
// The A* search is serial and built for throughput in the SABRE-engine
// style (see docs/performance.md). The frontier lives in the open list
// itself: a 12-byte heap entry holds a successor's f-cost, its parent's
// arena index and the swap that produces it, and the heap replicates
// container/heap's ordering exactly. Only expanded (popped) nodes enter
// the flat arena, so it never holds more than MaxNodes+1 nodes; a popped
// node's depth, heuristic and Zobrist hash derive from its parent, and
// its excess sums are recomputed from the gate distances every expansion
// needs anyway. The closed set is a reusable open-addressed hash table
// with fused key/stamp slots, and per-layer gate tables are flattened to
// one gate per qubit (ASAP layers are qubit-disjoint). Each expansion is
// a wave: successors are enumerated in canonical order, evaluated
// against the pre-wave closed-set snapshot (batched probes overlap their
// cache misses), then merged — closed-set inserts and heap pushes — in
// the same canonical order, which replays the reference engine's
// decisions exactly (pinned by TestGoldenCorpus). Cancellation is polled
// once per wave, and steady-state expansion performs zero heap
// allocations with or without a deadline armed. Engines are pooled
// across Routes and Routers, so a warm Route allocates little beyond its
// result.
package qmap

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

// Options configures the mapper.
type Options struct {
	// MaxNodes bounds the A* search per layer; when exhausted the best
	// frontier state is taken and routing continues greedily.
	MaxNodes int
	// LookaheadWeight scales the next layer's distance contribution.
	// The engine computes costs in exact quarter-unit integers, so the
	// weight is quantized to the nearest multiple of 0.25 (the default
	// 0.75 is exact).
	LookaheadWeight float64
	// Seed drives the initial placement shuffle.
	Seed int64
	// Workers is ignored: the A* runs serially on the calling goroutine.
	// The field is kept so existing callers that set it still compile.
	Workers int
	// StrongHeuristic replaces the summed-excess heuristic with the
	// admissible layer bound max(max-gate excess, ceil(sum-excess/2)) —
	// one SWAP moves two qubits, so it can cut a single gate's distance
	// by at most one and the disjoint layer's summed excess by at most
	// two — plus the usual discounted lookahead term. The tighter bound
	// prunes expansions before they reach the heap but changes search
	// order, so it is opt-in and off by default (the golden corpus pins
	// the default engine).
	StrongHeuristic bool
}

func (o Options) withDefaults() Options {
	if o.MaxNodes <= 0 {
		o.MaxNodes = 20000
	}
	if o.LookaheadWeight == 0 {
		o.LookaheadWeight = 0.75
	}
	return o
}

// Router is the QMAP-style tool. A Router keeps no search scratch: each
// Route borrows an engine from a package-level pool and returns it when
// it finishes, so building a fresh Router per cell costs nothing. Only
// the work counters are unsynchronized, plain fields; a Router must
// therefore not Route on two goroutines at once, and Counters must not
// be read while a Route is in flight. Distinct Routers are independent.
type Router struct {
	opts    Options
	initial router.Mapping // non-nil: skip placement
	stats   router.Counters
}

// Counters implements router.Instrumented: Decisions are A* node
// expansions (pops), Candidates the successor states generated,
// Restarts the per-layer searches run. The engine counts into plain
// fields that fold into the Router once per Route, so the search loop
// stays atomic-free and 0 B/op.
func (r *Router) Counters() router.Counters { return r.stats }

// New returns a QMAP-style router.
func New(opts Options) *Router { return &Router{opts: opts.withDefaults()} }

// RouteFrom implements router.PlacedRouter.
func (r *Router) RouteFrom(ctx context.Context, p *router.Prepared, initial router.Mapping) (*router.Result, error) {
	pinned := &Router{opts: r.opts, initial: router.PadMapping(initial, p.Device.NumQubits())}
	res, err := pinned.RoutePreparedCtx(ctx, p)
	r.stats.Add(pinned.stats)
	return res, err
}

// Name implements router.Router.
func (r *Router) Name() string { return "qmap" }

// Route implements router.Router.
func (r *Router) Route(c *circuit.Circuit, dev *arch.Device) (*router.Result, error) {
	return router.PrepareAndRoute(r, c, dev)
}

// RoutePreparedCtx implements router.Router. Cancellation, polled
// once per A* node expansion, cuts the per-layer A* short exactly as
// node exhaustion would; the layer loop then aborts before emitting
// anything from the truncated search, so no partial result escapes.
func (r *Router) RoutePreparedCtx(ctx context.Context, p *router.Prepared) (*router.Result, error) {
	mapping := r.placement(p)
	// The engine goes back to the pool on every return, errors included;
	// a panicking route drops it rather than recycle half-updated scratch.
	e := acquireEngine(p.Device, len(mapping))
	res, err := r.route(ctx, p, e, mapping)
	releaseEngine(e)
	return res, err
}

// placement returns a fresh copy of the starting mapping: the pinned
// one, or QMAP's seeded placement.
func (r *Router) placement(p *router.Prepared) router.Mapping {
	if r.initial != nil {
		return r.initial.Clone()
	}
	return initialPlacement(p.Skeleton, p.Device, rand.New(rand.NewSource(r.opts.Seed)))
}

// route runs the layer loop on a bound engine, moving mapping from the
// initial placement to the final layout.
func (r *Router) route(ctx context.Context, p *router.Prepared, e *engine, mapping router.Mapping) (*router.Result, error) {
	e.check.Reset(ctx)
	e.cntPops, e.cntGen = 0, 0
	initial := mapping.Clone()
	dag := p.DAG()
	layers := p.Layers()
	g := e.g
	dist := e.dist
	out := &e.out
	out.NumQubits, out.Gates = p.Skeleton.NumQubits, out.Gates[:0]
	swaps := 0

	for li, layer := range layers {
		var next []int
		if li+1 < len(layers) {
			next = layers[li+1]
		}
		seq := e.searchLayer(r.opts, mapping, layer, next, dag)
		if err := e.check.Err(); err != nil {
			return nil, fmt.Errorf("qmap: %w", err)
		}
		for _, sw := range seq {
			out.MustAppend(circuit.NewSwap(int(sw[0]), int(sw[1])))
		}
		swaps += len(seq)
		// Emit the layer's gates (now all executable).
		for _, v := range layer {
			gt := dag.Gate(v)
			if !g.HasEdge(mapping[gt.Q0], mapping[gt.Q1]) {
				// A* was truncated; finish greedily along shortest paths.
				inv := e.invert(mapping)
				for !g.HasEdge(mapping[gt.Q0], mapping[gt.Q1]) {
					p0, p1 := mapping[gt.Q0], mapping[gt.Q1]
					for _, pn := range g.Neighbors(p0) {
						if dist.At(pn, p1) < dist.At(p0, p1) {
							qn := inv[pn]
							out.MustAppend(circuit.NewSwap(gt.Q0, qn))
							swaps++
							inv[p0], inv[pn] = qn, gt.Q0
							mapping.SwapProgram(gt.Q0, qn)
							break
						}
					}
				}
			}
			out.MustAppend(gt)
		}
	}

	woven, err := router.WeaveSingleQubitGates(p.Padded, out)
	if err != nil {
		return nil, fmt.Errorf("qmap: %w", err)
	}
	r.stats.Decisions += e.cntPops
	r.stats.Candidates += e.cntGen
	r.stats.Restarts += int64(len(layers))
	return &router.Result{
		Tool:           r.Name(),
		InitialMapping: initial,
		Transpiled:     woven,
		SwapCount:      swaps,
		Trials:         1,
	}, nil
}

// astate is an expanded A* node in the flat arena. To keep expansion
// cheap on 127-qubit devices the mapping is not stored per node: each
// node records only the swap that produced it and its parent index, plus
// its heuristic and Zobrist hash. The full mapping is re-materialized by
// replaying the swap path when the node is popped.
type astate struct {
	parent int32 // arena index; -1 for the root
	swap   [2]int16
	depth  int32
	h4     int32 // heuristic at this node, in quarter units
	hash   uint64
}

// heapEntry is one open-list slot and the whole record of a generated
// but unexpanded successor: its f-cost, its parent's arena index, and
// the swap applied to the parent. Every cost is an exact multiple of
// 0.25, so f is held as an int32 in quarter units — the map f -> 4f is
// strictly monotone and exact, so ordering and ties match the reference
// float engine bit for bit.
type heapEntry struct {
	f4     int32 // 4*(depth + h), exact
	parent int32 // arena index of the expanded parent; -1 for the root
	swap   [2]int16
}

// engine owns every piece of search scratch. Engines live in a
// package-level pool and outlast any one Router: acquireEngine binds one
// to a device, rebuilding only the arrays sized by the register, and the
// arena, heap, closed set and wave buffers keep their grown capacity, so
// a warm Route allocates nothing for its search.
type engine struct {
	g    *graph.Graph
	dist *graph.DistanceMatrix
	nQ   int // program register size (== padded device size)
	nP   int // physical qubit count

	// check polls for cancellation once per expansion wave; the zero
	// value (direct engine users, background contexts) is inert.
	check router.CtxChecker

	// Work counters of the current Route: node pops and successors
	// generated.
	cntPops int64
	cntGen  int64

	zob []uint64 // Zobrist keys, (program qubit, physical qubit) pairs

	states []astate
	heap   []heapEntry
	closed u64set

	// Per-layer flattened gate tables. ASAP layers are qubit-disjoint —
	// two gates sharing a qubit are DAG-ordered into different layers —
	// so each qubit has at most one layer gate and one lookahead gate,
	// recorded per qubit and per gate index, epoch-stamped so nothing is
	// cleared between layers.
	lq0, lq1   []int32 // layer gate endpoints, by gate index
	nq0, nq1   []int32 // lookahead gate endpoints, by gate index
	qStamp     []int32 // per qubit: == layerEpoch when active this layer
	qLGate     []int32 // per qubit: its layer gate index, -1 when none
	qNGate     []int32 // per qubit: its lookahead gate index, -1 when none
	layerEpoch int32

	// Per-pop current distance of each layer / lookahead gate, shared by
	// every candidate of the wave as the "before" side of the delta.
	// Their excess sums are the popped node's excess and lookahead.
	curLD []int32
	curND []int32

	// Per-expansion candidate dedup on the program-qubit pair.
	candSeen    []int32
	expandEpoch int32

	// Wave buffers: phase 1 enumerates candidates in canonical order,
	// phase 2 fills the evaluation columns, phase 3 merges in the same
	// canonical order.
	wA, wB []int32  // normalized swap pair, a < b
	wHash  []uint64 // child Zobrist hash
	wSlot  []int32  // closed-set probe: first-empty slot, or -1 if present
	wH4    []int32  // child heuristic, quarter units

	// Strong-heuristic per-pop scratch: the three largest layer-gate
	// excesses with their gate indices (a candidate touches at most two
	// layer gates, so the max over the untouched rest is always here).
	topV [3]int32
	topI [3]int32

	// Swap-path replay scratch: the currently materialized path (swaps
	// and node indices, root-first) and the target-path staging buffer.
	m        router.Mapping
	inv      []int
	applied  [][2]int16
	appliedN []int32
	path     []int32

	// out is the two-qubit skeleton under construction; only the woven
	// circuit built from it escapes a Route.
	out circuit.Circuit
}

// engines recycles search engines across Routes and Routers. A pooled
// engine's scratch is dropped at the next GC cycles if no Route reuses
// it, so an idle process does not keep an Eagle-sized closed set alive.
var engines sync.Pool

// acquireEngine takes an engine from the pool, or makes one, and binds
// it to dev for a register of nQ program qubits.
func acquireEngine(dev *arch.Device, nQ int) *engine {
	e, _ := engines.Get().(*engine)
	if e == nil {
		e = new(engine)
	}
	e.bind(dev, nQ)
	return e
}

// releaseEngine returns e to the pool. It drops the cancellation
// context so a pooled engine does not pin it.
func releaseEngine(e *engine) {
	e.check = router.CtxChecker{}
	engines.Put(e)
}

// bind points e at dev's coupling graph and distances. The Zobrist keys
// and per-qubit arrays depend only on the register sizes, so they are
// rebuilt only when (nQ, nP) changes; a same-size device reuses them,
// since the keys are device-independent and every stamp array is
// compared against a fresh epoch.
func (e *engine) bind(dev *arch.Device, nQ int) {
	nP := dev.NumQubits()
	e.g, e.dist = dev.Graph(), dev.Distances()
	if e.zob != nil && e.nQ == nQ && e.nP == nP {
		return
	}
	e.nQ, e.nP = nQ, nP
	e.zob = zobristFor(nQ, nP)
	e.qStamp = make([]int32, nQ)
	e.qLGate = make([]int32, nQ)
	e.qNGate = make([]int32, nQ)
	e.candSeen = make([]int32, nQ*nQ)
	e.m = make(router.Mapping, nQ)
	e.inv = make([]int, nP)
	e.layerEpoch, e.expandEpoch = 0, 0
}

// nextEpoch advances an epoch counter whose stamps live in stamps. A
// pooled engine lives as long as the process, so the counter can reach
// math.MaxInt32; it then clears every stamp and restarts at 1, because
// a wrapped counter would meet stale stamps and silently skip work.
func nextEpoch(epoch *int32, stamps []int32) int32 {
	if *epoch == math.MaxInt32 {
		clear(stamps)
		*epoch = 0
	}
	*epoch++
	return *epoch
}

// invert rebuilds e.inv as the inverse of mapping and returns it.
func (e *engine) invert(mapping router.Mapping) []int {
	inv := e.inv
	for i := range inv {
		inv[i] = -1
	}
	for q, p := range mapping {
		inv[p] = q
	}
	return inv
}

// searchLayer runs A* from the start mapping to one under which every
// layer gate is executable. Candidate moves are SWAPs on coupler edges
// touching the layer's qubits. It moves start in place to the final
// mapping — on node exhaustion, the most promising expanded state — and
// returns the swap sequence as a view of engine scratch, valid until the
// next search.
//
// Each pop expands through enumerate → evaluate → merge phases. A
// generated successor exists only as its heap entry until it is popped.
func (e *engine) searchLayer(opts Options, start router.Mapping, layer, next []int, dag *circuit.DAG) [][2]int16 {
	g := e.g
	dist := e.dist
	nP := e.nP

	// Flattened per-layer gate tables (one gate per qubit per table).
	layerEpoch := nextEpoch(&e.layerEpoch, e.qStamp)
	e.lq0, e.lq1 = e.lq0[:0], e.lq1[:0]
	e.nq0, e.nq1 = e.nq0[:0], e.nq1[:0]
	mark := func(q int) {
		if e.qStamp[q] != layerEpoch {
			e.qStamp[q] = layerEpoch
			e.qLGate[q] = -1
			e.qNGate[q] = -1
		}
	}
	for gi, v := range layer {
		gt := dag.Gate(v)
		mark(gt.Q0)
		mark(gt.Q1)
		e.qLGate[gt.Q0] = int32(gi)
		e.qLGate[gt.Q1] = int32(gi)
		e.lq0 = append(e.lq0, int32(gt.Q0))
		e.lq1 = append(e.lq1, int32(gt.Q1))
	}
	for gi, v := range next {
		gt := dag.Gate(v)
		mark(gt.Q0)
		mark(gt.Q1)
		e.qNGate[gt.Q0] = int32(gi)
		e.qNGate[gt.Q1] = int32(gi)
		e.nq0 = append(e.nq0, int32(gt.Q0))
		e.nq1 = append(e.nq1, int32(gt.Q1))
	}
	nL, nN := len(e.lq0), len(e.nq0)
	e.curLD = ensureI32(e.curLD, nL)
	e.curND = ensureI32(e.curND, nN)

	if e.goal(layer, start, dag) {
		return nil
	}

	// Zobrist hash and integer excess sums of the start mapping.
	hash0 := uint64(0)
	for q, p := range start {
		hash0 ^= e.zob[q*nP+p]
	}
	rootX, rootLK, rootMax := int32(0), int32(0), int32(0)
	for gi := 0; gi < nL; gi++ {
		x := int32(dist.At(start[e.lq0[gi]], start[e.lq1[gi]]) - 1)
		rootX += x
		if x > rootMax {
			rootMax = x
		}
	}
	for gi := 0; gi < nN; gi++ {
		rootLK += int32(dist.At(start[e.nq0[gi]], start[e.nq1[gi]]) - 1)
	}

	e.states = e.states[:0]
	e.heap = e.heap[:0]
	e.closed.reset()
	// Costs are exact quarter-unit integers: a layer excess step is worth
	// 4 and a lookahead step w4 = round(4*LookaheadWeight) (3 at the 0.75
	// default, where the quantization is exact).
	w4 := int32(math.Round(4 * opts.LookaheadWeight))
	rootH4 := 4*rootX + w4*rootLK
	if opts.StrongHeuristic {
		rootH4 = strongH4(w4, rootX, rootLK, rootMax)
	}
	e.states = append(e.states, astate{parent: -1, h4: rootH4, hash: hash0})
	e.heapPush(heapEntry{f4: rootH4, parent: -1})
	e.closed.addIfAbsent(hash0)

	// Scratch mapping replayed per pop.
	m := e.m[:len(start)]
	copy(m, start)
	inv := e.invert(m)
	e.applied = e.applied[:0]
	e.appliedN = e.appliedN[:0]

	// Cancellation cuts the search short through the same exit as node
	// exhaustion: the most promising expanded state is handed back, and
	// the Route-level layer loop aborts before using it. Tick polls once
	// per wave.
	bestFrontier := int32(0)
	nodes := 0
	for len(e.heap) > 0 && nodes < opts.MaxNodes && !e.check.Tick() {
		top := e.heapPop()
		nodes++
		e.cntPops++
		// Expand the entry into an arena node (the root already is one).
		// Depth and heuristic follow from the parent and the f-cost; the
		// hash XORs the swap's four Zobrist keys into the parent's, and
		// those keys are the same before and after the swap.
		cur := int32(0)
		if top.parent >= 0 {
			cur = int32(len(e.states))
			depth := e.states[top.parent].depth + 1
			e.states = append(e.states, astate{parent: top.parent, swap: top.swap, depth: depth, h4: top.f4 - 4*depth})
		}
		e.apply(cur, m, inv)
		if top.parent >= 0 {
			a, b := int(top.swap[0]), int(top.swap[1])
			pa, pb := m[a], m[b]
			e.states[cur].hash = e.states[top.parent].hash ^ e.zob[a*nP+pa] ^ e.zob[a*nP+pb] ^ e.zob[b*nP+pb] ^ e.zob[b*nP+pa]
		}

		// The wave's shared "before" side: current gate distances, whose
		// excess sums are the node's layer excess and lookahead excess.
		curX, curLK := int32(0), int32(0)
		for gi := 0; gi < nL; gi++ {
			d := int32(dist.At(m[e.lq0[gi]], m[e.lq1[gi]]))
			e.curLD[gi] = d
			curX += d - 1
		}
		for gi := 0; gi < nN; gi++ {
			d := int32(dist.At(m[e.nq0[gi]], m[e.nq1[gi]]))
			e.curND[gi] = d
			curLK += d - 1
		}
		if curX == 0 {
			// Integer excess is exact: 0 ⇔ every layer gate at distance 1.
			copy(start, m)
			return e.applied
		}
		curH4 := e.states[cur].h4
		if curH4 < e.states[bestFrontier].h4 {
			bestFrontier = cur
		}
		if opts.StrongHeuristic {
			e.topV = [3]int32{-1, -1, -1}
			e.topI = [3]int32{-1, -1, -1}
			for gi := 0; gi < nL; gi++ {
				x := e.curLD[gi] - 1
				switch {
				case x > e.topV[0]:
					e.topV[2], e.topI[2] = e.topV[1], e.topI[1]
					e.topV[1], e.topI[1] = e.topV[0], e.topI[0]
					e.topV[0], e.topI[0] = x, int32(gi)
				case x > e.topV[1]:
					e.topV[2], e.topI[2] = e.topV[1], e.topI[1]
					e.topV[1], e.topI[1] = x, int32(gi)
				case x > e.topV[2]:
					e.topV[2], e.topI[2] = x, int32(gi)
				}
			}
		}

		// Phase 1 — enumerate: SWAPs on coupler edges touching active
		// qubits, deduplicated on the program pair, in canonical order.
		expandEpoch := nextEpoch(&e.expandEpoch, e.candSeen)
		curHash := e.states[cur].hash
		e.wA, e.wB, e.wHash = e.wA[:0], e.wB[:0], e.wHash[:0]
		for gi := 0; gi < nL; gi++ {
			for k := 0; k < 2; k++ {
				q := int(e.lq0[gi])
				if k == 1 {
					q = int(e.lq1[gi])
				}
				p := m[q]
				for _, pn := range g.Neighbors(p) {
					qn := inv[pn]
					a, b := q, qn
					if a > b {
						a, b = b, a
					}
					if e.candSeen[a*e.nQ+b] == expandEpoch {
						continue
					}
					e.candSeen[a*e.nQ+b] = expandEpoch
					pa, pb := m[a], m[b]
					nh := curHash ^ e.zob[a*nP+pa] ^ e.zob[a*nP+pb] ^ e.zob[b*nP+pb] ^ e.zob[b*nP+pa]
					e.wA = append(e.wA, int32(a))
					e.wB = append(e.wB, int32(b))
					e.wHash = append(e.wHash, nh)
				}
			}
		}
		nw := len(e.wA)
		e.cntGen += int64(nw)
		e.wSlot = ensureI32(e.wSlot, nw)
		e.wH4 = ensureI32(e.wH4, nw)

		// Phase 2 — evaluate: per-candidate work against the pre-wave
		// closed-set snapshot and the unmutated mapping.
		e.evalWave(opts, w4, nw, curH4, curX, curLK)

		// Phase 3 — merge: replay the reference engine's closed-set
		// inserts and heap pushes in canonical order. A candidate whose
		// snapshot probe missed can still lose to an earlier same-wave
		// insert of the same key; addAt resumes the probe at the cached
		// slot, which linear probing keeps exact.
		childDepth := e.states[cur].depth + 1
		grown := false
		for i := 0; i < nw; i++ {
			slot := e.wSlot[i]
			if slot < 0 {
				continue
			}
			var added bool
			if grown {
				added = e.closed.addIfAbsent(e.wHash[i])
			} else {
				added, grown = e.closed.addAt(e.wHash[i], slot)
			}
			if !added {
				continue
			}
			e.heapPush(heapEntry{
				f4:     4*childDepth + e.wH4[i],
				parent: cur,
				swap:   [2]int16{int16(e.wA[i]), int16(e.wB[i])},
			})
		}
	}
	// Exhausted: hand the most promising expanded state back; the caller
	// finishes greedily.
	e.apply(bestFrontier, m, inv)
	copy(start, m)
	return e.applied
}

// evalWave fills the evaluation columns for the wave's nw candidates:
// the closed-set snapshot probe and, for absent candidates, the child's
// heuristic. It reads only pre-wave state; the mapping is never mutated
// mid-wave.
func (e *engine) evalWave(opts Options, w4 int32, nw int, curH4, curX, curLK int32) {
	dist := e.dist
	m := e.m

	// First probe step for every candidate up front: the home-slot loads
	// are independent, so the out-of-order core overlaps their cache
	// misses instead of serializing one probe per candidate. Probes that
	// don't resolve at the home slot record where to resume (encoded as
	// ^(next slot), always <= -2) and finish below on warm lines.
	slots := e.closed.slots
	mask := len(slots) - 1
	epoch := e.closed.epoch
	for i := 0; i < nw; i++ {
		h := int(splitmix64(e.wHash[i])) & mask
		sl := slots[h]
		if sl.stamp != epoch {
			e.wSlot[i] = int32(h) // absent; home is the first empty slot
		} else if sl.key == e.wHash[i] {
			e.wSlot[i] = -1 // present
		} else {
			e.wSlot[i] = ^int32(h + 1) // resume at h+1
		}
	}

	for i := 0; i < nw; i++ {
		if s0 := e.wSlot[i]; s0 < -1 {
			// Finish the collision chain; the lines are warm now.
			j := int(^s0) & mask
			for {
				sl := slots[j]
				if sl.stamp != epoch {
					e.wSlot[i] = int32(j)
					break
				}
				if sl.key == e.wHash[i] {
					e.wSlot[i] = -1
					break
				}
				j = (j + 1) & mask
			}
		}
		if e.wSlot[i] < 0 {
			continue
		}
		a, b := int(e.wA[i]), int(e.wB[i])
		pa, pb := m[a], m[b]

		// The gates that can move: at most one layer and one lookahead
		// gate per endpoint, deduplicated when a and b share one. The
		// accumulation order (a's layer gate, a's lookahead gate, b's
		// layer gate, b's lookahead gate) and every float operation
		// replicate the reference hDelta exactly.
		gLa, gNa, gLb, gNb := int32(-1), int32(-1), int32(-1), int32(-1)
		if e.qStamp[a] == e.layerEpoch {
			gLa, gNa = e.qLGate[a], e.qNGate[a]
		}
		if e.qStamp[b] == e.layerEpoch {
			gLb, gNb = e.qLGate[b], e.qNGate[b]
		}
		if gLb >= 0 && gLb == gLa {
			gLb = -1
		}
		if gNb >= 0 && gNb == gNa {
			gNb = -1
		}

		// newPos applies the candidate swap positionally: a moves to
		// b's position and vice versa; everyone else stays put.
		newPos := func(q int) int {
			switch q {
			case a:
				return pb
			case b:
				return pa
			}
			return m[q]
		}
		dh4 := int32(0)
		dx, dl := int32(0), int32(0)
		newXa, newXb := int32(-1), int32(-1)
		if gLa >= 0 {
			nd := dist.At(newPos(int(e.lq0[gLa])), newPos(int(e.lq1[gLa])))
			di := int32(nd) - e.curLD[gLa]
			dh4 += 4 * di
			dx += di
			newXa = int32(nd - 1)
		}
		if gNa >= 0 {
			nd := dist.At(newPos(int(e.nq0[gNa])), newPos(int(e.nq1[gNa])))
			di := int32(nd) - e.curND[gNa]
			dh4 += w4 * di
			dl += di
		}
		if gLb >= 0 {
			nd := dist.At(newPos(int(e.lq0[gLb])), newPos(int(e.lq1[gLb])))
			di := int32(nd) - e.curLD[gLb]
			dh4 += 4 * di
			dx += di
			newXb = int32(nd - 1)
		}
		if gNb >= 0 {
			nd := dist.At(newPos(int(e.nq0[gNb])), newPos(int(e.nq1[gNb])))
			di := int32(nd) - e.curND[gNb]
			dh4 += w4 * di
			dl += di
		}
		if opts.StrongHeuristic {
			// Max gate excess after the swap: the best untouched gate is
			// among the pop's top three (at most two gates are touched),
			// then the touched gates' new excesses compete.
			maxG := int32(0)
			for t := 0; t < 3; t++ {
				if e.topV[t] < 0 {
					break
				}
				if e.topI[t] != gLa && e.topI[t] != gLb {
					maxG = e.topV[t]
					break
				}
			}
			if newXa > maxG {
				maxG = newXa
			}
			if newXb > maxG {
				maxG = newXb
			}
			e.wH4[i] = strongH4(w4, curX+dx, curLK+dl, maxG)
		} else {
			e.wH4[i] = curH4 + dh4
		}
	}
}

// strongH4 is the opt-in admissible layer bound plus discounted
// lookahead, in quarter units.
func strongH4(w4, sumX, lookX, maxX int32) int32 {
	h := maxX
	if c := (sumX + 1) / 2; c > h {
		h = c
	}
	return 4*h + w4*lookX
}

func (e *engine) goal(layer []int, m router.Mapping, dag *circuit.DAG) bool {
	for _, v := range layer {
		gt := dag.Gate(v)
		if !e.g.HasEdge(m[gt.Q0], m[gt.Q1]) {
			return false
		}
	}
	return true
}

// apply re-materializes target's mapping into m/inv by rewinding the
// currently applied swap path to the deepest common ancestor and
// replaying only target's divergent suffix. Successive A* pops are
// usually near-siblings, so the divergence is far shorter than the
// full path.
func (e *engine) apply(target int32, m router.Mapping, inv []int) {
	d := int(e.states[target].depth)
	if cap(e.path) < d {
		e.path = make([]int32, d)
	}
	e.path = e.path[:d]
	// Walk up from target until hitting a node that is already
	// materialized (node k of the applied path sits at appliedN[k-1]).
	lca := 0
	for n := target; ; {
		dn := int(e.states[n].depth)
		if dn == 0 {
			break
		}
		if dn <= len(e.appliedN) && e.appliedN[dn-1] == n {
			lca = dn
			break
		}
		e.path[dn-1] = n
		n = e.states[n].parent
	}
	// Rewind beyond the common prefix.
	for i := len(e.applied) - 1; i >= lca; i-- {
		sw := e.applied[i]
		pa, pb := m[sw[0]], m[sw[1]]
		m[sw[0]], m[sw[1]] = pb, pa
		inv[pa], inv[pb] = int(sw[1]), int(sw[0])
	}
	e.applied = e.applied[:lca]
	e.appliedN = e.appliedN[:lca]
	// Replay the divergent suffix.
	for i := lca; i < d; i++ {
		n := e.path[i]
		sw := e.states[n].swap
		pa, pb := m[sw[0]], m[sw[1]]
		m[sw[0]], m[sw[1]] = pb, pa
		inv[pa], inv[pb] = int(sw[1]), int(sw[0])
		e.applied = append(e.applied, sw)
		e.appliedN = append(e.appliedN, n)
	}
}

// ensureI32 returns s resized to length n, reallocating only on growth.
func ensureI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// --- open list: an index heap replicating container/heap exactly -----
//
// Comparisons are strictly-less on the quarter-unit f alone, exactly as
// the reference engine compared arena fCosts (4f is a strictly monotone,
// exact map of f), so push and pop order — including ties — does not
// depend on what else an entry carries.

func (e *engine) heapPush(x heapEntry) {
	e.heap = append(e.heap, x)
	j := len(e.heap) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(e.heap[j].f4 < e.heap[i].f4) {
			break
		}
		e.heap[i], e.heap[j] = e.heap[j], e.heap[i]
		j = i
	}
}

func (e *engine) heapPop() heapEntry {
	n := len(e.heap) - 1
	e.heap[0], e.heap[n] = e.heap[n], e.heap[0]
	e.heapDown(0, n)
	x := e.heap[n]
	e.heap = e.heap[:n]
	return x
}

func (e *engine) heapDown(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && e.heap[j2].f4 < e.heap[j1].f4 {
			j = j2 // = 2*i + 2  // right child
		}
		if !(e.heap[j].f4 < e.heap[i].f4) {
			break
		}
		e.heap[i], e.heap[j] = e.heap[j], e.heap[i]
		i = j
	}
}

// --- closed set: reusable open-addressed uint64 hash set -------------

// u64set is an open-addressed hash set of uint64 keys with epoch-based
// clearing: reset invalidates every slot in O(1), and the table only
// grows (amortized) until it fits the largest layer's search, after
// which membership tests allocate nothing. Key and epoch stamp share a
// slot, so a probe touches one cache line. The load factor is kept at
// 7/8 — probe runs get longer, but the table stays half the size and
// largely cache-resident, which wins on big searches; membership
// decisions are load-factor-independent, so pinned outputs don't move.
// Presence is tracked by the stamp, so a stored key of 0 is
// representable.
type u64set struct {
	slots []kslot
	epoch int32
	count int
}

type kslot struct {
	key   uint64
	stamp int32
}

func (s *u64set) reset() {
	if s.epoch == math.MaxInt32 {
		// Same wrap rule as nextEpoch: the stamps live in the slots.
		clear(s.slots)
		s.epoch = 0
	}
	s.epoch++
	s.count = 0
	if len(s.slots) == 0 {
		s.grow(1024)
	}
}

func (s *u64set) grow(n int) {
	old := s.slots
	s.slots = make([]kslot, n)
	for _, sl := range old {
		if sl.stamp == s.epoch {
			s.insert(sl.key)
		}
	}
}

func (s *u64set) insert(k uint64) {
	mask := len(s.slots) - 1
	i := int(splitmix64(k)) & mask
	for s.slots[i].stamp == s.epoch {
		i = (i + 1) & mask
	}
	s.slots[i] = kslot{key: k, stamp: s.epoch}
}

// probe reports whether k is present; when absent, it returns the first
// empty slot on k's probe path (a later addAt resumes there).
func (s *u64set) probe(k uint64) (int32, bool) {
	mask := len(s.slots) - 1
	i := int(splitmix64(k)) & mask
	for s.slots[i].stamp == s.epoch {
		if s.slots[i].key == k {
			return int32(i), true
		}
		i = (i + 1) & mask
	}
	return int32(i), false
}

// addAt inserts k resuming the probe at slot (a first-empty position
// previously returned by probe). Inserts that landed between the probe
// and this call sit at or after slot on k's probe path — linear probing
// never moves a key — so resuming is exact: a duplicate inserted since
// the probe is still found, and the first empty slot is still the slot
// the serial engine would have chosen. Reports whether k was inserted
// and whether the table grew (growth invalidates other cached slots).
func (s *u64set) addAt(k uint64, slot int32) (added, grew bool) {
	mask := len(s.slots) - 1
	i := int(slot)
	for s.slots[i].stamp == s.epoch {
		if s.slots[i].key == k {
			return false, false
		}
		i = (i + 1) & mask
	}
	s.slots[i] = kslot{key: k, stamp: s.epoch}
	s.count++
	if s.count*8 > len(s.slots)*7 {
		s.grow(len(s.slots) * 2)
		return true, true
	}
	return true, false
}

// addIfAbsent inserts k and reports true when it was not present.
func (s *u64set) addIfAbsent(k uint64) bool {
	added, _ := s.addAt(k, int32(int(splitmix64(k))&(len(s.slots)-1)))
	return added
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// zobristFor returns deterministic pseudo-random keys for (program qubit,
// physical qubit) pairs, used to hash mappings incrementally.
func zobristFor(nQ, nP int) []uint64 {
	out := make([]uint64, nQ*nP)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range out {
		// SplitMix64.
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		out[i] = z ^ (z >> 31)
	}
	return out
}

// initialPlacement assigns interaction-degree-sorted program qubits to
// coupling-degree-sorted physical qubits (QMAP's simple starting layout).
func initialPlacement(skeleton *circuit.Circuit, dev *arch.Device, rng *rand.Rand) router.Mapping {
	ig := skeleton.InteractionGraph()
	nQ := skeleton.NumQubits
	progs := make([]int, nQ)
	for i := range progs {
		progs[i] = i
	}
	rng.Shuffle(nQ, func(i, j int) { progs[i], progs[j] = progs[j], progs[i] })
	sort.SliceStable(progs, func(a, b int) bool { return ig.Degree(progs[a]) > ig.Degree(progs[b]) })

	g := dev.Graph()
	phys := make([]int, g.N())
	for i := range phys {
		phys[i] = i
	}
	sort.SliceStable(phys, func(a, b int) bool { return g.Degree(phys[a]) > g.Degree(phys[b]) })

	mapping := make(router.Mapping, nQ)
	for i, q := range progs {
		mapping[q] = phys[i]
	}
	return mapping
}
