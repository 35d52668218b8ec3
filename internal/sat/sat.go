// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver from scratch, sufficient to power the OLSQ2-style exact layout
// synthesis used to verify QUBIKOS optimality. Features: two-watched-
// literal propagation with inline binary clauses, first-UIP clause
// learning with local (one-level) minimization, VSIDS-style activity
// ordering, phase saving, Luby restarts, and LBD-based learned-clause
// database reduction.
//
// The public interface speaks 1-based signed literals (+v / -v);
// internally the solver is laid out MiniSat-style for speed: literals
// are packed as 2v / 2v+1, all clause literals live in a single flat
// arena addressed by uint32 clause references (see arena.go), and both
// the assignment and the watch table are flat slices indexed by packed
// literal. The search loop performs no map lookups and — once slice
// capacities are warm — no heap allocations, which is what makes
// repeated assumption-based solving (SolveAssuming across many swap
// bounds) cheap.
package sat

import (
	"context"
	"fmt"
	"slices"
)

// Lit is a literal: +v for variable v, -v for its negation. Variable 0 is
// invalid.
type Lit int

// Var returns the literal's variable (always positive).
func (l Lit) Var() int {
	if l < 0 {
		return int(-l)
	}
	return int(l)
}

// Neg returns the complementary literal.
func (l Lit) Neg() Lit { return -l }

// Sign reports whether the literal is positive.
func (l Lit) Sign() bool { return l > 0 }

// Status is the result of a solve call.
type Status int

const (
	// Unknown means the solver stopped before reaching a verdict (budget).
	Unknown Status = iota
	// Sat means a satisfying assignment was found.
	Sat
	// Unsat means the formula is unsatisfiable (under any assumptions given).
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	}
	return "UNKNOWN"
}

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

// watcher pairs a clause reference with its blocker literal (a literal
// that, when true, lets propagation skip visiting the clause).
type watcher struct {
	c       cref
	blocker plit
}

// binTag marks the watcher of a binary clause. Its blocker is the
// clause's other literal, so propagation decides the clause from the
// watcher alone without loading it from the arena. Arena references
// stay below the tag bit (see clauseArena.alloc).
const binTag cref = 1 << 31

// Solver is a CDCL SAT solver. Create with NewSolver, add clauses with
// AddClause, then call Solve or SolveAssuming. A solver whose formula was
// proven unsatisfiable stays unsatisfiable; more clauses may still be
// added (they are absorbed trivially).
type Solver struct {
	nVars   int
	ca      clauseArena
	clauses []cref
	learnts []cref
	watches [][]watcher // indexed by packed literal

	val     []lbool // packed literal -> value; both polarities are kept
	level   []int32 // var -> decision level
	reasonC []cref  // var -> implying clause, crefUndef when none
	trail   []plit
	trailLi []int // decision-level boundaries in trail
	phase   []bool

	activity []float64
	varInc   float64
	order    varHeap

	propHead int
	unsat    bool // formula known UNSAT without assumptions

	claInc       float64
	maxLearnts   float64
	conflicts    int64
	decisions    int64
	propagations int64
	restarts     int64
	learned      int64

	// Budget caps the number of conflicts per Solve call; 0 = unlimited.
	Budget int64

	// Reusable scratch: none of these allocate once capacities are warm.
	seen      []bool
	analyzeTs []plit
	learntBuf []plit
	addBuf    []Lit
	packBuf   []plit
	assumeBuf []plit
	lbdStamp  []uint32 // level -> epoch mark for allocation-free LBD
	lbdEpoch  uint32
}

// NewSolver returns a solver with no variables or clauses.
func NewSolver() *Solver {
	s := new(Solver)
	s.Reset()
	return s
}

// Reset returns the solver to the state NewSolver gives — no variables,
// no clauses, zeroed counters and Budget — while keeping the capacity of
// every buffer: the clause arena, the watch lists and the per-variable
// tables. A reset solver searches exactly as a new one does, so solvers
// can be pooled across formulas without changing any result.
func (s *Solver) Reset() {
	*s = Solver{
		ca:         clauseArena{data: s.ca.data[:0]},
		clauses:    s.clauses[:0],
		learnts:    s.learnts[:0],
		watches:    s.watches[:0],
		val:        s.val[:0],
		level:      s.level[:0],
		reasonC:    s.reasonC[:0],
		trail:      s.trail[:0],
		trailLi:    s.trailLi[:0],
		phase:      s.phase[:0],
		activity:   s.activity[:0],
		varInc:     1.0,
		order:      varHeap{heap: s.order.heap[:0], pos: s.order.pos[:0]},
		claInc:     1.0,
		maxLearnts: 4000,
		seen:       s.seen[:0],
		analyzeTs:  s.analyzeTs[:0],
		learntBuf:  s.learntBuf[:0],
		addBuf:     s.addBuf[:0],
		packBuf:    s.packBuf[:0],
		assumeBuf:  s.assumeBuf[:0],
		lbdStamp:   s.lbdStamp[:0],
	}
	s.order.s = s
	// Index 0 is unused for variables; packed literals 0 and 1 likewise.
	s.growVar()
}

// NewVar allocates a fresh variable and returns its index (1-based).
func (s *Solver) NewVar() int {
	s.nVars++
	s.growVar()
	s.order.pushIfAbsent(s.nVars)
	return s.nVars
}

// growVar appends one variable's slot to every per-variable table. The
// appends overwrite whatever a Reset left beyond each slice's length;
// the two watch lists are truncated in place so they keep their
// capacity.
func (s *Solver) growVar() {
	s.val = append(s.val, lUndef, lUndef)
	s.level = append(s.level, 0)
	s.reasonC = append(s.reasonC, crefUndef)
	s.phase = append(s.phase, false)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.lbdStamp = append(s.lbdStamp, 0)
	s.order.pos = append(s.order.pos, -1)
	if n := len(s.watches); n+2 <= cap(s.watches) {
		s.watches = s.watches[:n+2]
		s.watches[n] = s.watches[n][:0]
		s.watches[n+1] = s.watches[n+1][:0]
	} else {
		s.watches = append(s.watches, nil, nil)
	}
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return s.nVars }

// Stats is a snapshot of the solver's search-effort counters, accumulated
// across every Solve/SolveAssuming call on the receiver.
type Stats struct {
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Restarts     int64 // Luby restarts taken
	Learned      int64 // learnt clauses added (unit learnts included)
}

// Add returns the element-wise sum of two snapshots.
func (st Stats) Add(o Stats) Stats {
	return Stats{
		Conflicts:    st.Conflicts + o.Conflicts,
		Decisions:    st.Decisions + o.Decisions,
		Propagations: st.Propagations + o.Propagations,
		Restarts:     st.Restarts + o.Restarts,
		Learned:      st.Learned + o.Learned,
	}
}

// Stats returns the counters accumulated so far.
func (s *Solver) Stats() Stats {
	return Stats{
		Conflicts:    s.conflicts,
		Decisions:    s.decisions,
		Propagations: s.propagations,
		Restarts:     s.restarts,
		Learned:      s.learned,
	}
}

// AddClause adds a disjunction of literals. Tautologies are dropped;
// duplicate literals are merged. Adding the empty clause (or a clause
// falsified at level 0) makes the formula permanently UNSAT; that is not
// an error — Solve simply reports Unsat. Errors are reserved for invalid
// input (literals over unallocated variables).
func (s *Solver) AddClause(lits ...Lit) error {
	if s.unsat {
		return nil // already unsat; absorbing
	}
	// Clauses are added at the root level; drop any leftover model state
	// from a previous Solve call.
	s.backtrackTo(0)
	// Normalize: sort, dedupe, detect tautology, drop level-0 false lits.
	ls := append(s.addBuf[:0], lits...)
	s.addBuf = ls
	for _, l := range ls {
		if v := l.Var(); v < 1 || v > s.nVars {
			return fmt.Errorf("sat: literal %d references unallocated variable", l)
		}
	}
	slices.Sort(ls)
	if s.tautology(ls) {
		return nil
	}
	out := ls[:0]
	var prev Lit
	for _, l := range ls {
		v := l.Var()
		if l == prev {
			continue
		}
		switch s.valueLit(l) {
		case lTrue:
			if s.level[v] == 0 {
				return nil // satisfied forever
			}
		case lFalse:
			if s.level[v] == 0 {
				prev = l
				continue // falsified forever; drop literal
			}
		}
		out = append(out, l)
		prev = l
	}
	// Note: callers add clauses only at level 0 (before solving), so the
	// level checks above are exact.
	switch len(out) {
	case 0:
		s.unsat = true
		return nil
	case 1:
		if !s.enqueue(packLit(out[0]), crefUndef) {
			s.unsat = true
			return nil
		}
		if s.propagate() != crefUndef {
			s.unsat = true
		}
		return nil
	}
	pk := s.packBuf[:0]
	for _, l := range out {
		pk = append(pk, packLit(l))
	}
	s.packBuf = pk
	c := s.ca.alloc(pk, false)
	s.clauses = append(s.clauses, c)
	s.attach(c)
	return nil
}

// tautology reports whether the sorted clause contains some v and -v.
// Sorting by signed value makes duplicate literals adjacent but not
// complementary ones (3, -3, 1 sorts to -3, 1, 3), so each variable is
// marked in seen, which is all false outside conflict analysis.
func (s *Solver) tautology(ls []Lit) bool {
	taut := false
	for i, l := range ls {
		if i > 0 && l == ls[i-1] {
			continue
		}
		v := l.Var()
		taut = taut || s.seen[v]
		s.seen[v] = true
	}
	for _, l := range ls {
		s.seen[l.Var()] = false
	}
	return taut
}

// attach registers the clause's first two literals in the watch table.
func (s *Solver) attach(c cref) {
	ls := s.ca.lits(c)
	l0, l1 := plit(ls[0]), plit(ls[1])
	wc := c
	if len(ls) == 2 {
		wc |= binTag
	}
	s.watches[l0.neg()] = append(s.watches[l0.neg()], watcher{wc, l1})
	s.watches[l1.neg()] = append(s.watches[l1.neg()], watcher{wc, l0})
}

func (s *Solver) valueLit(l Lit) lbool { return s.val[packLit(l)] }

func (s *Solver) valueP(p plit) lbool { return s.val[p] }

// Value returns the model value of variable v after a Sat result.
func (s *Solver) Value(v int) bool { return s.val[v<<1] == lTrue }

func (s *Solver) decisionLevel() int { return len(s.trailLi) }

func (s *Solver) enqueue(p plit, from cref) bool {
	switch s.val[p] {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	s.assign(p, int32(s.decisionLevel()), from)
	return true
}

// assign makes the unassigned literal p true at the given level.
func (s *Solver) assign(p plit, level int32, from cref) {
	v := p.varIdx()
	s.val[p] = lTrue
	s.val[p.neg()] = lFalse
	s.level[v] = level
	s.reasonC[v] = from
	s.phase[v] = p.pos()
	s.trail = append(s.trail, p)
}

// propagate runs unit propagation; returns the conflicting clause or
// crefUndef. The inner loop touches only flat slices: no maps, no
// per-clause pointers, no allocations beyond amortized watch-list growth.
//
// Binary clauses never leave the watcher: a true blocker skips the
// clause, an unassigned one is implied and a false one is a conflict.
// Unlike a long clause, a binary reason is therefore not reordered to
// put its implied literal first (analyze skips it by variable). A
// binary conflict is written to the arena as (other, falsified), the
// order a long conflicting clause is left in, because conflict analysis
// visits the literals in arena order.
func (s *Solver) propagate() cref {
	val := s.val
	level := int32(s.decisionLevel())
	for s.propHead < len(s.trail) {
		p := s.trail[s.propHead]
		s.propHead++
		s.propagations++
		np := p.neg() // the literal that just became false
		ws := s.watches[p]
		j := 0
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if val[w.blocker] == lTrue {
				ws[j] = w
				j++
				continue
			}
			if w.c&binTag != 0 {
				ws[j] = w
				j++
				c := w.c &^ binTag
				if val[w.blocker] == lFalse {
					ls := s.ca.lits(c)
					ls[0], ls[1] = uint32(w.blocker), uint32(np)
					s.watches[p] = ws[:j+copy(ws[j:], ws[i+1:])]
					s.propHead = len(s.trail)
					return c
				}
				s.assign(w.blocker, level, c)
				continue
			}
			c := w.c
			ls := s.ca.lits(c)
			// Ensure ls[0] is the other watched literal.
			if plit(ls[0]) == np {
				ls[0], ls[1] = ls[1], ls[0]
			}
			first := plit(ls[0])
			if first != w.blocker && val[first] == lTrue {
				ws[j] = watcher{c, first}
				j++
				continue
			}
			// Find a new literal to watch.
			found := false
			for k := 2; k < len(ls); k++ {
				if val[ls[k]] != lFalse {
					ls[1], ls[k] = ls[k], ls[1]
					nw := plit(ls[1]).neg()
					s.watches[nw] = append(s.watches[nw], watcher{c, first})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			ws[j] = watcher{c, first}
			j++
			if val[first] == lFalse {
				// Conflict: keep the remaining watchers and bail.
				s.watches[p] = ws[:j+copy(ws[j:], ws[i+1:])]
				s.propHead = len(s.trail)
				return c
			}
			s.assign(first, level, c)
		}
		s.watches[p] = ws[:j]
	}
	return crefUndef
}

// analyze performs first-UIP conflict analysis, returning the learned
// clause (with the asserting literal first) and the backtrack level. The
// returned slice aliases an internal buffer valid until the next call.
func (s *Solver) analyze(confl cref) ([]plit, int) {
	learnt := append(s.learntBuf[:0], 0) // placeholder for asserting literal
	counter := 0
	var p plit
	idx := len(s.trail) - 1
	s.analyzeTs = s.analyzeTs[:0]

	c := confl
	for {
		if s.ca.learned(c) {
			s.bumpClause(c)
		}
		// A reason clause's implied literal is p, skipped by variable:
		// binary reasons are not reordered to put it first. The conflict
		// clause (p == 0) has no implied literal, and no literal on
		// variable 0.
		pv := p.varIdx()
		for _, qw := range s.ca.lits(c) {
			q := plit(qw)
			v := q.varIdx()
			if v == pv || s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.analyzeTs = append(s.analyzeTs, q)
			s.bumpVar(v)
			if int(s.level[v]) == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find the next literal on the trail that is marked seen.
		for !s.seen[s.trail[idx].varIdx()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.varIdx()
		s.seen[v] = false
		counter--
		if counter == 0 {
			break
		}
		c = s.reasonC[v]
	}
	learnt[0] = p.neg()

	// Clause minimization: drop literals implied by the rest.
	minimized := learnt[:1]
	for _, q := range learnt[1:] {
		if !s.redundant(q) {
			minimized = append(minimized, q)
		}
	}
	learnt = minimized
	s.learntBuf = learnt

	// Compute backtrack level = second-highest level in the clause.
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].varIdx()] > s.level[learnt[maxI].varIdx()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.level[learnt[1].varIdx()])
	}
	// Clear seen flags.
	for _, q := range s.analyzeTs {
		s.seen[q.varIdx()] = false
	}
	return learnt, btLevel
}

// redundant reports whether literal q in a learned clause is implied by
// the others. The check is local, one level deep: q's reason exists and
// all its other literals are already seen or at level 0. (MiniSat's
// recursive minimization would drop more literals and so learn
// different clauses.)
func (s *Solver) redundant(q plit) bool {
	v := q.varIdx()
	r := s.reasonC[v]
	if r == crefUndef {
		return false
	}
	for _, lw := range s.ca.lits(r) {
		lv := plit(lw).varIdx()
		if lv == v {
			continue
		}
		if !s.seen[lv] && s.level[lv] != 0 {
			return false
		}
	}
	return true
}

func (s *Solver) backtrackTo(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLi[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		p := s.trail[i]
		v := p.varIdx()
		s.val[p], s.val[p.neg()] = lUndef, lUndef
		s.reasonC[v] = crefUndef
		s.order.pushIfAbsent(v)
	}
	s.trail = s.trail[:bound]
	s.trailLi = s.trailLi[:level]
	s.propHead = len(s.trail)
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := 1; i <= s.nVars; i++ {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) decayVar() { s.varInc /= 0.95 }

func (s *Solver) bumpClause(c cref) {
	na := s.ca.act(c) + float32(s.claInc)
	s.ca.setAct(c, na)
	if na > 1e20 {
		for _, l := range s.learnts {
			s.ca.setAct(l, s.ca.act(l)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

// computeLBD counts distinct decision levels via an epoch-stamped level
// mark (no map, no allocation).
func (s *Solver) computeLBD(lits []plit) int {
	s.lbdEpoch++
	n := 0
	for _, l := range lits {
		lv := s.level[l.varIdx()]
		if s.lbdStamp[lv] != s.lbdEpoch {
			s.lbdStamp[lv] = s.lbdEpoch
			n++
		}
	}
	return n
}

// reduceDB removes roughly half of the learned clauses, keeping low-LBD
// (glue) and recently active ones. Clauses currently acting as reasons are
// locked via a header bit.
func (s *Solver) reduceDB() {
	for _, p := range s.trail {
		if r := s.reasonC[p.varIdx()]; r != crefUndef {
			s.ca.data[r] |= hdrLocked
		}
	}
	slices.SortFunc(s.learnts, func(a, b cref) int {
		ga, gb := s.ca.lbd(a) <= 2, s.ca.lbd(b) <= 2
		if ga != gb {
			if ga {
				return -1
			}
			return 1
		}
		switch aa, ba := s.ca.act(a), s.ca.act(b); {
		case aa > ba:
			return -1
		case aa < ba:
			return 1
		}
		return 0
	})
	keep := s.learnts[:0]
	limit := len(s.learnts) / 2
	for i, c := range s.learnts {
		if i < limit || s.ca.data[c]&hdrLocked != 0 || s.ca.lbd(c) <= 2 {
			keep = append(keep, c)
		} else {
			s.detach(c)
			s.ca.free(c)
		}
	}
	s.learnts = keep
	for _, p := range s.trail {
		if r := s.reasonC[p.varIdx()]; r != crefUndef {
			s.ca.data[r] &^= hdrLocked
		}
	}
	// Compact the arena once deleted clauses waste a third of it.
	if 3*s.ca.wasted > len(s.ca.data) {
		s.garbageCollect()
	}
}

func (s *Solver) detach(c cref) {
	ls := s.ca.lits(c)
	s.removeWatch(plit(ls[0]).neg(), c)
	s.removeWatch(plit(ls[1]).neg(), c)
}

func (s *Solver) removeWatch(w plit, c cref) {
	ws := s.watches[w]
	out := ws[:0]
	for _, x := range ws {
		if x.c&^binTag != c {
			out = append(out, x)
		}
	}
	s.watches[w] = out
}

// garbageCollect compacts the clause arena, dropping deleted clauses and
// rewriting every live reference (problem/learned lists, reasons,
// watchers). Triggered deterministically from reduceDB, so solver runs
// stay reproducible.
func (s *Solver) garbageCollect() {
	to := clauseArena{data: make([]uint32, 0, len(s.ca.data)-s.ca.wasted)}
	move := func(c cref) cref {
		if s.ca.data[c]&hdrMoved != 0 {
			return cref(s.ca.data[c+1])
		}
		w := s.ca.words(c)
		nc := cref(len(to.data))
		to.data = append(to.data, s.ca.data[c:int(c)+w]...)
		to.data[nc] &^= hdrMoved | hdrLocked
		s.ca.data[c] |= hdrMoved
		s.ca.data[c+1] = uint32(nc)
		return nc
	}
	for i, c := range s.clauses {
		s.clauses[i] = move(c)
	}
	for i, c := range s.learnts {
		s.learnts[i] = move(c)
	}
	for _, p := range s.trail {
		if v := p.varIdx(); s.reasonC[v] != crefUndef {
			s.reasonC[v] = move(s.reasonC[v])
		}
	}
	for i := range s.watches {
		ws := s.watches[i]
		for j := range ws {
			ws[j].c = move(ws[j].c&^binTag) | ws[j].c&binTag
		}
	}
	s.ca = to
}

// luby returns the Luby restart sequence value for index i (1-based).
func luby(i int64) int64 {
	// Find the subsequence containing i.
	var k int64 = 1
	for (1<<uint(k))-1 < i {
		k++
	}
	for {
		if (1<<uint(k))-1 == i {
			return 1 << uint(k-1)
		}
		i = i - (1 << uint(k-1)) + 1
		k = 1
		for (1<<uint(k))-1 < i {
			k++
		}
	}
}

// ctxCheckConflicts is how many conflicts pass between context polls in
// a cancellable solve. A conflict costs microseconds (propagation +
// analysis + backtracking), so polling every 1024 keeps cancellation
// latency in the low milliseconds while adding one masked-counter
// branch per conflict.
const ctxCheckConflicts = 1024

// Solve decides the formula with no assumptions.
func (s *Solver) Solve() Status { return s.SolveAssuming(nil) }

// SolveCtx is Solve under a cancellation context: see SolveAssumingCtx.
func (s *Solver) SolveCtx(ctx context.Context) Status { return s.SolveAssumingCtx(ctx, nil) }

// SolveAssumingCtx is SolveAssuming under a cancellation context. Once
// ctx is done the search stops at the next conflict poll and Unknown is
// returned — the same verdict as conflict-budget exhaustion, and
// equally sound: the solver's learned state stays valid for later
// calls. Callers distinguish cancellation from budget exhaustion by
// checking ctx.Err(). An uncancellable context adds no work to the
// search loop.
func (s *Solver) SolveAssumingCtx(ctx context.Context, assumptions []Lit) Status {
	done := ctx.Done()
	if done != nil {
		select {
		case <-done:
			return Unknown
		default:
		}
	}
	return s.solveAssuming(done, assumptions)
}

// SolveAssuming decides the formula under the given assumption literals.
// The assumptions behave like temporary unit clauses: Unsat means the
// formula plus assumptions is unsatisfiable (the base formula may still be
// satisfiable under other assumptions). Repeated calls reuse the solver's
// learned clauses and activity state, which is what makes the OLSQ
// bound sweep incremental.
func (s *Solver) SolveAssuming(assumptions []Lit) Status {
	return s.solveAssuming(nil, assumptions)
}

func (s *Solver) solveAssuming(done <-chan struct{}, assumptions []Lit) Status {
	if s.unsat {
		return Unsat
	}
	asm := s.assumeBuf[:0]
	for _, a := range assumptions {
		if v := a.Var(); v < 1 || v > s.nVars {
			panic(fmt.Sprintf("sat: assumption %d references unallocated variable", a))
		}
		asm = append(asm, packLit(a))
	}
	s.assumeBuf = asm
	s.backtrackTo(0)
	if s.propagate() != crefUndef {
		s.unsat = true
		return Unsat
	}

	var restartNum int64 = 1
	conflictsAtStart := s.conflicts
	conflictBudget := luby(restartNum) * 100

	for {
		confl := s.propagate()
		if confl != crefUndef {
			s.conflicts++
			if s.decisionLevel() == 0 {
				s.unsat = true
				return Unsat
			}
			// If the conflict depends only on assumption decisions we
			// still learn and backtrack; when backtracking pops an
			// assumption we detect failure at re-assumption below.
			learnt, btLevel := s.analyze(confl)
			s.backtrackTo(btLevel)
			s.learned++
			if len(learnt) == 1 {
				if !s.enqueue(learnt[0], crefUndef) {
					s.unsat = true
					return Unsat
				}
			} else {
				c := s.ca.alloc(learnt, true)
				s.ca.setLBD(c, s.computeLBD(learnt))
				s.learnts = append(s.learnts, c)
				s.attach(c)
				s.bumpClause(c)
				if !s.enqueue(learnt[0], c) {
					panic("sat: asserting literal not enqueueable") // unreachable
				}
			}
			s.decayVar()
			if int64(len(s.learnts)) > int64(s.maxLearnts) {
				s.reduceDB()
				s.maxLearnts *= 1.3
			}
			if s.Budget > 0 && s.conflicts-conflictsAtStart >= s.Budget {
				s.backtrackTo(0)
				return Unknown
			}
			if done != nil && (s.conflicts-conflictsAtStart)%ctxCheckConflicts == 0 {
				select {
				case <-done:
					s.backtrackTo(0)
					return Unknown
				default:
				}
			}
			if s.conflicts-conflictsAtStart >= conflictBudget {
				// Luby restart.
				s.restarts++
				restartNum++
				conflictBudget = s.conflicts - conflictsAtStart + luby(restartNum)*100
				s.backtrackTo(0)
			}
			continue
		}

		// Re-establish assumptions that are not yet on the trail.
		allAssumed := true
		failed := false
		for _, a := range asm {
			switch s.valueP(a) {
			case lTrue:
				continue
			case lFalse:
				failed = true
			default:
				s.trailLi = append(s.trailLi, len(s.trail))
				if !s.enqueue(a, crefUndef) {
					failed = true
				}
				allAssumed = false
			}
			break
		}
		if failed {
			s.backtrackTo(0)
			return Unsat
		}
		if !allAssumed {
			continue
		}

		// Pick a branching variable.
		v := s.pickBranchVar()
		if v == 0 {
			return Sat
		}
		s.decisions++
		s.trailLi = append(s.trailLi, len(s.trail))
		p := plit(v << 1)
		if !s.phase[v] {
			p |= 1
		}
		if !s.enqueue(p, crefUndef) {
			panic("sat: decision enqueue failed") // unreachable
		}
	}
}

func (s *Solver) pickBranchVar() int {
	for {
		v := s.order.pop()
		if v == 0 {
			return 0
		}
		if s.val[v<<1] == lUndef {
			return v
		}
	}
}

// varHeap is a max-heap of variables ordered by activity. pos holds each
// variable's heap index (-1 when absent), so membership checks — needed
// every time backtracking re-inserts variables — are O(1) array reads
// and the heap can never accumulate duplicates. Sifting moves a hole
// rather than swapping pairs; the comparisons, and so the resulting
// array, are those of the swapping version.
type varHeap struct {
	s    *Solver
	heap []int32
	pos  []int32 // var -> heap index, -1 when absent
}

func (h *varHeap) inHeap(v int) bool { return h.pos[v] >= 0 }

// pushIfAbsent inserts v unless it is already queued.
func (h *varHeap) pushIfAbsent(v int) {
	if h.pos[v] >= 0 {
		return
	}
	h.heap = append(h.heap, int32(v))
	h.pos[v] = int32(len(h.heap) - 1)
	h.up(len(h.heap) - 1)
}

func (h *varHeap) pop() int {
	if len(h.heap) == 0 {
		return 0
	}
	top := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.pos[h.heap[0]] = 0
	h.heap = h.heap[:last]
	h.pos[top] = -1
	if len(h.heap) > 0 {
		h.down(0)
	}
	return int(top)
}

// update restores the heap after v's activity was raised. A bump only
// raises activity (rescaling multiplies every activity alike), so v can
// only move up.
func (h *varHeap) update(v int) {
	if i := h.pos[v]; i >= 0 {
		h.up(int(i))
	}
}

func (h *varHeap) up(i int) {
	act := h.s.activity
	v := h.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !(act[v] > act[h.heap[p]]) {
			break
		}
		h.heap[i] = h.heap[p]
		h.pos[h.heap[i]] = int32(i)
		i = p
	}
	h.heap[i] = v
	h.pos[v] = int32(i)
}

func (h *varHeap) down(i int) {
	act := h.s.activity
	v := h.heap[i]
	n := len(h.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && act[h.heap[r]] > act[h.heap[c]] {
			c = r
		}
		if !(act[h.heap[c]] > act[v]) {
			break
		}
		h.heap[i] = h.heap[c]
		h.pos[h.heap[i]] = int32(i)
		i = c
	}
	h.heap[i] = v
	h.pos[v] = int32(i)
}
