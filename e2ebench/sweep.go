package main

import (
	"context"
	"fmt"
	"maps"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/family"
	"repro/internal/harness"
	"repro/internal/pool"
	"repro/internal/qmap"
	"repro/internal/router"
	"repro/internal/suite"
)

// sabreTrials is LightSABRE's restart budget on both sweeps.
const sabreTrials = 8

// sweepSpec is one Figure-4 sweep: a stored suite and the sweep's worker
// count. An operation is one routed and validated (tool, instance) cell.
type sweepSpec struct {
	device   string
	gates    int
	swaps    []int
	perCount int
	workers  int
	// pool is how many distinct suites the seeds choose among. A fixed
	// pool lets one golden file hold every seed's results, and keeps runs
	// comparable: routing cost differs from suite to suite.
	pool int
	// gang measures QMAP's expansion gang in traced runs.
	gang bool
}

// memberSeed is the generation and routing seed of a pool member. The
// stride keeps the members' instance seeds (manifest seed plus instance
// index) apart.
func memberSeed(member int) int64 { return 1000 * int64(member+1) }

// poolMember is the pool member a run's seed chooses.
func poolMember(seed int64, pool int) int { return int((seed%int64(pool) + int64(pool)) % int64(pool)) }

// setupSweepEagle is Figure 4(d): the most expensive figure, where the
// router kernels and their internal parallelism dominate.
func setupSweepEagle(ctx context.Context, dir string, seed int64) (session, error) {
	return setupSweep(ctx, dir, poolMember(seed, eagleSpec().pool), eagleSpec())
}

func eagleSpec() sweepSpec {
	return sweepSpec{
		device: "eagle127", gates: 3000, swaps: []int{5, 10}, perCount: 3, workers: 1, pool: 4, gang: true,
	}
}

func pinSweepEagle(ctx context.Context, dir string) (golden, error) {
	return pinSweep(ctx, dir, eagleSpec())
}

// setupSweepAspen is Figure 4(a) over many instances: cells are cheap, so
// the per-cell path around the tools is a large share of the run.
func setupSweepAspen(ctx context.Context, dir string, seed int64) (session, error) {
	return setupSweep(ctx, dir, poolMember(seed, aspenSpec().pool), aspenSpec())
}

func aspenSpec() sweepSpec {
	return sweepSpec{
		device: "aspen4", gates: 300, swaps: []int{5, 10, 15, 20}, perCount: 25, workers: runtime.GOMAXPROCS(0), pool: 8,
	}
}

func pinSweepAspen(ctx context.Context, dir string) (golden, error) {
	return pinSweep(ctx, dir, aspenSpec())
}

// pinSweep sweeps every pool member once and returns their results.
func pinSweep(ctx context.Context, dir string, spec sweepSpec) (golden, error) {
	all := golden{}
	for m := 0; m < spec.pool; m++ {
		s, err := setupSweep(ctx, filepath.Join(dir, fmt.Sprint(m)), m, spec)
		if err != nil {
			return nil, err
		}
		_, fails, err := s.(*sweepSession).pass(ctx, nil)
		if err == nil && len(fails) > 0 {
			err = fmt.Errorf("%s", strings.Join(fails, "; "))
		}
		if err != nil {
			return nil, fmt.Errorf("member %d: %w", m, err)
		}
		_, g, err := s.results()
		if err != nil {
			return nil, err
		}
		maps.Copy(all, g)
	}
	return all, nil
}

type sweepSession struct {
	spec     sweepSpec
	member   int
	seed     int64
	dir      string
	store    *suite.Store
	manifest suite.Manifest
	st       *suite.Suite
	passes   int

	// The pass in flight: the routers the harness built, and in traced
	// passes the results they returned, for the validate replay.
	mu     sync.Mutex
	made   []madeRouter
	routed []routed

	swaps        map[string]int     // tool/instance → SWAPs, checked across passes
	ratios       map[string]float64 // tool/instance → ratio to the proven optimum
	work         map[string]router.Counters
	tracedPasses int
}

type madeRouter struct {
	tool string
	r    router.Router
}

type routed struct {
	p   *router.Prepared
	res *router.Result
}

func setupSweep(ctx context.Context, dir string, member int, spec sweepSpec) (session, error) {
	seed := memberSeed(member)
	store, err := suite.Open(filepath.Join(dir, "store"), suite.StoreOptions{})
	if err != nil {
		return nil, err
	}
	m := suite.NewManifest(spec.device, spec.swaps, spec.perCount, family.Options{TargetTwoQubitGates: spec.gates, Seed: seed})
	st, err := store.EnsureCtx(ctx, m)
	if err != nil {
		return nil, err
	}
	if st.Cached {
		return nil, fmt.Errorf("fresh store root %s already held suite %s", store.Root(), st.Hash)
	}
	s := &sweepSession{spec: spec, member: member, seed: seed, dir: dir, store: store, manifest: m, st: st,
		swaps: map[string]int{}, ratios: map[string]float64{}}
	return s, nil
}

// toolSpecs wraps the default tools' constructors to keep each router the
// harness builds, so its work counters can be read after the pass. In a
// traced pass the router is also wrapped in a span-recording shell.
func (s *sweepSession) toolSpecs(tr *tracer, parent int64, req string) []harness.ToolSpec {
	specs := harness.DefaultTools(sabreTrials)
	for i := range specs {
		name, mk := specs[i].Name, specs[i].Make
		track := i + 1
		specs[i].Make = func(seed int64) router.Router {
			r := mk(seed)
			s.mu.Lock()
			s.made = append(s.made, madeRouter{name, r})
			s.mu.Unlock()
			if tr == nil {
				return r
			}
			return &timedRouter{inner: r, tool: name, s: s, tr: tr, parent: parent, req: req, track: track}
		}
	}
	return specs
}

func (s *sweepSession) measure(ctx context.Context, d time.Duration, tr *tracer) (window, error) {
	w := window{workers: s.spec.workers}
	err := timed(&w, d, true, func() error {
		cells, fails, err := s.pass(ctx, tr)
		if err != nil {
			return err
		}
		w.ops += cells
		w.attempted += len(tools) * len(s.st.Instances)
		w.failures = append(w.failures, fails...)
		if tr != nil {
			s.tracedPasses++
		}
		return nil
	})
	return w, err
}

// pass ensures the suite (a store hit) and sweeps every tool over every
// instance into a fresh evaluation log, then checks the rows.
func (s *sweepSession) pass(ctx context.Context, tr *tracer) (int, []string, error) {
	s.passes++
	req := fmt.Sprintf("pass-%d", s.passes)
	root := tr.begin("bench", "sweep.pass", 0, req, 0)
	defer root.end()
	var failures []string

	e := tr.begin("suite", "suite.ensure_hit", root.id(), req, 0)
	st, err := s.store.EnsureCtx(ctx, s.manifest)
	e.end()
	if err != nil {
		return 0, nil, err
	}
	if !st.Cached {
		failures = append(failures, fmt.Sprintf("%s: ensure of a populated store missed", req))
	}

	// A unique log per pass: the log is resumable, and a reused one would
	// skip every finished cell and measure nothing.
	logPath := filepath.Join(s.dir, "evals", req+".jsonl")
	s.made, s.routed = nil, nil
	h := tr.begin("harness", "harness.sweep", root.id(), req, 0)
	_, runErr := harness.RunStoredEvalCtx(ctx, s.store, st, s.toolSpecs(tr, h.id(), req),
		harness.StoredEvalOptions{Seed: s.seed, Workers: s.spec.workers, LogPath: logPath})
	h.end()
	if runErr != nil {
		// An invalid or optimum-beating result aborts the sweep.
		return 0, append(failures, fmt.Sprintf("%s: %v", req, runErr)), nil
	}
	log, err := suite.OpenEvalLog(logPath)
	if err != nil {
		return 0, nil, err
	}
	rows := log.Rows()
	if err := log.Close(); err != nil {
		return 0, nil, err
	}

	cells := 0
	if want := len(tools) * len(st.Instances); len(rows) != want {
		failures = append(failures, fmt.Sprintf("%s: %d cells routed, want %d tools × %d instances",
			req, len(rows), len(tools), len(st.Instances)))
	}
	for _, r := range rows {
		key := r.Tool + "/" + r.Instance
		switch {
		case r.Error != "":
			failures = append(failures, fmt.Sprintf("%s: %s error row: %s", req, key, r.Error))
			continue
		case r.Ratio < 1:
			failures = append(failures, fmt.Sprintf("%s: %s ratio %v below the proven optimum", req, key, r.Ratio))
			continue
		}
		if old, ok := s.swaps[key]; ok && old != r.Swaps {
			failures = append(failures, fmt.Sprintf("%s: %s routed with %d SWAPs, an earlier pass %d", req, key, r.Swaps, old))
			continue
		}
		s.swaps[key], s.ratios[key] = r.Swaps, r.Ratio
		cells++
	}

	work := map[string]router.Counters{}
	for _, m := range s.made {
		if ins, ok := m.r.(router.Instrumented); ok {
			c := work[m.tool]
			c.Add(ins.Counters())
			work[m.tool] = c
		}
	}
	if s.work == nil {
		s.work = work
	}
	for _, t := range tools {
		if work[t] != s.work[t] {
			failures = append(failures, fmt.Sprintf("%s: %s work counters %+v, an earlier pass %+v", req, t, work[t], s.work[t]))
		}
	}
	return cells, failures, nil
}

// results records, per instance, each tool's SWAP count in tool order,
// and per tool its work counters over one pass.
func (s *sweepSession) results() ([]named, golden, error) {
	record := golden{}
	prefix := fmt.Sprintf("m%d/", s.member)
	for _, ref := range s.st.Instances {
		var swaps []float64
		for _, t := range tools {
			if n, ok := s.swaps[t+"/"+ref.Base]; ok {
				swaps = append(swaps, float64(n))
			}
		}
		if len(swaps) != len(tools) {
			return nil, record, fmt.Errorf("%s was routed by %d of %d tools", ref.Base, len(swaps), len(tools))
		}
		record[prefix+ref.Base] = swaps
	}
	var out []named
	for _, t := range tools {
		var rs []float64
		for _, ref := range s.st.Instances {
			rs = append(rs, s.ratios[t+"/"+ref.Base])
		}
		out = append(out, named{"gap_x." + t, mean(rs), "x"})
		c := s.work[t]
		record[prefix+"work/"+t] = []float64{float64(c.Decisions), float64(c.Candidates), float64(c.Restarts)}
	}
	return out, record, nil
}

func (s *sweepSession) layers(ctx context.Context, tr *tracer, w window) (map[string]float64, error) {
	out := map[string]float64{}
	var routeSum float64
	for _, t := range tools {
		spans := tr.named("route." + t)
		d := tr.durations("route." + t)
		routeSum += sum(d)
		out["route_ms."+t] = median(d)
		out["route_share."+t] = sum(d) / w.workerMS()
		var dec, cand, rst []float64
		for _, sp := range spans {
			dec = append(dec, float64(sp.Args["decisions"]))
			cand = append(cand, float64(sp.Args["candidates"]))
			rst = append(rst, float64(sp.Args["restarts"]))
		}
		out["decisions."+t] = mean(dec)
		out["candidates."+t] = mean(cand)
		if t == "lightsabre" {
			out["restarts.lightsabre"] = mean(rst)
		}
	}
	timing(out, tr, "suite.ensure_hit", "ms", w, 1)

	// The harness loads, prepares, validates and logs inside
	// RunStoredEvalCtx, out of reach of a span. Replay one pass's worth of
	// each call on the same inputs and time it.
	probe := tr.begin("bench", "probe", 0, "probe", 0)
	defer probe.end()
	var firsts []*router.Prepared
	var replayed float64
	for _, ref := range s.st.Instances {
		l := tr.begin("suite", "suite.load_instance", probe.id(), "probe", 0)
		li, err := s.store.LoadInstance(s.st.Hash, ref)
		replayed += ms(l.end())
		if err != nil {
			return nil, err
		}
		p := tr.begin("router", "router.prepare", probe.id(), "probe", 0)
		prep, err := router.Prepare(li.Circuit, li.Device)
		replayed += ms(p.end())
		if err != nil {
			return nil, err
		}
		if ref.Index == 0 {
			firsts = append(firsts, prep)
		}
	}
	for _, r := range s.routed {
		v := tr.begin("router", "router.validate", probe.id(), "probe", 0)
		err := router.Validate(r.p.Circuit, r.p.Device, r.res)
		replayed += ms(v.end())
		if err != nil {
			return nil, fmt.Errorf("validate replay: %w", err)
		}
	}
	log, err := suite.OpenEvalLog(filepath.Join(s.dir, "evals", "replay.jsonl"))
	if err != nil {
		return nil, err
	}
	for _, t := range tools {
		for _, ref := range s.st.Instances {
			a := tr.begin("suite", "suite.evallog_append", probe.id(), "probe", 0)
			err := log.Append(suite.Row{Suite: s.st.Hash, Instance: ref.Base, Metric: string(s.st.Metric),
				Optimal: ref.Optimal, Tool: t, Swaps: s.swaps[t+"/"+ref.Base], Ratio: s.ratios[t+"/"+ref.Base]})
			replayed += ms(a.end())
			if err != nil {
				return nil, err
			}
		}
	}
	if err := log.Close(); err != nil {
		return nil, err
	}
	passes := float64(s.tracedPasses)
	timing(out, tr, "suite.load_instance", "ms", w, passes)
	timing(out, tr, "router.prepare", "ms", w, passes)
	timing(out, tr, "router.validate", "ms", w, passes)
	timing(out, tr, "suite.evallog_append", "us", w, passes)

	// Harness overhead: the sweep's worker time not spent in a layer.
	overhead := sum(tr.durations("harness.sweep"))*float64(w.workers) - routeSum - passes*replayed
	out["harness.overhead_ms_per_cell"] = overhead / float64(w.ops)
	out["harness.overhead_share"] = overhead / w.workerMS()

	if s.spec.gang {
		if err := s.gang(ctx, tr, probe.id(), firsts, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// gang routes the same prepared instances with QMAP at one expansion
// worker and at nproc, asserting identical SWAP counts; the speedup's
// base is the one-worker time.
func (s *sweepSession) gang(ctx context.Context, tr *tracer, parent int64, preps []*router.Prepared, out map[string]float64) error {
	nproc := runtime.GOMAXPROCS(0)
	var base, wide float64
	for i, p := range preps {
		var swaps [2]int
		for j, workers := range []int{1, nproc} {
			// The harness's QMAP configuration, at a fixed worker count.
			q := qmap.New(qmap.Options{MaxNodes: 2000, Seed: s.seed + 7919, Workers: workers})
			sp := tr.begin("tools", fmt.Sprintf("qmap.workers%d", workers), parent, fmt.Sprintf("gang-%d", i), 0)
			res, err := router.RoutePreparedWithContext(ctx, q, p)
			d := ms(sp.end())
			if err != nil {
				return fmt.Errorf("qmap at %d workers: %w", workers, err)
			}
			swaps[j] = res.SwapCount
			if j == 0 {
				base += d
			} else {
				wide += d
			}
		}
		if swaps[0] != swaps[1] {
			return fmt.Errorf("qmap routed instance %d with %d SWAPs at 1 worker but %d at %d", i, swaps[0], swaps[1], nproc)
		}
	}
	out["qmap.gang_base_ms"] = base / float64(len(preps))
	out["qmap.gang_ms"] = wide / float64(len(preps))
	out["qmap.gang_speedup"] = base / wide
	return nil
}

// rewind is a no-op: every pass sweeps the same suite with the same seeds.
func (s *sweepSession) rewind() {}

func (s *sweepSession) close() {}

// timedRouter records a span around each routing call of the tool it
// wraps. Every other method forwards, so the harness dispatches to the
// tool exactly as it would unwrapped.
type timedRouter struct {
	inner  router.Router
	tool   string
	s      *sweepSession
	tr     *tracer
	parent int64
	req    string
	track  int
}

func (t *timedRouter) Name() string { return t.inner.Name() }

func (t *timedRouter) Route(c *circuit.Circuit, dev *arch.Device) (*router.Result, error) {
	return t.inner.Route(c, dev)
}

func (t *timedRouter) RoutePreparedCtx(ctx context.Context, p *router.Prepared) (*router.Result, error) {
	sp := t.tr.begin("tools", "route."+t.tool, t.parent, t.req, t.track)
	res, err := router.RoutePreparedWithContext(ctx, t.inner, p)
	c := t.Counters()
	sp.arg("decisions", c.Decisions)
	sp.arg("candidates", c.Candidates)
	sp.arg("restarts", c.Restarts)
	sp.end()
	if err == nil {
		t.s.mu.Lock()
		t.s.routed = append(t.s.routed, routed{p, res})
		t.s.mu.Unlock()
	}
	return res, err
}

func (t *timedRouter) SetWorkerBudget(b *pool.Budget) {
	if br, ok := t.inner.(router.BudgetedRouter); ok {
		br.SetWorkerBudget(b)
	}
}

func (t *timedRouter) Counters() router.Counters {
	if ins, ok := t.inner.(router.Instrumented); ok {
		return ins.Counters()
	}
	return router.Counters{}
}
