package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/family"
	"repro/internal/olsq"
	"repro/internal/pool"
	"repro/internal/sat"
	"repro/internal/suite"
)

const (
	// certifyPerCount is the instances per (device, SWAP count) of one pass.
	certifyPerCount = 12
	// certifyPool is how many distinct passes a seed's order draws from,
	// about what one run gets through. Certification cost is heavy-tailed
	// (a twentieth of the instances take more than a quarter of the
	// time), so runs over independent samples would differ by about a
	// tenth on input luck alone; drawing from one pool in seeded order
	// keeps runs comparable while each seed still sees its own order.
	certifyPool = 6
	// certifyPoolSeed anchors the pool's suites.
	certifyPoolSeed = 1_000_000_000
)

// certifySession is Section IV-A as qubikos-verify -suite runs it: each
// pass generates the suites into a fresh store root (a real Ensure miss),
// verifies their checksum index, and certifies every instance's planted
// optimum exactly by SAT over nproc workers. An operation is one
// certified instance.
type certifySession struct {
	dir      string
	perCount int
	order    []int // the seed's order of the pool
	// manifests are the suites of the last pass.
	manifests []suite.Manifest
	passes    int
	// sat holds each certified instance's solver counters.
	sat map[string]sat.Stats
	// instancesGenerated is the store's generation count of the last pass.
	instancesGenerated int64
}

// certifyManifests are the paper's Section IV-A suites: Aspen-4 and a
// 3×3 grid, optimal SWAPs 1–4, at most 30 two-qubit gates, biased toward
// high-degree sections.
func certifyManifests(seed int64, perCount int) []suite.Manifest {
	var out []suite.Manifest
	for _, dev := range []string{"aspen4", "grid3x3"} {
		out = append(out, suite.NewManifest(dev, []int{1, 2, 3, 4}, perCount, family.Options{
			TargetTwoQubitGates: 30, MaxTwoQubitGates: 30, PreferHighDegree: true, Seed: seed,
		}))
	}
	return out
}

// setupCertify warms up by certifying one small pass; the measured passes
// then generate into fresh store roots of their own.
func setupCertify(ctx context.Context, dir string, seed int64) (session, error) {
	warm := &certifySession{dir: dir, perCount: 1, order: []int{-1}, sat: map[string]sat.Stats{}}
	if _, fails, err := warm.pass(ctx, nil); err != nil || len(fails) > 0 {
		return nil, fmt.Errorf("warm-up certification: %v %v", err, fails)
	}
	return &certifySession{dir: dir, perCount: certifyPerCount,
		order: rand.New(rand.NewSource(seed)).Perm(certifyPool), sat: map[string]sat.Stats{}}, nil
}

func (s *certifySession) measure(ctx context.Context, d time.Duration, tr *tracer) (window, error) {
	w := window{workers: runtime.GOMAXPROCS(0)}
	err := timed(&w, d, false, func() error {
		n, fails, err := s.pass(ctx, tr)
		if err != nil {
			return err
		}
		w.attempted += 2 * 4 * s.perCount
		w.ops += n
		w.failures = append(w.failures, fails...)
		return nil
	})
	return w, err
}

type certifyJob struct {
	hash string
	ref  suite.InstanceRef
	key  string
}

func (s *certifySession) pass(ctx context.Context, tr *tracer) (int, []string, error) {
	// Instance seeds run from the manifest seed upward by index, hence
	// the stride between pool members.
	member := s.order[s.passes%len(s.order)]
	s.passes++
	req := fmt.Sprintf("pass-%d", s.passes)
	s.manifests = certifyManifests(certifyPoolSeed+int64(member*s.perCount), s.perCount)
	root := tr.begin("bench", "certify.pass", 0, req, 0)
	defer root.end()
	storeDir := filepath.Join(s.dir, req)
	defer os.RemoveAll(storeDir)
	store, err := suite.Open(storeDir, suite.StoreOptions{})
	if err != nil {
		return 0, nil, err
	}

	var failures []string
	var jobs []certifyJob
	for _, m := range s.manifests {
		e := tr.begin("suite", "suite.ensure_miss", root.id(), req, 0)
		st, err := store.EnsureCtx(ctx, m)
		e.end()
		if err != nil {
			return 0, nil, err
		}
		if st.Cached {
			failures = append(failures, fmt.Sprintf("%s: ensure on a fresh store root hit", req))
		}
		v := tr.begin("suite", "suite.verify_checksums", root.id(), req, 0)
		err = store.VerifyChecksums(st.Hash)
		v.end()
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: checksum mismatch: %v", req, err))
			continue
		}
		for _, ref := range st.Instances {
			jobs = append(jobs, certifyJob{st.Hash, ref, fmt.Sprintf("m%d/%s/%s", member, m.Device, ref.Base)})
		}
	}
	s.instancesGenerated = store.Stats().InstancesGenerated

	var mu sync.Mutex
	certified := 0
	err = pool.ParallelForCtx(ctx, len(jobs), runtime.GOMAXPROCS(0), func(i int) error {
		j := jobs[i]
		stats, verr := s.certify(ctx, tr, root.id(), req, 1+i%runtime.GOMAXPROCS(0), store, j)
		mu.Lock()
		defer mu.Unlock()
		if verr != nil {
			failures = append(failures, fmt.Sprintf("%s: %s: %v", req, j.key, verr))
			return nil
		}
		if old, ok := s.sat[j.key]; ok && old != stats {
			failures = append(failures, fmt.Sprintf("%s: %s solver counters %+v, an earlier pass %+v", req, j.key, stats, old))
			return nil
		}
		s.sat[j.key] = stats
		certified++
		return nil
	})
	return certified, failures, err
}

// certify loads one stored instance and proves its planted optimum exact:
// unsatisfiable with one SWAP fewer, satisfiable with the claimed count.
func (s *certifySession) certify(ctx context.Context, tr *tracer, parent int64, req string, track int, store *suite.Store, j certifyJob) (sat.Stats, error) {
	l := tr.begin("suite", "suite.load_instance", parent, req, track)
	li, err := store.LoadInstance(j.hash, j.ref)
	l.end()
	if err != nil {
		return sat.Stats{}, err
	}
	v := tr.begin("olsq", "olsq.verify", parent, req, track)
	solver, err := olsq.New(li.Circuit, li.Device, olsq.Options{})
	if err != nil {
		v.end()
		return sat.Stats{}, err
	}
	err = solver.VerifyOptimalCtx(ctx, li.Meta.OptimalSwaps)
	st := solver.SolverStats()
	v.arg("conflicts", st.Conflicts)
	v.arg("learned", st.Learned)
	v.arg("restarts", st.Restarts)
	v.end()
	if err != nil {
		return sat.Stats{}, fmt.Errorf("certified optimum deviates: %w", err)
	}
	return st, nil
}

// results records each certified instance's solver counters: conflicts,
// learned clauses and restarts.
func (s *certifySession) results() ([]named, golden, error) {
	record := golden{}
	for k, st := range s.sat {
		record[k] = []float64{float64(st.Conflicts), float64(st.Learned), float64(st.Restarts)}
	}
	return nil, record, nil
}

// rewind starts the seed's order of the pool over.
func (s *certifySession) rewind() { s.passes = 0 }

// pinCertify certifies every pool member once.
func pinCertify(ctx context.Context, dir string) (golden, error) {
	s := &certifySession{dir: dir, perCount: certifyPerCount, sat: map[string]sat.Stats{}}
	for m := 0; m < certifyPool; m++ {
		s.order = append(s.order, m)
	}
	for range s.order {
		_, fails, err := s.pass(ctx, nil)
		if err == nil && len(fails) > 0 {
			err = fmt.Errorf("%s", strings.Join(fails, "; "))
		}
		if err != nil {
			return nil, err
		}
	}
	_, g, err := s.results()
	return g, err
}

func (s *certifySession) layers(ctx context.Context, tr *tracer, w window) (map[string]float64, error) {
	out := map[string]float64{}
	timing(out, tr, "suite.ensure_miss", "ms", w, 1)
	timing(out, tr, "suite.verify_checksums", "ms", w, 1)
	timing(out, tr, "suite.load_instance", "ms", w, 1)
	timing(out, tr, "olsq.verify", "ms", w, 1)
	var c, l, r []float64
	for _, sp := range tr.named("olsq.verify") {
		c = append(c, float64(sp.Args["conflicts"]))
		l = append(l, float64(sp.Args["learned"]))
		r = append(r, float64(sp.Args["restarts"]))
	}
	out["sat.conflicts"], out["sat.learned"], out["sat.restarts"] = mean(c), mean(l), mean(r)
	out["suite.instances_generated"] = float64(s.instancesGenerated)

	// Generation runs inside Ensure and encoding inside VerifyOptimal; replay
	// one pass's worth of each on the same inputs and time it. Encoding is
	// timed as the formula at the certified bound, exported to a discarding
	// writer.
	probe := tr.begin("bench", "probe", 0, "probe", 0)
	defer probe.end()
	passes := float64(w.ops) / float64(2*4*s.perCount)
	for _, m := range s.manifests {
		fam, err := m.Family()
		if err != nil {
			return nil, err
		}
		dev, err := arch.ByName(m.Device)
		if err != nil {
			return nil, err
		}
		for _, ref := range m.InstanceRefs() {
			g := tr.begin("family", "family.generate", probe.id(), "probe", 0)
			inst, err := fam.Generate(dev, m.Options(ref.Optimal, ref.Index))
			g.end()
			if err != nil {
				return nil, err
			}
			solver, err := olsq.New(inst.Circuit, dev, olsq.Options{})
			if err != nil {
				return nil, err
			}
			e := tr.begin("olsq", "olsq.encode", probe.id(), "probe", 0)
			err = solver.ExportDIMACS(io.Discard, inst.Optimal)
			e.end()
			if err != nil {
				return nil, err
			}
		}
	}
	timing(out, tr, "family.generate", "ms", w, passes)
	timing(out, tr, "olsq.encode", "ms", w, passes)
	return out, nil
}

func (s *certifySession) close() {}
