package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/family"
	"repro/internal/loadtest"
	"repro/internal/server"
	"repro/internal/suite"
)

// mix is one deck of a client's request classes, reshuffled per deal.
// It is qubikos-loadtest's request schedule (internal/loadtest Run) with
// the route class on and the classes the serve path does not time left
// out (archive, abandon, health, eval), in that schedule's proportions:
// 2 index : 3 qasm : 2 conditional index : 2 conditional qasm : 1 sidecar
// : 1 ensure : 1 route. Dealing from a deck rather than drawing each class
// keeps every run's mix exact, so runs differ in order only.
var mix = []string{
	loadtest.ClassIndex, loadtest.ClassIndex,
	loadtest.ClassQasm, loadtest.ClassQasm, loadtest.ClassQasm,
	loadtest.ClassCondIndex, loadtest.ClassCondIndex,
	loadtest.ClassCondQasm, loadtest.ClassCondQasm,
	loadtest.ClassSidecar, loadtest.ClassEnsure, loadtest.ClassRoute,
}

const (
	// corpusSeed generates the server's stored suites. The corpus is the
	// server's state and the same for every seed; the seed drives the
	// traffic. Race times are heavy-tailed across instances (whether QMAP
	// must run decides a Sycamore race), so a corpus drawn per seed would
	// move throughput by a tenth between seeds on instance luck alone.
	corpusSeed = 2025
	// hitSuites exceeds the server's 8-slot suite LRU, so GETs miss it too.
	hitSuites = 12
)

// routeTarget is one stored instance the clients race the tools on.
type routeTarget struct {
	hash, base string
}

func (t routeTarget) key() string { return t.hash[:12] + "/" + t.base }

// hitFile is one document the clients read: its path, the SHA-256 its
// body must have (the store's checksum index entry for instance files,
// the warm-up read for a suite index) and the ETag the server sent.
type hitFile struct {
	path, sum, etag string
}

// hitSuite is one small stored suite the cheap requests read.
type hitSuite struct {
	manifest []byte
	hash     string
	// instances is the suite's instance count, which its index must list.
	instances int
	index     hitFile
	sidecars  []hitFile
	qasms     []hitFile
}

// serveSession is an in-process qubikos-serve on a loopback listener,
// driven by nproc closed-loop clients: each sends its next request only
// after the previous reply, as callers that wait for their results do. An
// operation is one HTTP request.
type serveSession struct {
	seed      int64
	store     *suite.Store
	srv       *http.Server
	served    chan struct{}
	transport *http.Transport
	client    *http.Client
	url       string

	routes  []routeTarget
	suites  []hitSuite
	clients []*serveClient
	// routeSeq is the seed's order of the route targets: each stratum
	// (device) shuffled and interleaved in corpus proportion, so every
	// stretch of it has the corpus's mix of cheap and dear races. The
	// clients take the next position from routeNext.
	routeSeq  []int
	routeNext atomic.Int64

	winRatio map[string]float64 // route target → winning ratio, which is deterministic
	all      clientObs          // every window so far, for the latency percentiles
	last     clientObs          // the last window, for the per-layer metrics
}

// serveClient is one closed-loop client's seeded request stream.
type serveClient struct {
	rng   *rand.Rand
	deck  []string
	dealt int
}

// next deals the client's next request class.
func (cl *serveClient) next() string {
	if cl.dealt == len(cl.deck) {
		cl.rng.Shuffle(len(cl.deck), func(i, j int) { cl.deck[i], cl.deck[j] = cl.deck[j], cl.deck[i] })
		cl.dealt = 0
	}
	cl.dealt++
	return cl.deck[cl.dealt-1]
}

// clientObs is what clients observed; merged after each window.
type clientObs struct {
	routeLat, hitLat    []float64 // ms to the last byte
	races               []raceObs
	cacheHit, cacheMiss int
	notModified         int
	ops, attempted      int
	failures            []string
	ratios              map[string]float64
}

type raceObs struct {
	latency, elapsed float64 // ms
	winner           string
	racersRun        int
	deadlineHit      bool
	toolMS           map[string]float64
}

// routeReply is the part of a POST /v1/route reply the benchmark reads.
type routeReply struct {
	Tool        string  `json:"tool"`
	Ratio       float64 `json:"ratio"`
	Optimal     int     `json:"optimal"`
	DeadlineHit bool    `json:"deadline_hit"`
	ElapsedMS   int64   `json:"elapsed_ms"`
	Racers      []struct {
		Tool      string `json:"tool"`
		Outcome   string `json:"outcome"`
		ElapsedMS int64  `json:"elapsed_ms"`
	} `json:"racers"`
}

func setupServe(ctx context.Context, dir string, seed int64) (session, error) {
	s, err := startServe(ctx, dir, seed)
	if err != nil {
		return nil, err
	}
	// Warm up: read every document once, keeping its ETag for the
	// conditional GETs, and race once on each device.
	var warm clientObs
	for i := range s.suites {
		h := &s.suites[i]
		for _, f := range h.documents() {
			if resp := s.get(ctx, nil, 0, "warm", *f, &warm); resp != nil {
				f.etag = resp.Header.Get("ETag")
			}
		}
		if resp := s.index(ctx, nil, 0, "warm", h, &warm); resp != nil {
			h.index.etag = resp.Header.Get("ETag")
		}
	}
	s.route(ctx, nil, 0, "warm", 0, &warm)
	s.route(ctx, nil, 0, "warm", len(s.routes)-1, &warm)
	for k, r := range warm.ratios {
		s.winRatio[k] = r
	}
	if len(warm.failures) > 0 {
		s.close()
		return nil, fmt.Errorf("warm-up: %s", strings.Join(warm.failures, "; "))
	}
	return s, nil
}

// startServe populates a store with the corpus and starts a server on it.
func startServe(ctx context.Context, dir string, seed int64) (*serveSession, error) {
	store, err := suite.Open(filepath.Join(dir, "store"), suite.StoreOptions{})
	if err != nil {
		return nil, err
	}
	s := &serveSession{seed: seed, store: store, winRatio: map[string]float64{}}

	// Races on Aspen-4 and Sycamore-54 instances of 300 gates. A Sycamore
	// race takes about ten times an Aspen one, so Sycamore is a fifth of
	// the corpus: enough to set the route tail, few enough that a run
	// races on every target several times over.
	var strata [][]int
	for _, c := range []struct {
		dev      string
		perCount int
	}{{"aspen4", 8}, {"sycamore54", 2}} {
		m := suite.NewManifest(c.dev, []int{5, 10, 15, 20}, c.perCount, family.Options{TargetTwoQubitGates: 300, Seed: corpusSeed})
		st, err := store.EnsureCtx(ctx, m)
		if err != nil {
			return nil, err
		}
		var stratum []int
		for _, ref := range st.Instances {
			stratum = append(stratum, len(s.routes))
			s.routes = append(s.routes, routeTarget{st.Hash, ref.Base})
		}
		strata = append(strata, stratum)
	}
	rng := rand.New(rand.NewSource(seed))
	for _, st := range strata {
		rng.Shuffle(len(st), func(i, j int) { st[i], st[j] = st[j], st[i] })
	}
	aspen, sycamore := strata[0], strata[1]
	per := len(aspen) / len(sycamore)
	for i, t := range sycamore {
		s.routeSeq = append(append(s.routeSeq, aspen[i*per:(i+1)*per]...), t)
	}

	// Small suites for the cheap reads, more of them than the LRU holds.
	for i := 0; i < hitSuites; i++ {
		m := suite.NewManifest("aspen4", []int{1, 2}, 1, family.Options{TargetTwoQubitGates: 60, Seed: corpusSeed*100 + int64(i)})
		st, err := store.EnsureCtx(ctx, m)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(m)
		if err != nil {
			return nil, err
		}
		var sums map[string]string
		b, err := os.ReadFile(filepath.Join(st.Dir, "checksums.json"))
		if err == nil {
			err = json.Unmarshal(b, &sums)
		}
		if err != nil {
			return nil, fmt.Errorf("checksum index of %s: %w", st.Hash, err)
		}
		h := hitSuite{manifest: body, hash: st.Hash, instances: len(st.Instances),
			index: hitFile{path: "/v1/suites/" + st.Hash}}
		for _, ref := range st.Instances {
			prefix := "/v1/suites/" + st.Hash + "/instances/" + ref.Base
			h.sidecars = append(h.sidecars, hitFile{path: prefix, sum: sums[ref.Base+".json"]})
			h.qasms = append(h.qasms, hitFile{path: prefix + "/qasm", sum: sums[ref.Base+".qasm"]})
		}
		s.suites = append(s.suites, h)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: server.New(store, server.Options{})}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		s.srv.Serve(ln)
	}()
	s.transport = &http.Transport{MaxIdleConnsPerHost: runtime.GOMAXPROCS(0)}
	s.client = &http.Client{Transport: s.transport}
	s.rewind()
	return s, nil
}

// documents are the suite's instance files.
func (h *hitSuite) documents() []*hitFile {
	var out []*hitFile
	for i := range h.sidecars {
		out = append(out, &h.sidecars[i], &h.qasms[i])
	}
	return out
}

// rewind restarts every client's request stream and the route order from
// the seed, so the next window sends the same requests as the first.
func (s *serveSession) rewind() {
	s.routeNext.Store(0)
	s.clients = nil
	for c := 0; c < runtime.GOMAXPROCS(0); c++ {
		cl := &serveClient{rng: rand.New(rand.NewSource(s.seed*1000 + int64(c))), deck: append([]string(nil), mix...)}
		cl.dealt = len(cl.deck)
		s.clients = append(s.clients, cl)
	}
}

// pinServe races the tools on every route target once and returns their
// winning ratios.
func pinServe(ctx context.Context, dir string) (golden, error) {
	s, err := startServe(ctx, dir, 1)
	if err != nil {
		return nil, err
	}
	defer s.close()
	var o clientObs
	for i := range s.routes {
		s.route(ctx, nil, 0, "pin", i, &o)
	}
	if len(o.failures) > 0 {
		return nil, fmt.Errorf("%s", strings.Join(o.failures, "; "))
	}
	return ratioRecord(o.ratios), nil
}

// ratioRecord is the golden record of winning ratios by route target.
func ratioRecord(ratios map[string]float64) golden {
	g := golden{}
	for k, r := range ratios {
		g[k] = []float64{r}
	}
	return g
}

func (s *serveSession) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	<-s.served
	s.transport.CloseIdleConnections()
}

func (s *serveSession) measure(ctx context.Context, d time.Duration, tr *tracer) (window, error) {
	w := window{workers: len(s.clients)}
	nm0, err := s.notModifiedCount(ctx)
	if err != nil {
		return w, err
	}
	obs := make([]clientObs, len(s.clients))
	stop := meter(&w)
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := range s.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s.loop(ctx, tr, c, deadline, &obs[c])
		}(c)
	}
	wg.Wait()
	ops := 0
	for _, o := range obs {
		ops += o.ops
	}
	stop(ops)

	var win clientObs
	for _, o := range obs {
		win.merge(o)
	}
	nm1, err := s.notModifiedCount(ctx)
	if err != nil {
		return w, err
	}
	if int(nm1-nm0) != win.notModified {
		win.failures = append(win.failures, fmt.Sprintf("/metrics counted %d not-modified replies, clients saw %d", nm1-nm0, win.notModified))
	}
	for k, r := range win.ratios {
		if old, ok := s.winRatio[k]; ok && old != r {
			win.failures = append(win.failures, fmt.Sprintf("route %s won at ratio %v, earlier %v", k, r, old))
		}
		s.winRatio[k] = r
	}
	w.ops, w.attempted, w.failures = win.ops, win.attempted, win.failures
	s.all.merge(win)
	s.last = win
	return w, nil
}

// loop is one closed-loop client: it sends its next request when the
// previous reply has been read, until the deadline.
func (s *serveSession) loop(ctx context.Context, tr *tracer, c int, deadline time.Time, o *clientObs) {
	cl := s.clients[c]
	for n := 0; time.Now().Before(deadline); n++ {
		req := fmt.Sprintf("c%d-%d", c, n)
		class := cl.next()
		if class == loadtest.ClassRoute {
			i := int(s.routeNext.Add(1)-1) % len(s.routeSeq)
			s.route(ctx, tr, c+1, req, s.routeSeq[i], o)
			continue
		}
		h := &s.suites[cl.rng.Intn(len(s.suites))]
		switch class {
		case loadtest.ClassEnsure:
			s.ensure(ctx, tr, c+1, req, h, o)
		case loadtest.ClassIndex:
			s.index(ctx, tr, c+1, req, h, o)
		case loadtest.ClassCondIndex:
			s.conditional(ctx, tr, c+1, req, h.index, o)
		case loadtest.ClassSidecar:
			s.get(ctx, tr, c+1, req, h.sidecars[cl.rng.Intn(len(h.sidecars))], o)
		case loadtest.ClassQasm:
			s.get(ctx, tr, c+1, req, h.qasms[cl.rng.Intn(len(h.qasms))], o)
		case loadtest.ClassCondQasm:
			s.conditional(ctx, tr, c+1, req, h.qasms[cl.rng.Intn(len(h.qasms))], o)
		}
	}
}

// do sends one request and reads the whole reply, timing to the last byte.
func (s *serveSession) do(ctx context.Context, method, path string, body []byte, hdr map[string]string) (*http.Response, []byte, float64, error) {
	r, err := http.NewRequestWithContext(ctx, method, s.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, 0, err
	}
	for k, v := range hdr {
		r.Header.Set(k, v)
	}
	t0 := time.Now()
	resp, err := s.client.Do(r)
	if err != nil {
		return nil, nil, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, b, ms(time.Since(t0)), err
}

func (s *serveSession) route(ctx context.Context, tr *tracer, track int, req string, i int, o *clientObs) {
	t := s.routes[i]
	key := t.key()
	body, _ := json.Marshal(map[string]string{"suite": t.hash, "instance": t.base})
	o.attempted++
	sp := tr.begin("server", "http.route", 0, req, track)
	resp, b, lat, err := s.do(ctx, http.MethodPost, "/v1/route", body, nil)
	sp.end()
	if err != nil {
		o.failures = append(o.failures, fmt.Sprintf("route %s: %v", key, err))
		return
	}
	if resp.StatusCode != http.StatusOK {
		o.failures = append(o.failures, fmt.Sprintf("route %s: status %d: %s", key, resp.StatusCode, strings.TrimSpace(string(b))))
		return
	}
	var rep routeReply
	if err := json.Unmarshal(b, &rep); err != nil {
		o.failures = append(o.failures, fmt.Sprintf("route %s: %v", key, err))
		return
	}
	if rep.Optimal <= 0 || rep.Ratio < 1 {
		o.failures = append(o.failures, fmt.Sprintf("route %s: winner %s ratio %v against optimum %d", key, rep.Tool, rep.Ratio, rep.Optimal))
		return
	}
	if o.ratios == nil {
		o.ratios = map[string]float64{}
	}
	if old, ok := o.ratios[key]; ok && old != rep.Ratio {
		o.failures = append(o.failures, fmt.Sprintf("route %s won at ratio %v, earlier %v", key, rep.Ratio, old))
		return
	}
	o.ratios[key] = rep.Ratio
	end := time.Now()
	tr.record("portfolio", "portfolio.race", sp.id(), req, track, end.Add(-time.Duration(rep.ElapsedMS)*time.Millisecond), end)
	race := raceObs{latency: lat, elapsed: float64(rep.ElapsedMS), winner: rep.Tool, deadlineHit: rep.DeadlineHit, toolMS: map[string]float64{}}
	for _, r := range rep.Racers {
		if r.Outcome != "hedged" && r.Outcome != "skipped" {
			race.racersRun++
		}
		if r.Outcome == "ok" {
			race.toolMS[r.Tool] = float64(r.ElapsedMS)
		}
	}
	o.races = append(o.races, race)
	o.routeLat = append(o.routeLat, lat)
	o.ops++
}

func (s *serveSession) ensure(ctx context.Context, tr *tracer, track int, req string, h *hitSuite, o *clientObs) {
	o.attempted++
	sp := tr.begin("server", "http.ensure", 0, req, track)
	resp, _, lat, err := s.do(ctx, http.MethodPost, "/v1/suites", h.manifest, nil)
	sp.end()
	switch {
	case err != nil:
		o.failures = append(o.failures, fmt.Sprintf("ensure %s: %v", h.hash[:12], err))
	case resp.StatusCode != http.StatusOK || resp.Header.Get("X-Suite-Hash") != h.hash:
		o.failures = append(o.failures, fmt.Sprintf("ensure %s: status %d hash %q", h.hash[:12], resp.StatusCode, resp.Header.Get("X-Suite-Hash")))
	case resp.Header.Get("X-Cache") != "hit":
		o.failures = append(o.failures, fmt.Sprintf("ensure %s of a stored suite: X-Cache %q", h.hash[:12], resp.Header.Get("X-Cache")))
	default:
		o.hitLat = append(o.hitLat, lat)
		o.ops++
	}
}

// index reads a suite's index and checks it names the suite and all its
// instances; it returns the reply when the check passed.
func (s *serveSession) index(ctx context.Context, tr *tracer, track int, req string, h *hitSuite, o *clientObs) *http.Response {
	o.attempted++
	sp := tr.begin("server", "http.index", 0, req, track)
	resp, b, lat, err := s.do(ctx, http.MethodGet, h.index.path, nil, nil)
	sp.end()
	if err != nil {
		o.failures = append(o.failures, fmt.Sprintf("GET %s: %v", h.index.path, err))
		return nil
	}
	var idx struct {
		Hash      string            `json:"hash"`
		Instances []json.RawMessage `json:"instances"`
	}
	if resp.StatusCode != http.StatusOK || json.Unmarshal(b, &idx) != nil || idx.Hash != h.hash || len(idx.Instances) != h.instances {
		o.failures = append(o.failures, fmt.Sprintf("GET %s: status %d, not the index of its %d instances", h.index.path, resp.StatusCode, h.instances))
		return nil
	}
	s.countRead(resp, lat, o)
	return resp
}

// get reads one instance file and checks its bytes against the store's
// checksum index; it returns the reply when the check passed.
func (s *serveSession) get(ctx context.Context, tr *tracer, track int, req string, f hitFile, o *clientObs) *http.Response {
	o.attempted++
	sp := tr.begin("server", "http.get", 0, req, track)
	resp, b, lat, err := s.do(ctx, http.MethodGet, f.path, nil, nil)
	sp.end()
	if err != nil {
		o.failures = append(o.failures, fmt.Sprintf("GET %s: %v", f.path, err))
		return nil
	}
	sum := sha256.Sum256(b)
	if resp.StatusCode != http.StatusOK || hex.EncodeToString(sum[:]) != f.sum {
		o.failures = append(o.failures, fmt.Sprintf("GET %s: status %d, body does not match the checksum index", f.path, resp.StatusCode))
		return nil
	}
	s.countRead(resp, lat, o)
	return resp
}

// countRead counts one checked read: its latency and its X-Cache outcome.
func (s *serveSession) countRead(resp *http.Response, lat float64, o *clientObs) {
	switch resp.Header.Get("X-Cache") {
	case "hit":
		o.cacheHit++
	case "miss":
		o.cacheMiss++
	}
	o.hitLat = append(o.hitLat, lat)
	o.ops++
}

func (s *serveSession) conditional(ctx context.Context, tr *tracer, track int, req string, f hitFile, o *clientObs) {
	o.attempted++
	sp := tr.begin("server", "http.conditional", 0, req, track)
	resp, _, lat, err := s.do(ctx, http.MethodGet, f.path, nil, map[string]string{"If-None-Match": f.etag})
	sp.end()
	switch {
	case err != nil:
		o.failures = append(o.failures, fmt.Sprintf("conditional GET %s: %v", f.path, err))
	case resp.StatusCode != http.StatusNotModified:
		o.failures = append(o.failures, fmt.Sprintf("conditional GET %s with its ETag: status %d, want 304", f.path, resp.StatusCode))
	default:
		o.notModified++
		o.hitLat = append(o.hitLat, lat)
		o.ops++
	}
}

// notModifiedCount reads the server's not-modified counter from /metrics.
func (s *serveSession) notModifiedCount(ctx context.Context) (int64, error) {
	resp, b, _, err := s.do(ctx, http.MethodGet, "/metrics", nil, nil)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), `qubikos_http_conditional_total{result="not_modified"} `); ok {
			return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	return 0, nil
}

func (o *clientObs) merge(x clientObs) {
	o.routeLat = append(o.routeLat, x.routeLat...)
	o.hitLat = append(o.hitLat, x.hitLat...)
	o.races = append(o.races, x.races...)
	o.cacheHit += x.cacheHit
	o.cacheMiss += x.cacheMiss
	o.notModified += x.notModified
	o.ops += x.ops
	o.attempted += x.attempted
	o.failures = append(o.failures, x.failures...)
	if o.ratios == nil {
		o.ratios = map[string]float64{}
	}
	for k, v := range x.ratios {
		if old, ok := o.ratios[k]; ok && old != v {
			o.failures = append(o.failures, fmt.Sprintf("route %s won at ratio %v on one client, %v on another", k, v, old))
		}
		o.ratios[k] = v
	}
}

func (s *serveSession) results() ([]named, golden, error) {
	record := ratioRecord(s.winRatio)
	var ratios []float64
	for _, k := range keys(s.winRatio) { // a fixed order, so the sum is exact
		ratios = append(ratios, s.winRatio[k])
	}
	if len(ratios) != len(s.routes) {
		return nil, record, fmt.Errorf("clients raced on %d of the %d route targets; route_gap_x needs every one", len(ratios), len(s.routes))
	}
	gap := mean(ratios)
	out := []named{{"route_gap_x", gap, "x"}}
	for _, m := range []struct {
		name string
		xs   []float64
		q    float64
	}{
		{"route_p50_ms", s.all.routeLat, 0.5},
		{"route_p95_ms", s.all.routeLat, 0.95},
		{"hit_p50_ms", s.all.hitLat, 0.5},
		{"hit_p95_ms", s.all.hitLat, 0.95},
	} {
		v, err := tail(m.xs, m.q, m.name)
		if err != nil {
			// Too few samples to report this percentile: say so rather
			// than print a number the tail rule does not allow.
			fmt.Printf("unreported %v\n", err)
			continue
		}
		out = append(out, named{m.name, v, "ms"})
	}
	out = append(out, named{"route_samples", float64(len(s.all.routeLat)), "count"},
		named{"hit_samples", float64(len(s.all.hitLat)), "count"})
	return out, record, nil
}

func (s *serveSession) layers(ctx context.Context, tr *tracer, w window) (map[string]float64, error) {
	out := map[string]float64{}
	races := s.last.races
	worker := w.workerMS()
	var elapsed, overhead []float64
	racers := 0
	wins := map[string]float64{}
	toolMS := map[string][]float64{}
	for _, r := range races {
		elapsed = append(elapsed, r.elapsed)
		overhead = append(overhead, r.latency-r.elapsed)
		racers += r.racersRun
		wins[r.winner]++
		if r.deadlineHit {
			out["portfolio.deadline_hits"]++
		}
		for t, v := range r.toolMS {
			toolMS[t] = append(toolMS[t], v)
		}
	}
	n := float64(len(races))
	out["portfolio.race_ms"] = median(elapsed)
	out["portfolio.race_share"] = sum(elapsed) / worker
	out["portfolio.racers_run"] = float64(racers) / n
	out["portfolio.useful_ratio"] = n / float64(racers)
	for _, t := range tools {
		out["portfolio.wins."+t] = wins[t] / n
		out["route_ms."+t] = median(toolMS[t])
		out["route_share."+t] = sum(toolMS[t]) / worker
	}
	out["server.overhead_ms"] = median(overhead)
	out["server.overhead_share"] = sum(overhead) / worker
	out["server.lru_hit_ratio"] = float64(s.last.cacheHit) / float64(s.last.cacheHit+s.last.cacheMiss)
	out["server.not_modified"] = float64(s.last.notModified)

	// The store's Ensure hit under the server, called directly.
	probe := tr.begin("bench", "probe", 0, "probe", 0)
	defer probe.end()
	for round := 0; round < 5; round++ {
		for _, h := range s.suites {
			var man suite.Manifest
			if err := json.Unmarshal(h.manifest, &man); err != nil {
				return nil, err
			}
			e := tr.begin("suite", "suite.ensure_hit", probe.id(), "probe", 0)
			st, err := s.store.EnsureCtx(ctx, man)
			e.end()
			if err != nil {
				return nil, err
			}
			if !st.Cached {
				return nil, fmt.Errorf("ensure of stored suite %s missed", h.hash[:12])
			}
		}
	}
	d := tr.durations("suite.ensure_hit")
	out["suite.ensure_hit_ms"] = median(d)
	return out, nil
}
