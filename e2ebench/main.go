// Command e2ebench is the repository's end-to-end benchmark. It drives
// the program only through its public entry points and measures four
// workloads:
//
//	sweep-eagle   Figure 4(d): four tools over Eagle-127, 3000 gates, sweep workers 1
//	sweep-aspen   Figure 4(a): four tools over many Aspen-4, 300-gate instances, sweep workers = nproc
//	certify       Section IV-A: fresh-store generation and exact SAT certification
//	serve-route   qubikos-serve over loopback HTTP: POST /v1/route races plus cheap cached reads
//
// Usage, from the repository root:
//
//	bash e2ebench/run.sh --workload sweep-aspen --seed 1 --seconds 10 --trace 0
//
// Each run prints its environment, every metric by name with its unit,
// and as its last line one JSON object {correct, attempted, failed,
// metrics}. With --trace 0 the metrics are the end-to-end set; with
// --trace 1 the run measures half its window untraced, then the same work
// again traced, and reports the per-layer set, writing the traced spans
// as a Chrome trace under the state directory. The run exits non-zero
// when any correctness gate fails or a result differs from the
// workload's golden file under e2ebench/golden. After a change that
// alters results on purpose, re-pin that file:
//
//	bash e2ebench/run.sh --workload sweep-aspen --pin
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// session is one set-up workload, ready to measure.
type session interface {
	// measure runs whole units of the workload's work until at least d
	// has passed, recording spans in tr when it is non-nil.
	measure(ctx context.Context, d time.Duration, tr *tracer) (window, error)
	// rewind makes the next measure send the same work as the first.
	rewind()
	// results returns the workload's own end-to-end metrics (printed
	// beside the gated set) and its record of results the golden file
	// must match.
	results() ([]named, golden, error)
	// layers derives the per-layer metrics from a traced window, running
	// whatever replays the window cannot observe from outside.
	layers(ctx context.Context, tr *tracer, w window) (map[string]float64, error)
	close()
}

// window is what one measured stretch of work did.
type window struct {
	ops       int // operations completed
	attempted int
	failures  []string
	elapsed   time.Duration
	workers   int // concurrency the work ran at, for time shares
	// units are the window's metered units of work: each pass where the
	// passes do the same work, else the whole window. The per-operation
	// metrics are medians over units, so a stretch in which the host ran
	// slow moves them less than it moves a total.
	units []unit
}

// unit is one metered unit of work.
type unit struct {
	ops     int
	elapsed time.Duration
	cpu     time.Duration
	alloc   uint64 // bytes the process allocated
}

// perUnit is the median of f over the units that completed operations.
func (w window) perUnit(f func(u unit) float64) float64 {
	var xs []float64
	for _, u := range w.units {
		if u.ops > 0 {
			xs = append(xs, f(u))
		}
	}
	return median(xs)
}

// rate is operations per second.
func (w window) rate() float64 {
	return w.perUnit(func(u unit) float64 { return float64(u.ops) / u.elapsed.Seconds() })
}

// workerMS is the window's worker time: its wall time times its
// concurrency, the base of every time share.
func (w window) workerMS() float64 { return ms(w.elapsed) * float64(w.workers) }

// named is one printed metric.
type named struct {
	name  string
	value float64
	unit  string
}

type workload struct {
	setupRepeats int
	setup        func(ctx context.Context, dir string, seed int64) (session, error)
	// pin runs every input of the workload's pool once and returns the
	// results its golden file holds.
	pin func(ctx context.Context, dir string) (golden, error)
}

var workloads = map[string]workload{
	"sweep-eagle": {setupRepeats: 15, setup: setupSweepEagle, pin: pinSweepEagle},
	"sweep-aspen": {setupRepeats: 15, setup: setupSweepAspen, pin: pinSweepAspen},
	"certify":     {setupRepeats: 9, setup: setupCertify, pin: pinCertify},
	"serve-route": {setupRepeats: 9, setup: setupServe, pin: pinServe},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: sweep-eagle, sweep-aspen, certify or serve-route")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced half-window")
	stateDir := flag.String("state-dir", ".bench_build", "directory for stores and traces")
	pin := flag.Bool("pin", false, "run the workload's whole input pool once and rewrite its golden file")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		return 2
	}

	// Router-internal parallelism (QMAP's gang, the SABRE trial pool) is
	// sized from GOMAXPROCS; pin it to the CPUs this process may use.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	fmt.Printf("env nproc=%d gomaxprocs=%d cpu=%q go=%s os=%s/%s\n",
		nproc, runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), runtime.GOOS, runtime.GOARCH)

	workRoot, err := filepath.Abs(filepath.Join(*stateDir, "work", fmt.Sprintf("%s-%d", *name, os.Getpid())))
	if err != nil {
		return fatal(err)
	}
	defer os.RemoveAll(workRoot)
	ctx := context.Background()

	if *pin {
		g, err := w.pin(ctx, filepath.Join(workRoot, "pin"))
		if err == nil {
			err = writeGolden(*name, g)
		}
		if err != nil {
			return fatal(fmt.Errorf("pin: %w", err))
		}
		fmt.Printf("pinned %d values in %s\n", len(g), goldenPath(*name))
		return 0
	}

	// Set up several times and keep the last set-up for measuring, so
	// set-up time is a median, not one sample.
	var sess session
	var setups []float64
	for i := 0; i < w.setupRepeats; i++ {
		dir := filepath.Join(workRoot, fmt.Sprintf("setup%d", i))
		t0 := time.Now()
		s, err := w.setup(ctx, dir, *seed)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return fatal(fmt.Errorf("set-up: %w", err))
		}
		if i == w.setupRepeats-1 {
			sess = s
			break
		}
		s.close()
		if err := os.RemoveAll(dir); err != nil {
			return fatal(err)
		}
	}
	defer sess.close()

	span := time.Duration(*seconds) * time.Second
	values := map[string]metricValue{}
	var win window
	if *traced == 0 {
		if win, err = sess.measure(ctx, span, nil); err != nil {
			return fatal(err)
		}
		values["setup_s"] = metricValue{median(setups), "s"}
		values["ops_per_s"] = metricValue{win.rate(), "1/s"}
		values["cpu_ms_per_op"] = metricValue{win.perUnit(func(u unit) float64 { return ms(u.cpu) / float64(u.ops) }), "ms"}
		values["alloc_mb_per_op"] = metricValue{win.perUnit(func(u unit) float64 { return float64(u.alloc) / (1 << 20) / float64(u.ops) }), "MB"}
	} else {
		plain, err := sess.measure(ctx, span/2, nil)
		if err != nil {
			return fatal(err)
		}
		// The traced half repeats the untraced half's work from its start,
		// so the two rates differ by the cost of tracing alone.
		sess.rewind()
		tr := newTracer()
		if win, err = sess.measure(ctx, span/2, tr); err != nil {
			return fatal(err)
		}
		win.failures = append(plain.failures, win.failures...)
		win.attempted += plain.attempted
		self := tr.selfTimes()
		layers, err := sess.layers(ctx, tr, win)
		if err != nil {
			return fatal(err)
		}
		layers["trace.overhead_frac"] = plain.rate()/win.rate() - 1
		var total time.Duration
		for _, d := range self {
			total += d
		}
		for cat, d := range self {
			layers["self_share."+cat] = d.Seconds() / total.Seconds()
		}
		// A layer the workload does not pass through reports 0.
		for _, l := range perLayer {
			values[l.name] = metricValue{layers[l.name], l.unit}
			delete(layers, l.name)
		}
		if len(layers) > 0 {
			return fatal(fmt.Errorf("bug: per-layer metrics missing from the declared set: %v", keys(layers)))
		}
		tracePath := filepath.Join(*stateDir, "traces", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
			return fatal(err)
		}
		if err := tr.writeChrome(tracePath); err != nil {
			return fatal(err)
		}
		fmt.Printf("trace %s (%d spans)\n", tracePath, len(tr.spans))
	}

	extra, record, err := sess.results()
	if err != nil {
		win.failures = append(win.failures, err.Error())
	}
	drift, err := checkGolden(*name, record)
	if err != nil {
		return fatal(err)
	}
	win.failures = append(win.failures, drift...)

	failed := len(win.failures)
	attempted := max(win.attempted, failed)
	fmt.Printf("workload=%s seed=%d trace=%d ops=%d attempted=%d failed=%d window_s=%.3f\n",
		*name, *seed, *traced, win.ops, attempted, failed, win.elapsed.Seconds())
	for i, f := range win.failures {
		if i == 20 {
			fmt.Printf("failure ... %d more\n", failed-i)
			break
		}
		fmt.Printf("failure %s\n", f)
	}
	if *traced == 0 {
		// Peak RSS is printed but not gated: a Go process's peak follows
		// its garbage collector's timing and varies too much from run to
		// run for a bound to hold.
		extra = append(extra, named{"error_rate", float64(failed) / float64(max(attempted, 1)), "ratio"},
			named{"peak_rss_mb", peakRSSMB(), "MB"})
	}
	for _, k := range keys(values) {
		fmt.Printf("metric %s %v %s\n", k, values[k].Value, values[k].Unit)
	}
	for _, m := range extra {
		fmt.Printf("metric %s %v %s\n", m.name, m.value, m.unit)
	}
	out, err := json.Marshal(output{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: values})
	if err != nil {
		return fatal(err)
	}
	fmt.Println(string(out))
	if failed > 0 {
		return 1
	}
	return 0
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	return 1
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuModel names the host CPU for the environment line.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// allocated is the bytes the process has allocated on the heap so far.
func allocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// meter starts metering a unit of work's wall time, CPU time and
// allocation; stop adds the unit, with the operations it completed, to w.
func meter(w *window) (stop func(ops int)) {
	c0, a0, t0 := cpuTime(), allocated(), time.Now()
	return func(ops int) {
		u := unit{ops: ops, elapsed: time.Since(t0), cpu: cpuTime() - c0, alloc: allocated() - a0}
		w.units = append(w.units, u)
		w.elapsed += u.elapsed
	}
}

// timed runs units of work until at least d has passed; it always runs
// at least one unit. When every unit does the same work (same is set),
// each is metered on its own; otherwise the whole stretch is metered as
// one unit, since a median over unlike units would follow the inputs.
func timed(w *window, d time.Duration, same bool, work func() error) error {
	t0 := time.Now()
	ops := w.ops
	stop := meter(w)
	for {
		err := work()
		done := err != nil || time.Since(t0) >= d
		if done || same {
			stop(w.ops - ops)
		}
		if done {
			return err
		}
		if same {
			ops, stop = w.ops, meter(w)
		}
	}
}
