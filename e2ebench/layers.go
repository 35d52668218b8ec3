package main

// tools are the paper's four tools, in the harness's reporting order.
var tools = []string{"lightsabre", "ml-qls", "qmap", "tket"}

// layerMetric is one declared per-layer metric. Timings come in pairs: a
// median per call and a share of the traced window's worker time (the
// window's wall time times the workload's concurrency).
type layerMetric struct {
	name string
	unit string
}

// perLayer is the full per-layer set every traced run reports; a layer
// the workload does not pass through reports 0. BENCHMARK.json lists the
// same names.
var perLayer = func() []layerMetric {
	var out []layerMetric
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, layerMetric{n, unit})
		}
	}
	pair := func(unit, name string) {
		add(unit, name+"_"+unit)
		add("frac", name+"_share")
	}
	// internal/sabre, internal/qmap, internal/mlqls, internal/tket.
	for _, t := range tools {
		add("ms", "route_ms."+t)
		add("frac", "route_share."+t)
		add("count", "decisions."+t, "candidates."+t)
	}
	add("count", "restarts.lightsabre")
	add("x", "qmap.gang_speedup")
	add("ms", "qmap.gang_base_ms", "qmap.gang_ms")
	// internal/router, internal/suite, internal/harness.
	pair("ms", "router.prepare")
	pair("ms", "router.validate")
	pair("ms", "suite.load_instance")
	pair("us", "suite.evallog_append")
	pair("ms", "suite.ensure_hit")
	add("ms", "harness.overhead_ms_per_cell")
	add("frac", "harness.overhead_share")
	// internal/family, internal/suite, internal/olsq, internal/sat.
	pair("ms", "family.generate")
	pair("ms", "suite.ensure_miss")
	pair("ms", "suite.verify_checksums")
	add("count", "suite.instances_generated")
	pair("ms", "olsq.encode")
	pair("ms", "olsq.verify")
	add("count", "sat.conflicts", "sat.learned", "sat.restarts")
	// internal/portfolio, internal/server.
	pair("ms", "portfolio.race")
	add("count", "portfolio.racers_run")
	add("ratio", "portfolio.useful_ratio")
	for _, t := range tools {
		add("frac", "portfolio.wins."+t)
	}
	add("count", "portfolio.deadline_hits")
	pair("ms", "server.overhead")
	add("ratio", "server.lru_hit_ratio")
	add("count", "server.not_modified")
	// The spans themselves.
	add("frac", "trace.overhead_frac")
	for _, cat := range spanLayers {
		add("frac", "self_share."+cat)
	}
	return out
}()

// spanLayers are the span categories: the layer each traced call enters.
// "bench" is the benchmark's own loop, "harness" the sweep engine around
// the tools, "tools" the four routers, "server" the HTTP path measured
// from the client.
var spanLayers = []string{"bench", "harness", "suite", "router", "tools", "family", "olsq", "server", "portfolio"}

// timing sets name_<unit> to the median per call of the spans with that
// name and name_share to their summed time over the window's worker time.
// scale multiplies the sum, for calls replayed once per unit of work that
// the window did several times.
func timing(out map[string]float64, tr *tracer, name, unit string, w window, scale float64) {
	d := tr.durations(name)
	if len(d) == 0 {
		return
	}
	per := median(d)
	if unit == "us" {
		per *= 1e3
	}
	out[name+"_"+unit] = per
	out[name+"_share"] = sum(d) * scale / w.workerMS()
}
