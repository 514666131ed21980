package main

import (
	"repro/internal/obs"
)

// registryMetrics extracts one traced pass's per-layer figures from the
// change of the obs registry over the pass (after.Diff(before)). Counters
// the pass never touched read 0. Totals per pass are exact under
// concurrency, unlike the cost tree's per-span counter columns, which diff
// process-wide snapshots at span boundaries and so absorb concurrent
// siblings' work.
func registryMetrics(d *obs.Snapshot) map[string]float64 {
	c := func(name string) float64 { return float64(d.Counters[name]) }
	m := map[string]float64{}
	for _, name := range []string{
		"spice.newton.solves", "spice.newton.iterations", "spice.newton.retries",
		"spice.gmin.ladders", "spice.newton.nonconverged",
		"spice.solver.symbolic.builds", "spice.solver.repivots",
		"charlib.arcs",
		"sat.solves", "sat.conflicts",
		"mapper.gates_emitted", "sta.arcs_evaluated",
		"gsim.events", "gsim.toggles",
		"cec.sat_calls", "cec.merges", "cec.fallback_outputs",
	} {
		m[name] = c(name)
	}
	m["spice.newton.iters_per_solve"] = ratio(c("spice.newton.iterations"), c("spice.newton.solves"))
	m["spice.solver.factor_s"] = d.Histograms["spice.solver.factor.seconds"].Sum
	m["spice.solver.solve_s"] = d.Histograms["spice.solver.solve.seconds"].Sum
	reuse := c("spice.solver.symbolic.reuse")
	m["spice.solver.symbolic.reuse_ratio"] = ratio(reuse, reuse+c("spice.solver.symbolic.builds"))
	m["sat.conflicts_per_solve"] = ratio(c("sat.conflicts"), c("sat.solves"))
	for _, p := range aigPasses {
		prefix := "aig.pass." + p
		runs, delta := c(prefix+".runs"), c(prefix+".nodes_delta")
		m[prefix+".runs"] = runs
		m[prefix+".nodes_delta"] = delta
		m[prefix+".removed_per_run"] = ratio(-delta, runs)
	}
	return m
}

// workCounts picks the deterministic work counters out of a pass's registry
// delta.
func workCounts(d *obs.Snapshot) map[string]float64 {
	m := map[string]float64{}
	for _, name := range workCounters {
		m[name] = float64(d.Counters[name])
	}
	return m
}

// spanBusy turns the obs tracer's per-name totals into busy seconds of the
// layer spans the program already opens. Busy time sums every span, so
// concurrent spans (charlib arcs on the worker pool) count once per worker.
func spanBusy(totals map[string]obs.SpanTotal) map[string]float64 {
	m := map[string]float64{}
	for _, name := range []string{
		"charlib.cell", "charlib.arc", "charlib.leakage",
		"synth.c2rs", "synth.power_stage", "mapper.map",
		"sta.analyze", "power.analyze",
	} {
		m[name+".busy_s"] = totals[name].Total.Seconds()
	}
	return m
}

// ownSpanMetrics reads the benchmark's own spans around public calls.
func ownSpanMetrics(root *span) map[string]float64 {
	cmp := root.durations("synth.compare")
	m := map[string]float64{
		"charlib.warm_load_s":  root.busy("charlib.warm_load"),
		"gsim.run_s":           root.busy("gsim.run"),
		"gsim.annotate_s":      root.busy("gsim.annotate"),
		"cec.check_s":          root.busy("cec.check"),
		"bench.unattributed_s": unattributed(root),
	}
	if len(cmp) > 0 {
		m["synth.compare_s.p50"] = median(cmp)
		m["synth.compare_s.max"] = sorted(cmp)[len(cmp)-1]
	}
	return m
}

// unattributed is the pass time spent outside every layer call: the self
// time of each benchmark span that wraps other spans (leaf spans are the
// layer calls themselves). It stays near 0 when the per-layer figures
// account for the whole pass.
func unattributed(root *span) float64 {
	var sum float64
	root.walk(func(s *span) {
		if len(s.children) > 0 {
			sum += s.self()
		}
	})
	return sum
}

// ratio is num/den, or 0 when there is nothing to divide by.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
