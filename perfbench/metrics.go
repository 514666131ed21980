package main

// metric names one reported figure. Host-time metrics measure how long the
// program took to run; simulated metrics (unit suffix _sim, or a QoR unit)
// are properties of the modelled circuit and must not change when only the
// program's speed changes.
type metric struct {
	name, unit string
}

// endToEnd are the figures a user of the flow sees, reported by untraced
// runs (--trace 0). Each is the median over the run's passes.
var endToEnd = []metric{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"alloc_gib", "GiB"},
	{"peak_rss_mib", "MiB"},
	{"setup_s", "s"},
}

// perLayer are the figures of single layers, reported by traced runs
// (--trace 1). A layer the workload does not use reports 0.
var perLayer = []metric{
	// device
	{"device.eval_ns", "ns"},
	// spice
	{"spice.newton.solves", "count"},
	{"spice.newton.iterations", "count"},
	{"spice.newton.iters_per_solve", "ratio"},
	{"spice.newton.retries", "count"},
	{"spice.gmin.ladders", "count"},
	{"spice.newton.nonconverged", "count"},
	{"spice.alloc_b_per_solve", "B"},
	// linalg (the sparse solver behind spice)
	{"spice.solver.factor_s", "s"},
	{"spice.solver.solve_s", "s"},
	{"spice.solver.symbolic.builds", "count"},
	{"spice.solver.symbolic.reuse_ratio", "ratio"},
	{"spice.solver.repivots", "count"},
	// charlib
	{"charlib.cell.busy_s", "s"},
	{"charlib.arc.busy_s", "s"},
	{"charlib.leakage.busy_s", "s"},
	{"charlib.pool_util", "ratio"},
	{"charlib.warm_load_s", "s"},
	{"charlib.arcs", "count"},
	// aig
	{"aig.pass.balance.runs", "count"},
	{"aig.pass.balance.nodes_delta", "count"},
	{"aig.pass.balance.removed_per_run", "ratio"},
	{"aig.pass.rewrite.runs", "count"},
	{"aig.pass.rewrite.nodes_delta", "count"},
	{"aig.pass.rewrite.removed_per_run", "ratio"},
	{"aig.pass.refactor.runs", "count"},
	{"aig.pass.refactor.nodes_delta", "count"},
	{"aig.pass.refactor.removed_per_run", "ratio"},
	{"aig.pass.resub.runs", "count"},
	{"aig.pass.resub.nodes_delta", "count"},
	{"aig.pass.resub.removed_per_run", "ratio"},
	// synth
	{"synth.c2rs.busy_s", "s"},
	{"synth.power_stage.busy_s", "s"},
	{"synth.compare_s.p50", "s"},
	{"synth.compare_s.max", "s"},
	// sat
	{"sat.solves", "count"},
	{"sat.conflicts", "count"},
	{"sat.conflicts_per_solve", "ratio"},
	// mapper
	{"mapper.map.busy_s", "s"},
	{"mapper.gates_emitted", "count"},
	// sta and power
	{"sta.analyze.busy_s", "s"},
	{"sta.arcs_evaluated", "count"},
	{"power.analyze.busy_s", "s"},
	// gsim
	{"gsim.run_s", "s"},
	{"gsim.annotate_s", "s"},
	{"gsim.events", "count"},
	{"gsim.events_per_s", "1/s"},
	{"gsim.toggles", "count"},
	// cec
	{"cec.check_s", "s"},
	{"cec.sat_calls", "count"},
	{"cec.merges", "count"},
	{"cec.fallback_outputs", "count"},
	// runtime and tracing
	{"runtime.gc_cpu_s", "s"},
	{"trace.overhead_pct", "%"},
	{"bench.unattributed_s", "s"},
	// simulated Fig 3 QoR (fig3 workload)
	{"fig3_saving_pad_pct", "%"},
	{"fig3_saving_pda_pct", "%"},
	{"fig3_power_uw", "uW"},
	{"fig3_area", "fins"},
	{"fig3_delay_ps", "ps_sim"},
}

// aigPasses are the AIG optimization passes whose per-pass counters the
// registry carries (internal/aig startPass).
var aigPasses = []string{"balance", "rewrite", "refactor", "resub"}

// workCounters are the registry counters that must repeat exactly between
// traced passes of one run: the machine-independent signal of how much work
// the layers did.
var workCounters = []string{
	"spice.newton.solves",
	"spice.newton.iterations",
	"spice.solver.symbolic.builds",
	"sat.solves",
	"sat.conflicts",
	"aig.pass.balance.nodes_delta",
	"aig.pass.rewrite.nodes_delta",
	"aig.pass.refactor.nodes_delta",
	"aig.pass.resub.nodes_delta",
	"mapper.gates_emitted",
	"gsim.events",
	"gsim.toggles",
}
