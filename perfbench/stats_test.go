package main

import (
	"encoding/json"
	"math"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	xs := []float64{5, 1, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median odd = %g, want 3", got)
	}
	if xs[0] != 5 {
		t.Errorf("median reordered its input: %v", xs)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Errorf("median of nothing should be NaN")
	}
}

// The expected cut points are what Python's statistics.quantiles(xs, n=4)
// returns for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 3, 2, 1}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 3}, [3]float64{0.5, 2, 3.5}},
		{[]float64{10, 20, 30, 40, 50}, [3]float64{15, 30, 45}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %g %g %g, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}

// at builds a finished span over [a, b] seconds after t0.
func at(t0 time.Time, name string, a, b float64) *span {
	return &span{
		name:  name,
		start: t0.Add(time.Duration(a * float64(time.Second))),
		end:   t0.Add(time.Duration(b * float64(time.Second))),
	}
}

func TestSelfAndBusyWithOverlappingChildren(t *testing.T) {
	t0 := time.Now()
	parent := at(t0, "cell", 0, 10)
	// Two concurrent children overlap on [2, 4]; a third starts inside the
	// parent and outlives it, so only [8, 10] of it is inside.
	parent.children = []*span{
		at(t0, "arc", 1, 4),
		at(t0, "arc", 2, 6),
		at(t0, "arc", 8, 12),
	}
	// Covered: [1, 6] and [8, 10] = 7 s, counted once despite the overlap.
	if got := parent.self(); !near(got, 3) {
		t.Errorf("self = %g, want 3", got)
	}
	// Busy time sums every arc, so it exceeds the parent's wall time.
	if got := parent.busy("arc"); !near(got, 3+4+4) {
		t.Errorf("busy(arc) = %g, want 11", got)
	}
	if got := parent.busy("cell"); !near(got, 10) {
		t.Errorf("busy(cell) = %g, want 10", got)
	}
	// A child fully covering the parent leaves no self time.
	full := at(t0, "p", 2, 3)
	full.children = []*span{at(t0, "c", 1, 4), at(t0, "c", 2.5, 2.7)}
	if got := full.self(); !near(got, 0) {
		t.Errorf("self under a covering child = %g, want 0", got)
	}
	// Nested container self times add up to the unattributed time.
	root := at(t0, "pass", 0, 20)
	root.children = []*span{parent, at(t0, "leaf", 10, 15)}
	if got := unattributed(root); !near(got, 5+3) {
		t.Errorf("unattributed = %g, want 8", got)
	}
}

func TestSpansFromConcurrentGoroutines(t *testing.T) {
	root := newSpan("pass")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := root.child("work")
			time.Sleep(5 * time.Millisecond)
			c.finish()
		}()
	}
	wg.Wait()
	root.finish()
	if n := len(root.durations("work")); n != 8 {
		t.Fatalf("recorded %d concurrent children, want 8", n)
	}
	wall := root.seconds()
	if busy := root.busy("work"); busy < 8*0.005 {
		t.Errorf("busy = %g, want at least 0.04", busy)
	}
	if self := root.self(); self < 0 || self > wall {
		t.Errorf("self = %g outside [0, %g]", self, wall)
	}
	// A nil span (untraced pass) ignores every call.
	var none *span
	none.child("x").finish()
	if len(none.durations("x")) != 0 {
		t.Errorf("nil span recorded work")
	}
}

func TestRegistryMetricsFromCounterDiff(t *testing.T) {
	r := obs.NewRegistry()
	// Work done before the pass must not leak into the pass's figures.
	r.Counter("spice.newton.solves").Add(100)
	r.Counter("spice.newton.iterations").Add(500)
	r.Histogram("spice.solver.factor.seconds").Observe(1.5)
	before := r.Snapshot()

	r.Counter("spice.newton.solves").Add(10)
	r.Counter("spice.newton.iterations").Add(25)
	r.Counter("spice.solver.symbolic.builds").Add(1)
	r.Counter("spice.solver.symbolic.reuse").Add(3)
	r.Histogram("spice.solver.factor.seconds").Observe(0.25)
	r.Histogram("spice.solver.factor.seconds").Observe(0.5)
	r.Counter("aig.pass.rewrite.runs").Add(4)
	r.Counter("aig.pass.rewrite.nodes_delta").Add(-40)
	r.Counter("sat.solves").Add(8)
	r.Counter("sat.conflicts").Add(20)
	d := r.Snapshot().Diff(before)

	m := registryMetrics(d)
	want := map[string]float64{
		"spice.newton.solves":               10,
		"spice.newton.iterations":           25,
		"spice.newton.iters_per_solve":      2.5,
		"spice.solver.factor_s":             0.75,
		"spice.solver.solve_s":              0,
		"spice.solver.symbolic.builds":      1,
		"spice.solver.symbolic.reuse_ratio": 0.75,
		"aig.pass.rewrite.runs":             4,
		"aig.pass.rewrite.nodes_delta":      -40,
		"aig.pass.rewrite.removed_per_run":  10,
		"aig.pass.resub.removed_per_run":    0, // never ran: no division by zero
		"sat.conflicts_per_solve":           2.5,
		"gsim.events":                       0,
	}
	for k, v := range want {
		if got, ok := m[k]; !ok || !near(got, v) {
			t.Errorf("%s = %g (present %t), want %g", k, got, ok, v)
		}
	}
	w := workCounts(d)
	if len(w) != len(workCounters) || w["spice.newton.solves"] != 10 || w["aig.pass.rewrite.nodes_delta"] != -40 {
		t.Errorf("workCounts = %v", w)
	}
}

func TestSpanBusyFromTracerTotals(t *testing.T) {
	totals := map[string]obs.SpanTotal{
		"charlib.arc": {Count: 3, Total: 1500 * time.Millisecond},
		"mapper.map":  {Count: 1, Total: 250 * time.Millisecond},
	}
	m := spanBusy(totals)
	if !near(m["charlib.arc.busy_s"], 1.5) || !near(m["mapper.map.busy_s"], 0.25) || m["sta.analyze.busy_s"] != 0 {
		t.Errorf("spanBusy = %v", m)
	}
}

func TestDeterminismFailsWholePass(t *testing.T) {
	samples := []passSample{
		{Ops: 4, Fingerprint: map[string]float64{"a": 1}, Traced: true, Work: map[string]float64{"sat.solves": 3}},
		{Ops: 4, Fingerprint: map[string]float64{"a": 1}},
		{Ops: 4, Fingerprint: map[string]float64{"a": 1}, Traced: true, Work: map[string]float64{"sat.solves": 4}},
		{Ops: 4, Fingerprint: map[string]float64{"a": 2}, Failed: []string{"x: bad"}},
		{Ops: 4, Fingerprint: map[string]float64{"a": 1}, Failed: []string{"y: bad"}},
	}
	checkDeterminism(samples)
	if len(samples[1].Failed) != 0 {
		t.Errorf("identical pass flagged: %v", samples[1].Failed)
	}
	if len(samples[2].Failed) != 1 {
		t.Errorf("traced pass with different work counts not flagged: %v", samples[2].Failed)
	}
	attempted, failed := score(samples)
	// Passes 3 and 4 fail whole (nondeterministic); pass 5 fails one op.
	if attempted != 20 || failed != 4+4+1 {
		t.Errorf("score = %d attempted, %d failed; want 20, 9", attempted, failed)
	}
	if k := diffKey(map[string]float64{"a": 1, "b": 2}, map[string]float64{"a": 1}); k != "b" {
		t.Errorf("diffKey = %q, want b", k)
	}
}

// BENCHMARK.json at the repository root must name exactly the metrics the
// driver prints, with the same units.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, driver prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, driver %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workload {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %s", w.Name)
		}
	}
}
