// Command perfbench is the repository benchmark. One run builds a
// workload's inputs from a seed, times passes over it for a fixed window,
// checks every output, and prints its metrics; the last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the root of the checkout (perfbench/run.sh builds it there):
//
//	bash perfbench/run.sh --workload char --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end figures of untraced
// passes. With --trace 1 the run alternates traced and untraced passes and
// reports per-layer figures from the traced ones, read from the obs
// registry and tracer plus the benchmark's own spans around public calls.
// See README.md for the workloads and what each metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// workload is one benchmark input set.
type workload interface {
	// setup builds the pass inputs from the seed. It is timed, and run
	// several times per run; the state of the last call is used.
	setup(seed int64) error
	// pass runs one timed pass. sp is nil in untraced passes.
	pass(ctx context.Context, sp *span) error
	// verify checks the outputs of the pass that just ran, outside the
	// timed window. It returns the operations the pass attempted, the
	// failed ones, and the pass's fingerprint: outputs and work counts that
	// must repeat exactly in every pass of the run.
	verify() (ops int, failed []string, fingerprint map[string]float64, err error)
}

// simulator is a workload with simulated (modelled-circuit) results,
// reported by traced runs next to the layer figures.
type simulator interface {
	simulated() map[string]float64
}

// layerProbe is a workload that times a layer directly in traced runs.
type layerProbe interface {
	probe() map[string]float64
}

var workloads = map[string]func() workload{
	"char":    func() workload { return &charWorkload{} },
	"fig3":    func() workload { return &fig3Workload{} },
	"signoff": func() workload { return &signoffWorkload{} },
}

// setup_s is the median of many timed set-ups. The first batch runs before
// the passes: at least minSetups set-ups, and more (up to maxBatch) while
// the batch took under setupBatch seconds. Set-ups cheaper than cheapSetup
// run another batch after every pass, so their samples span the whole run
// rather than one moment of it: the host's speed changes over seconds, and
// a median taken from a single moment would jump with it.
const (
	minSetups  = 3
	maxBatch   = 100
	setupBatch = 0.2 // seconds
	cheapSetup = 0.05
)

// setupTimer times a workload's set-up.
type setupTimer struct {
	w       workload
	seed    int64
	samples []float64
}

// batch runs and times one batch of at least min set-ups.
func (st *setupTimer) batch(min int) error {
	spent := 0.0
	for n := 0; n < min || (spent < setupBatch && n < maxBatch); n++ {
		runtime.GC() // no collection of earlier garbage inside the timing
		t0 := time.Now()
		if err := st.w.setup(st.seed); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0).Seconds()
		st.samples = append(st.samples, d)
		spent += d
	}
	return nil
}

// heldOutSeed is the seed later claims must also hold on; it is never used
// while tuning a change.
const heldOutSeed = 7

// passSample is one pass's record.
type passSample struct {
	Traced      bool               `json:"traced"`
	Cost        passCost           `json:"cost"`
	Fingerprint map[string]float64 `json:"-"`
	Layers      map[string]float64 `json:"layers,omitempty"`
	Work        map[string]float64 `json:"work,omitempty"`
	Ops         int                `json:"ops"`
	Failed      []string           `json:"failed,omitempty"`
}

type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: char, fig3 or signoff")
	seed := flag.Int64("seed", 1, fmt.Sprintf("workload seed (held-out seed: %d)", heldOutSeed))
	seconds := flag.Float64("seconds", 20, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 = per-layer metrics from a traced run, 0 = end-to-end metrics")
	flag.Parse()

	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool) error {
	build, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want char, fig3 or signoff)", name)
	}
	tag := machine()
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%t\n", name, seed, seconds, traced)
	fmt.Printf("machine: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s tree=%s\n",
		tag.CPU, tag.NProc, tag.GOMAXPROCS, tag.Go, tag.Commit, tag.Tree)

	w := build()
	st := &setupTimer{w: w, seed: seed}
	if err := st.batch(minSetups); err != nil {
		return err
	}
	samples, err := measure(w, seconds, traced, st)
	if err != nil {
		return err
	}
	setups := st.samples
	fmt.Printf("setup: median %.4f s over %d set-ups (host)\n", median(setups), len(setups))
	attempted, failed := score(samples)

	var metrics map[string]float64
	var units []metric
	var spread map[string][]float64 // end-to-end samples behind each median
	if traced {
		metrics, err = layerReport(w, samples)
		if err != nil {
			return err
		}
		units = perLayer
	} else {
		spread = endToEndSamples(samples, setups)
		metrics = map[string]float64{}
		for k, xs := range spread {
			metrics[k] = median(xs)
		}
		units = endToEnd
	}
	if s, ok := w.(simulator); ok {
		printSimulated(s.simulated())
	}
	out := result{
		Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: map[string]map[string]any{},
	}
	fmt.Printf("metrics (median over %d %s passes):\n", countPasses(samples, traced), passKind(traced))
	for _, m := range units {
		v := metrics[m.name]
		fmt.Printf("  %-36s %14.6g %s", m.name, v, m.unit)
		if xs := spread[m.name]; len(xs) > 0 {
			q1, _, q3 := quartiles(xs)
			fmt.Printf("  (quartiles %.6g .. %.6g, %d samples)", q1, q3, len(xs))
		}
		fmt.Println()
		out.Metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	for _, s := range samples {
		for _, f := range s.Failed {
			fmt.Printf("FAILED: %s\n", f)
		}
	}
	fmt.Printf("operations: %d attempted, %d failed\n", attempted, failed)

	rec, err := json.Marshal(map[string]any{
		"workload": name, "seed": seed, "seconds": seconds, "traced": traced,
		"machine": tag, "setup_s": setups, "passes": samples, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Printf("record: %s\n", rec)
	last, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

// measure runs passes until the window is spent, timing more set-ups
// between passes when they are cheap. Traced runs alternate
// traced and untraced passes (traced first) and run at least two traced
// passes, so their work counts can be compared, and one untraced pass, so
// tracing overhead can be measured.
func measure(w workload, seconds float64, traced bool, st *setupTimer) ([]passSample, error) {
	start := time.Now()
	var samples []passSample
	for i := 0; ; i++ {
		minPasses := 1
		if traced {
			minPasses = 3
		}
		if i >= minPasses && time.Since(start).Seconds() >= seconds {
			break
		}
		s, err := runPass(w, traced && i%2 == 0)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", i+1, err)
		}
		fmt.Printf("pass %d (%s): wall %.4f s, cpu %.4f s, alloc %.4f GiB, peak rss %.1f MiB (host)\n",
			i+1, passKind(s.Traced), s.Cost.Wall, s.Cost.CPU, s.Cost.AllocBytes/(1<<30), s.Cost.PeakRSSBytes/(1<<20))
		samples = append(samples, s)
		if median(st.samples) < cheapSetup {
			if err := st.batch(1); err != nil {
				return nil, err
			}
		}
	}
	checkDeterminism(samples)
	return samples, nil
}

// runPass times one pass and verifies its outputs afterwards. A traced
// pass gets a fresh obs registry and tracer and the benchmark's own spans.
func runPass(w workload, traced bool) (passSample, error) {
	s := passSample{Traced: traced}
	var root *span
	var before *obs.Snapshot
	if traced {
		obs.EnableMetrics()
		obs.ResetTracing()
		before = obs.Metrics().Snapshot()
	}
	m, err := startMeter()
	if err != nil {
		return s, err
	}
	if traced {
		root = newSpan("pass")
	}
	passErr := w.pass(context.Background(), root)
	root.finish()
	s.Cost, err = m.stop()
	if err != nil {
		return s, err
	}
	if traced {
		d := obs.Metrics().Snapshot().Diff(before)
		s.Layers = registryMetrics(d)
		for k, v := range spanBusy(obs.Tracing().Totals()) {
			s.Layers[k] = v
		}
		for k, v := range ownSpanMetrics(root) {
			s.Layers[k] = v
		}
		s.Layers["runtime.gc_cpu_s"] = s.Cost.GCCPU
		s.Layers["spice.alloc_b_per_solve"] = ratio(s.Cost.AllocBytes, s.Layers["spice.newton.solves"])
		s.Layers["gsim.events_per_s"] = ratio(s.Layers["gsim.events"], s.Layers["gsim.run_s"])
		if s.Layers["charlib.cell.busy_s"] > 0 {
			// Pool utilization from CPU time: the arc spans also cover time
			// spent queued for a pool slot, so their busy sum overstates it.
			s.Layers["charlib.pool_util"] = s.Cost.CPU / (s.Cost.Wall * float64(poolWorkers()))
		}
		s.Work = workCounts(d)
		obs.DisableTracing()
		obs.DisableMetrics()
	}
	if passErr != nil {
		return s, passErr
	}
	s.Ops, s.Failed, s.Fingerprint, err = w.verify()
	return s, err
}

// checkDeterminism flags every pass whose fingerprint, or (for traced
// passes) work counts, differ from the first pass of the same kind. Such a
// pass fails as a whole.
func checkDeterminism(samples []passSample) {
	var first, firstTraced *passSample
	for i := range samples {
		s := &samples[i]
		if first == nil {
			first = s
		} else if k := diffKey(first.Fingerprint, s.Fingerprint); k != "" {
			s.Failed = append(s.Failed, fmt.Sprintf("nondeterministic pass: %s differs from pass 1", k))
		}
		if !s.Traced {
			continue
		}
		if firstTraced == nil {
			firstTraced = s
		} else if k := diffKey(firstTraced.Work, s.Work); k != "" {
			s.Failed = append(s.Failed, fmt.Sprintf("nondeterministic work count: %s differs from pass 1", k))
		}
	}
}

// diffKey names the first key (in sorted order) whose value differs
// between a and b, or "" when they agree.
func diffKey(a, b map[string]float64) string {
	keys := map[string]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	var names []string
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		va, oka := a[k]
		vb, okb := b[k]
		if oka != okb || math.Float64bits(va) != math.Float64bits(vb) {
			return k
		}
	}
	return ""
}

// score counts attempted and failed operations over all passes. A pass
// flagged as nondeterministic fails every operation it attempted.
func score(samples []passSample) (attempted, failed int) {
	for _, s := range samples {
		attempted += s.Ops
		bad := 0
		for _, f := range s.Failed {
			if strings.HasPrefix(f, "nondeterministic") {
				bad = s.Ops
				break
			}
			bad++
		}
		if bad > s.Ops {
			bad = s.Ops
		}
		failed += bad
	}
	return attempted, failed
}

// endToEndSamples lists every end-to-end metric's samples: one per pass,
// and one per set-up for setup_s.
func endToEndSamples(samples []passSample, setups []float64) map[string][]float64 {
	m := map[string][]float64{"setup_s": setups}
	for _, s := range samples {
		m["wall_s"] = append(m["wall_s"], s.Cost.Wall)
		m["cpu_s"] = append(m["cpu_s"], s.Cost.CPU)
		m["alloc_gib"] = append(m["alloc_gib"], s.Cost.AllocBytes/(1<<30))
		m["peak_rss_mib"] = append(m["peak_rss_mib"], s.Cost.PeakRSSBytes/(1<<20))
	}
	return m
}

// layerReport takes the median of every per-layer figure over the traced
// passes, adds the workload's probes and simulated results, and the
// tracing overhead: traced over untraced median wall time.
func layerReport(w workload, samples []passSample) (map[string]float64, error) {
	per := map[string][]float64{}
	var tracedWall, plainWall []float64
	for _, s := range samples {
		if !s.Traced {
			plainWall = append(plainWall, s.Cost.Wall)
			continue
		}
		tracedWall = append(tracedWall, s.Cost.Wall)
		for k, v := range s.Layers {
			per[k] = append(per[k], v)
		}
	}
	out := map[string]float64{}
	for _, m := range perLayer {
		out[m.name] = 0
	}
	for k, vs := range per {
		out[k] = median(vs)
	}
	out["trace.overhead_pct"] = 100 * (median(tracedWall)/median(plainWall) - 1)
	if p, ok := w.(layerProbe); ok {
		for k, v := range p.probe() {
			out[k] = v
		}
	}
	if s, ok := w.(simulator); ok {
		for k, v := range s.simulated() {
			out[k] = v
		}
	}
	for _, m := range perLayer {
		if v := out[m.name]; math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.name, v)
		}
	}
	return out, nil
}

func countPasses(samples []passSample, traced bool) int {
	n := 0
	for _, s := range samples {
		if s.Traced == traced {
			n++
		}
	}
	return n
}

func passKind(traced bool) string {
	if traced {
		return "traced"
	}
	return "untraced"
}
