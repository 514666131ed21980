package qor

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/aig"
	"repro/internal/epfl"
	"repro/internal/flow"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sta"
	"repro/internal/synth"
)

// RunOptions configures one cryobench recording run.
type RunOptions struct {
	Profile Profile
	Repeat  int   // repetitions; 0 = profile default
	Seed    int64 // flow seed (determinism anchor); 0 = 1
	// ClockSec is the reference clock for WNS/TNS; 0 = 1 ns.
	ClockSec float64
	// UseTestlib swaps the SPICE-characterized libraries for the fast
	// synthetic ones (the CI configuration).
	UseTestlib bool
	CacheDir   string // liberty cache dir for characterized corners
	// Workers bounds the characterization worker pool when corners are
	// SPICE-characterized (0 = GOMAXPROCS). Does not affect the QoR metrics
	// or the cache key — only wall-clock.
	Workers int
	// CreatedAt stamps the baseline (left empty for golden-stable output).
	CreatedAt string
	// Progress, when non-nil, receives human-readable progress lines.
	Progress func(format string, args ...any)
}

// Run executes the profile and returns the recorded baseline.
//
// Instrumentation contract: Run enables the global obs metrics registry and
// — per repetition — swaps in a fresh tracer (obs.ResetTracing), so that
// per-stage wall times and engine-counter deltas are attributable to one
// repetition. A -trace flag on the calling binary therefore captures only
// the final repetition's span forest.
func Run(ctx context.Context, opt RunOptions) (*Baseline, error) {
	if opt.Repeat <= 0 {
		opt.Repeat = opt.Profile.Repeat
	}
	if opt.Repeat <= 0 {
		opt.Repeat = 1
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	if opt.ClockSec == 0 {
		opt.ClockSec = 1e-9
	}
	progress := opt.Progress
	if progress == nil {
		progress = func(string, ...any) {}
	}
	reg := obs.EnableMetrics()
	ctx = obs.Detach(ctx)

	corners, err := loadCorners(ctx, opt)
	if err != nil {
		return nil, err
	}

	b := &Baseline{
		SchemaVersion: SchemaVersion,
		Tool:          "cryobench",
		Profile:       opt.Profile.Name,
		Repeat:        opt.Repeat,
		Seed:          opt.Seed,
		ClockSec:      opt.ClockSec,
		Testlib:       opt.UseTestlib,
		CreatedAt:     opt.CreatedAt,
		GoOSArch:      runtime.GOOS + "/" + runtime.GOARCH,
		Engine:        map[string]Stat{},
	}

	// engineSamples[name][rep] accumulates counter deltas across the
	// whole profile, one sample per repetition.
	engineSamples := map[string][]float64{}

	reps := obs.Progress("qor.reps",
		int64(len(opt.Profile.Circuits))*int64(len(opt.Profile.Scenarios))*int64(opt.Repeat))
	defer reps.Finish()

	for _, name := range opt.Profile.Circuits {
		g, err := epfl.Build(name)
		if err != nil {
			return nil, err
		}
		for _, sc := range opt.Profile.Scenarios {
			rec := Circuit{
				Name:          name,
				Scenario:      sc.String(),
				AIGNodesIn:    g.NumNodes(),
				Deterministic: true,
				StageSeconds:  map[string]Stat{},
			}
			stageSamples := map[string][]float64{}
			for rep := 0; rep < opt.Repeat; rep++ {
				tracer := obs.ResetTracing()
				before := reg.Snapshot()
				t0 := time.Now()

				// qor.rep roots each repetition's span subtree, so cost
				// attribution groups the flow stages per rep instead of
				// scattering them as top-level roots.
				repCtx, repSpan := obs.Start(ctx, "qor.rep")
				repCircuit, err := runOnce(repCtx, g, sc, corners, opt)
				repSpan.End()
				if err != nil {
					obs.J().Failure("qor", err.Error(), map[string]string{
						"circuit":  name,
						"scenario": sc.String(),
						"rep":      fmt.Sprint(rep),
					}, nil)
					return nil, fmt.Errorf("qor: %s/%s rep %d: %w", name, sc, rep, err)
				}
				wall := time.Since(t0).Seconds()
				obs.J().Event(obs.KindStageEnd, "qor.rep",
					fmt.Sprintf("%s/%s rep %d/%d", name, sc, rep+1, opt.Repeat),
					map[string]string{
						"circuit":  name,
						"scenario": sc.String(),
						"rep":      fmt.Sprint(rep),
						"seconds":  fmt.Sprintf("%.6f", wall),
					})

				if rep == 0 {
					rec.AIGNodesOpt = repCircuit.AIGNodesOpt
					rec.AIGDepthOpt = repCircuit.AIGDepthOpt
					rec.Corners = repCircuit.Corners
				} else if !sameQoR(&rec, repCircuit) {
					rec.Deterministic = false
				}

				for span, tot := range tracer.Totals() {
					stageSamples[span] = padTo(stageSamples[span], rep)
					stageSamples[span][rep] = tot.Total.Seconds()
				}
				stageSamples["rep.wall"] = padTo(stageSamples["rep.wall"], rep)
				stageSamples["rep.wall"][rep] = wall

				delta := reg.Snapshot().Diff(before)
				for cname, v := range delta.Counters {
					engineSamples[cname] = padTo(engineSamples[cname], rep)
					engineSamples[cname][rep] += float64(v)
				}
				reps.Inc()
				progress("%-12s %-10s rep %d/%d  %.3fs", name, sc, rep+1, opt.Repeat, wall)
			}
			for span, samples := range stageSamples {
				rec.StageSeconds[span] = NewStat(padTo(samples, opt.Repeat-1))
			}
			b.Circuits = append(b.Circuits, rec)
		}
	}
	for cname, samples := range engineSamples {
		b.Engine[cname] = NewStat(padTo(samples, opt.Repeat-1))
	}
	return b, nil
}

// padTo grows s (with zeros) so index rep is addressable.
func padTo(s []float64, rep int) []float64 {
	for len(s) <= rep {
		s = append(s, 0)
	}
	return s
}

func loadCorners(ctx context.Context, opt RunOptions) ([]*flow.Corner, error) {
	src := flow.Source{Testlib: opt.UseTestlib, CacheDir: opt.CacheDir, Workers: opt.Workers}
	out := make([]*flow.Corner, 0, len(opt.Profile.Corners))
	for _, temp := range opt.Profile.Corners {
		c, err := flow.LoadCorner(ctx, temp, src)
		if err != nil {
			return nil, fmt.Errorf("qor: %w", err)
		}
		out = append(out, c)
	}
	return out, nil
}

// DefaultTopPaths is the number of critical endpoint paths recorded per
// (circuit, corner) for attribution.
const DefaultTopPaths = 3

// runOnce runs the flow for one (circuit, scenario) repetition across all
// corners and returns the QoR record.
func runOnce(ctx context.Context, g *aig.AIG, sc synth.Scenario, corners []*flow.Corner, opt RunOptions) (*Circuit, error) {
	rec := &Circuit{}
	for _, c := range corners {
		r, err := flow.Run(ctx, g, c, sc, opt.Seed, opt.ClockSec)
		if err != nil {
			return nil, err
		}
		nl, timing, rep := r.Synth.Netlist, r.Timing, r.Power
		rec.AIGNodesOpt = r.Synth.NodesPower
		rec.AIGDepthOpt = r.Synth.DepthOut
		rec.Corners = append(rec.Corners, Corner{
			TempK:        c.TempK,
			Gates:        nl.NumGates(),
			Area:         nl.Area(),
			CriticalSec:  timing.CriticalDelay,
			WNSSec:       timing.WorstSlack(opt.ClockSec),
			TNSSec:       endpointTNS(timing, nl, opt.ClockSec),
			LeakageW:     rep.Leakage,
			DynamicW:     rep.Internal + rep.Switching,
			TotalW:       rep.Total(),
			Paths:        toPathRecords(timing.TopPaths(DefaultTopPaths, opt.ClockSec)),
			PowerByClass: toClassPower(power.GroupByCell(r.Cells), rep),
		})
	}
	return rec, nil
}

// toPathRecords converts the live STA paths into the persisted schema form.
func toPathRecords(paths []sta.Path) []PathRecord {
	out := make([]PathRecord, 0, len(paths))
	for _, p := range paths {
		pr := PathRecord{
			Endpoint:   p.Endpoint,
			ArrivalSec: p.ArrivalSec,
			SlackSec:   p.SlackSec,
			Arcs:       make([]ArcRecord, 0, len(p.Arcs)),
		}
		for _, a := range p.Arcs {
			pr.Arcs = append(pr.Arcs, ArcRecord{
				FromNet:    a.FromNet,
				ToNet:      a.ToNet,
				Gate:       a.Gate,
				Cell:       a.Cell,
				Pin:        a.FromPin,
				DelaySec:   a.DelaySec,
				ArrivalSec: a.ArrivalSec,
				SlewSec:    a.SlewSec,
				LoadF:      a.LoadF,
			})
		}
		out = append(out, pr)
	}
	return out
}

// InputNetsClass is the pseudo cell class carrying primary-input net
// switching power, which no gate instance owns.
const InputNetsClass = "(input-nets)"

// toClassPower converts the power package's per-class rows into the schema
// form, adding a pseudo-class for switching power on nets no gate drives
// (primary inputs) so the breakdown covers the corner totals.
func toClassPower(classes []power.ClassPower, rep *power.Report) []ClassPower {
	out := make([]ClassPower, 0, len(classes)+1)
	var attributed float64
	for _, c := range classes {
		out = append(out, ClassPower{
			Cell:       c.Cell,
			Count:      c.Count,
			LeakageW:   c.Leakage,
			InternalW:  c.Internal,
			SwitchingW: c.Switching,
		})
		attributed += c.Switching
	}
	if resid := rep.Switching - attributed; resid > 1e-12*rep.Switching {
		out = append(out, ClassPower{Cell: InputNetsClass, SwitchingW: resid})
	}
	return out
}

// endpointTNS sums the negative endpoint (primary-output) slacks.
func endpointTNS(r *sta.Result, nl *netlist.Netlist, clock float64) float64 {
	slacks := r.Slacks(clock)
	var tns float64
	for _, out := range nl.Outputs {
		if s := slacks[nl.Resolve(out)]; s < 0 {
			tns += s
		}
	}
	return tns
}

// sameQoR reports whether a repetition reproduced the recorded QoR bit for
// bit (the flow is seeded, so it should). Path and power-class provenance
// participates: a wandering critical path is nondeterminism even when the
// scalar QoR happens to agree.
func sameQoR(rec *Circuit, rep *Circuit) bool {
	if rec.AIGNodesOpt != rep.AIGNodesOpt || rec.AIGDepthOpt != rep.AIGDepthOpt {
		return false
	}
	if len(rec.Corners) != len(rep.Corners) {
		return false
	}
	for i := range rec.Corners {
		if !cornerEqual(&rec.Corners[i], &rep.Corners[i]) {
			return false
		}
	}
	return true
}

// cornerEqual compares two corner records bit for bit, provenance included.
func cornerEqual(a, b *Corner) bool {
	if a.TempK != b.TempK || a.Gates != b.Gates || a.Area != b.Area ||
		a.CriticalSec != b.CriticalSec || a.WNSSec != b.WNSSec || a.TNSSec != b.TNSSec ||
		a.LeakageW != b.LeakageW || a.DynamicW != b.DynamicW || a.TotalW != b.TotalW {
		return false
	}
	if len(a.Paths) != len(b.Paths) || len(a.PowerByClass) != len(b.PowerByClass) {
		return false
	}
	for i := range a.Paths {
		pa, pb := &a.Paths[i], &b.Paths[i]
		if pa.Endpoint != pb.Endpoint || pa.ArrivalSec != pb.ArrivalSec ||
			pa.SlackSec != pb.SlackSec || len(pa.Arcs) != len(pb.Arcs) {
			return false
		}
		for j := range pa.Arcs {
			if pa.Arcs[j] != pb.Arcs[j] {
				return false
			}
		}
	}
	for i := range a.PowerByClass {
		if a.PowerByClass[i] != b.PowerByClass[i] {
			return false
		}
	}
	return true
}
