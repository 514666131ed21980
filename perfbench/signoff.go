package main

import (
	"context"
	"fmt"

	"repro/internal/aig"
	"repro/internal/cec"
	"repro/internal/gsim"
	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/power"
	"repro/internal/sta"
	"repro/internal/synth"
)

// signoffCircuits are synthesized p->d->a in set-up and signed off in every
// pass.
var signoffCircuits = []string{
	"multiplier", "square", "voter", "adder", "max", "bar", "mem_ctrl", "log2", "arbiter",
}

const (
	// signoffVectors is the stimulus length per netlist.
	signoffVectors = 256
	// signoffClock is the clock period for power and path slack (1 GHz,
	// the CLIs' default).
	signoffClock = 1e-9
	// signoffPaths is how many worst paths the STA report lists.
	signoffPaths = 10
)

// signoffWorkload is the `cryocec` / `cryosim -power` / `cryosta` signoff
// of fixed p->d->a netlists: equivalence proof, delay-annotated
// event-driven simulation, STA with path report, and power from the
// measured activity.
type signoffWorkload struct {
	seed int64
	lib  *liberty.Library
	aigs []*aig.AIG
	nls  []*netlist.Netlist
	refs []signoffRef // per netlist, computed on first verify
	outs []signoffOut // last pass
}

// signoffOut is what one pass produced for one netlist.
type signoffOut struct {
	cec     cec.Status
	merges  int
	bits    [][]bool
	events  int64
	toggles int64
	delay   float64
	slack   float64
	power   float64
}

// signoffRef holds the outputs that the event engine must reproduce.
type signoffRef struct {
	levelized [][]bool
	aig       [][]bool
	err       error
}

// setup builds the library and AIGs and synthesizes every netlist.
func (w *signoffWorkload) setup(seed int64) error {
	lib, ml, gs, err := buildSynthInputs(signoffCircuits)
	if err != nil {
		return err
	}
	var nls []*netlist.Netlist
	for _, g := range gs {
		res, err := synth.Synthesize(context.Background(), g, ml, synth.Options{Scenario: synth.CryoPDA, Seed: seed})
		if err != nil {
			return fmt.Errorf("synthesize %s: %w", g.Name, err)
		}
		nls = append(nls, res.Netlist)
	}
	for i, nl := range w.nls {
		if nl.NumGates() != nls[i].NumGates() || nl.Area() != nls[i].Area() {
			return fmt.Errorf("synthesis of %s is not deterministic across set-up runs", signoffCircuits[i])
		}
	}
	w.seed, w.lib, w.aigs, w.nls = seed, lib, gs, nls
	return nil
}

func (w *signoffWorkload) pass(ctx context.Context, sp *span) error {
	w.outs = w.outs[:0]
	for i, nl := range w.nls {
		o, err := w.signOff(ctx, sp.child("signoff."+signoffCircuits[i]), w.aigs[i], nl)
		if err != nil {
			return fmt.Errorf("%s: %w", signoffCircuits[i], err)
		}
		w.outs = append(w.outs, o)
	}
	return nil
}

// signOff runs every signoff step on one netlist, each in its own span.
func (w *signoffWorkload) signOff(ctx context.Context, sp *span, g *aig.AIG, nl *netlist.Netlist) (signoffOut, error) {
	defer sp.finish()
	var o signoffOut

	c := sp.child("cec.check")
	ea, err := cec.Elaborate(nl)
	if err != nil {
		c.finish()
		return o, err
	}
	v := cec.Check(ctx, g, ea, cec.Options{Seed: w.seed})
	c.finish()
	o.cec, o.merges = v.Status, v.Stats.SATMerges+v.Stats.StructMerges

	c = sp.child("gsim.compile")
	m, err := gsim.Compile(nl)
	c.finish()
	if err != nil {
		return o, err
	}
	c = sp.child("gsim.annotate")
	err = m.Annotate(ctx, w.lib, sta.Options{})
	c.finish()
	if err != nil {
		return o, err
	}
	c = sp.child("gsim.run")
	res, err := gsim.NewEvent(m, gsim.EventOptions{}).Run(ctx, m.RandomVectors(signoffVectors, w.seed))
	c.finish()
	if err != nil {
		return o, err
	}
	o.bits, o.events, o.toggles = res.OutputBits, res.Events, res.TotalToggles()

	c = sp.child("sta.analyze")
	tr, err := sta.Analyze(ctx, nl, w.lib, sta.Options{})
	if err != nil {
		c.finish()
		return o, err
	}
	paths := tr.TopPaths(signoffPaths, signoffClock)
	c.finish()
	o.delay = tr.CriticalDelay
	if len(paths) > 0 {
		o.slack = paths[0].SlackSec
	}

	c = sp.child("power.analyze")
	rep, err := power.Analyze(ctx, nl, w.lib, power.Options{ClockPeriod: signoffClock, Activity: res.Activity()})
	c.finish()
	if err != nil {
		return o, err
	}
	o.power = rep.Total()
	return o, nil
}

// verify requires an EQUAL verdict and event-engine outputs equal to the
// levelized engine's and the source AIG's on the same vectors.
func (w *signoffWorkload) verify() (int, []string, map[string]float64, error) {
	if w.refs == nil {
		for i, nl := range w.nls {
			w.refs = append(w.refs, reference(w.aigs[i], nl, w.seed))
		}
	}
	var failed []string
	fp := map[string]float64{}
	for i, o := range w.outs {
		name := signoffCircuits[i]
		ref := w.refs[i]
		switch {
		case o.cec != cec.Equal:
			failed = append(failed, fmt.Sprintf("%s: netlist is %v to its source AIG", name, o.cec))
		case ref.err != nil:
			failed = append(failed, fmt.Sprintf("%s: reference simulation: %v", name, ref.err))
		case !equalBits(o.bits, ref.levelized):
			failed = append(failed, name+": event-engine outputs differ from the levelized engine's")
		case !equalBits(o.bits, ref.aig):
			failed = append(failed, name+": event-engine outputs differ from the source AIG's")
		}
		fp[name+".merges"] = float64(o.merges)
		fp[name+".events"] = float64(o.events)
		fp[name+".toggles"] = float64(o.toggles)
		fp[name+".delay"] = o.delay
		fp[name+".slack"] = o.slack
		fp[name+".power"] = o.power
	}
	return len(w.outs), failed, fp, nil
}

// reference simulates the netlist with the levelized engine and evaluates
// the source AIG on the pass's vectors, with outputs in the model's order.
func reference(g *aig.AIG, nl *netlist.Netlist, seed int64) signoffRef {
	m, err := gsim.Compile(nl)
	if err != nil {
		return signoffRef{err: err}
	}
	vectors := m.RandomVectors(signoffVectors, seed)
	res, err := gsim.NewLevelized(m).Run(context.Background(), vectors)
	if err != nil {
		return signoffRef{err: err}
	}
	piPos := map[string]int{}
	for i := 0; i < g.NumPIs(); i++ {
		piPos[g.PIName(i)] = i
	}
	poPos := map[string]int{}
	for i := 0; i < g.NumPOs(); i++ {
		poPos[g.POName(i)] = i
	}
	in := make([]bool, g.NumPIs())
	var bits [][]bool
	for _, vec := range vectors {
		for k, name := range m.InputNames {
			p, ok := piPos[name]
			if !ok {
				return signoffRef{err: fmt.Errorf("netlist input %s not in the AIG", name)}
			}
			in[p] = vec[k]
		}
		outs := g.Eval(in)
		row := make([]bool, len(m.OutputNames))
		for k, name := range m.OutputNames {
			p, ok := poPos[name]
			if !ok {
				return signoffRef{err: fmt.Errorf("netlist output %s not in the AIG", name)}
			}
			row[k] = outs[p]
		}
		bits = append(bits, row)
	}
	return signoffRef{levelized: res.OutputBits, aig: bits}
}

func equalBits(a, b [][]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}
