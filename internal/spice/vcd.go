package spice

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/vcd"
)

// WriteVCD dumps the waveform as a Value Change Dump file (IEEE 1364) with
// every node voltage declared as a real variable, so analog transients open
// directly in GTKWave and friends. The timescale is 1 fs: VCD timestamps are
// integers, and femtoseconds keep sub-picosecond transition detail without
// overflowing int64 for any realistic transient window. Samples that repeat
// the previous value are elided per VCD convention.
//
// The encoding itself lives in internal/vcd, shared with the gate-level
// simulator's logic dumps; this wrapper only maps circuit nodes onto real
// variables and sample times onto femtosecond timestamps.
//
// nodes selects which signals to dump; nil dumps every non-ground node in
// the circuit, sorted by name.
func (w *Waveform) WriteVCD(out io.Writer, date string, nodes []string) error {
	if len(w.Time) == 0 {
		return fmt.Errorf("spice: empty waveform, nothing to dump")
	}
	if nodes == nil {
		nodes = append(nodes, w.circuit.names...)
		sort.Strings(nodes)
	}
	ids := make([]NodeID, len(nodes))
	for i, n := range nodes {
		id, ok := w.circuit.LookupNode(n)
		if !ok {
			return fmt.Errorf("spice: vcd: node %q not in circuit", n)
		}
		ids[i] = id
	}

	enc := vcd.NewWriter(out)
	enc.Date(date)
	enc.Version("cryospice transient")
	enc.Timescale("1fs")
	enc.Scope("cryospice")
	vars := make([]vcd.Var, len(nodes))
	for i, n := range nodes {
		vars[i] = enc.Real(n)
	}
	enc.EndHeader()

	for s := range w.Time {
		enc.Time(int64(w.Time[s]*1e15 + 0.5))
		for i, id := range ids {
			enc.SetReal(vars[i], w.sample(s)[id])
		}
	}
	return enc.Close()
}
