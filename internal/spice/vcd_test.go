package spice

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// rcWaveform builds a small RC charging circuit and runs a short transient.
func rcWaveform(t *testing.T) *Waveform {
	t.Helper()
	c := New(300)
	in := c.Node("in")
	out := c.Node("out")
	vdd := c.Node("vdd")
	c.AddVSource(in, Ground, Pulse(0, 1.0, 1e-9, 0.1e-9, 0.1e-9, 10e-9, 20e-9))
	c.AddVSource(vdd, Ground, DC(1.0))
	c.AddResistor(in, out, 1e3)
	c.AddCapacitor(out, Ground, 1e-12)
	c.AddResistor(vdd, Ground, 1e6)
	wf, err := c.Transient(5e-9, 0.05e-9)
	if err != nil {
		t.Fatalf("Transient: %v", err)
	}
	return wf
}

func TestWriteVCD(t *testing.T) {
	wf := rcWaveform(t)
	var buf bytes.Buffer
	if err := wf.WriteVCD(&buf, "test", nil); err != nil {
		t.Fatalf("WriteVCD: %v", err)
	}
	s := buf.String()
	for _, want := range []string{
		"$timescale 1fs $end",
		"$var real 64 ! in $end",
		"$var real 64 \" out $end",
		"$var real 64 # vdd $end",
		"$enddefinitions $end",
		"#0\n$dumpvars\n",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("VCD missing %q:\n%s", want, s)
		}
	}
	// The DC-held node is constant at 1 V: exactly one value change. The RC
	// node charges: many changes.
	if n := strings.Count(s, " #\n"); n != 1 {
		t.Errorf("constant node dumped %d times, want 1", n)
	}
	if n := strings.Count(s, " \"\n"); n < 10 {
		t.Errorf("charging node dumped only %d times", n)
	}
	// Final timestamp must be 5 ns in femtoseconds.
	if !strings.Contains(s, "#5000000") {
		t.Errorf("missing 5 ns timestamp in:\n%s", s)
	}
}

func TestWriteVCDSelectsNodes(t *testing.T) {
	wf := rcWaveform(t)
	var buf bytes.Buffer
	if err := wf.WriteVCD(&buf, "", []string{"out"}); err != nil {
		t.Fatalf("WriteVCD: %v", err)
	}
	s := buf.String()
	if strings.Contains(s, " in ") {
		t.Errorf("unselected node dumped:\n%s", s)
	}
	if err := wf.WriteVCD(&buf, "", []string{"nope"}); err == nil {
		t.Errorf("unknown node did not error")
	}
}

// legacyWriteVCD is the pre-refactor analog VCD writer, kept verbatim as the
// byte-level reference: the shared internal/vcd encoder must reproduce its
// output exactly, whatever the waveform.
func legacyWriteVCD(w *Waveform, out io.Writer, date string, nodes []string) error {
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
	legacyCode := func(i int) string {
		const lo, n = 33, 94
		code := []byte{byte(lo + i%n)}
		for i /= n; i > 0; i /= n {
			code = append(code, byte(lo+i%n))
		}
		return string(code)
	}
	legacyIdent := func(s string) string {
		outB := make([]byte, len(s))
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c <= ' ' || c == 0x7f {
				c = '_'
			}
			outB[i] = c
		}
		if len(outB) == 0 {
			return "top"
		}
		return string(outB)
	}
	var b bytes.Buffer
	if date != "" {
		fmt.Fprintf(&b, "$date %s $end\n", date)
	}
	fmt.Fprintf(&b, "$version cryospice transient $end\n")
	fmt.Fprintf(&b, "$timescale 1fs $end\n")
	fmt.Fprintf(&b, "$scope module cryospice $end\n")
	for i, n := range nodes {
		fmt.Fprintf(&b, "$var real 64 %s %s $end\n", legacyCode(i), legacyIdent(n))
	}
	fmt.Fprintf(&b, "$upscope $end\n$enddefinitions $end\n")

	last := make([]float64, len(ids))
	for s := range w.Time {
		stamped := false
		for i, id := range ids {
			v := w.sample(s)[id]
			if s > 0 && v == last[i] {
				continue
			}
			if !stamped {
				fmt.Fprintf(&b, "#%d\n", int64(w.Time[s]*1e15+0.5))
				if s == 0 {
					fmt.Fprintf(&b, "$dumpvars\n")
				}
				stamped = true
			}
			fmt.Fprintf(&b, "r%.9g %s\n", v, legacyCode(i))
			last[i] = v
		}
		if s == 0 && stamped {
			fmt.Fprintf(&b, "$end\n")
		}
	}
	_, err := out.Write(b.Bytes())
	return err
}

// TestWriteVCDByteIdentical pins the refactored writer to the legacy
// implementation byte for byte, on both a solver-produced waveform and a
// synthetic one exercising elision and quiet-sample corner cases.
func TestWriteVCDByteIdentical(t *testing.T) {
	for name, wf := range map[string]*Waveform{
		"rc":        rcWaveform(t),
		"synthetic": syntheticWaveform(),
	} {
		for _, sel := range [][]string{nil, {"out"}} {
			var got, want bytes.Buffer
			if err := wf.WriteVCD(&got, "d", sel); err != nil {
				t.Fatalf("%s: WriteVCD: %v", name, err)
			}
			if err := legacyWriteVCD(wf, &want, "d", sel); err != nil {
				t.Fatalf("%s: legacy: %v", name, err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%s (nodes=%v): refactored VCD differs from legacy:\n--- got ---\n%s\n--- want ---\n%s",
					name, sel, got.String(), want.String())
			}
		}
	}
}

// syntheticWaveform hand-builds a waveform (no solver) so the golden file is
// exact on every platform: a stepping node, a constant node, and a node that
// goes quiet mid-trace (whole samples with no changes must leave no
// timestamp).
func syntheticWaveform() *Waveform {
	c := New(300)
	c.Node("in")
	c.Node("out")
	c.Node("vdd")
	wf := &Waveform{circuit: c, n: 3}
	vals := [][3]float64{
		{0, 0, 1.1},
		{0.5, 0.25, 1.1},
		{0.5, 0.25, 1.1}, // quiet sample: no timestamp in the dump
		{1.0, 0.25, 1.1},
		{1.0, 0.875, 1.1},
	}
	for s, v := range vals {
		wf.Time = append(wf.Time, float64(s)*1e-12)
		wf.data = append(wf.data, v[0], v[1], v[2])
	}
	return wf
}

// TestWriteVCDGolden compares the synthetic waveform's dump against the
// committed golden file (regenerate with UPDATE_GOLDEN=1 go test).
func TestWriteVCDGolden(t *testing.T) {
	wf := syntheticWaveform()
	var buf bytes.Buffer
	if err := wf.WriteVCD(&buf, "golden", nil); err != nil {
		t.Fatalf("WriteVCD: %v", err)
	}
	path := filepath.Join("testdata", "synthetic.vcd.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("VCD output drifted from golden %s:\n--- got ---\n%s\n--- want ---\n%s",
			path, buf.String(), string(want))
	}
}

// TestWriteVCDQuietTail ensures a trace whose final samples are all quiet
// still ends cleanly (no dangling timestamp, $dumpvars closed).
func TestWriteVCDQuietTail(t *testing.T) {
	c := New(300)
	c.Node("a")
	wf := &Waveform{circuit: c,
		Time: []float64{0, 1e-12, 2e-12},
		n:    1,
		data: []float64{0.5, 0.5, 0.5},
	}
	var buf bytes.Buffer
	if err := wf.WriteVCD(&buf, "", nil); err != nil {
		t.Fatalf("WriteVCD: %v", err)
	}
	s := buf.String()
	if strings.Count(s, "#") != 1 {
		t.Errorf("quiet samples produced extra timestamps:\n%s", s)
	}
	if !strings.HasSuffix(s, "$end\n") {
		t.Errorf("dumpvars block not closed:\n%s", s)
	}
}
