package spice

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/device"
)

// ParseOptions configures netlist parsing.
type ParseOptions struct {
	Temp float64 // simulation temperature (K); .temp cards override it
}

// ParseResult is the outcome of parsing a netlist deck.
type ParseResult struct {
	Circuit *Circuit
	// Tstop/Tstep are set when the deck contains a .tran card.
	Tstop, Tstep float64
	HasTran      bool
	// Sources maps source names (upper-cased) to branch indices.
	Sources map[string]int
}

// ParseNetlist reads a SPICE-subset netlist:
//
//   - comment lines, leading title line not required
//     R<name> a b value
//     C<name> a b value
//     V<name> pos neg DC <v> | PWL(t v t v ...) | PULSE(v1 v2 td tr tf pw per)
//     I<name> from to DC <v>
//     M<name> d g s b nfet|pfet [nfin=<int>]
//     .temp <kelvin>
//     .tran <tstep> <tstop>
//     .end
//
// Values accept SPICE unit suffixes (f p n u m k meg g t).
func ParseNetlist(r io.Reader, opt ParseOptions) (*ParseResult, error) {
	if opt.Temp == 0 {
		opt.Temp = 300
	}
	c := New(opt.Temp)
	res := &ParseResult{Circuit: c, Sources: make(map[string]int)}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "*") || strings.HasPrefix(line, "//") {
			continue
		}
		if i := strings.Index(line, ";"); i >= 0 {
			line = strings.TrimSpace(line[:i])
			if line == "" {
				continue
			}
		}
		if err := parseLine(c, res, line); err != nil {
			return nil, fmt.Errorf("spice: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

func parseLine(c *Circuit, res *ParseResult, line string) error {
	fields := splitFields(line)
	if len(fields) == 0 {
		return nil
	}
	head := strings.ToUpper(fields[0])
	switch {
	case head == ".END":
		return nil
	case head == ".TEMP":
		if len(fields) < 2 {
			return fmt.Errorf(".temp needs a value")
		}
		v, err := ParseValue(fields[1])
		if err != nil {
			return err
		}
		c.Temp = v
		return nil
	case head == ".TRAN":
		if len(fields) < 3 {
			return fmt.Errorf(".tran needs tstep and tstop")
		}
		step, err := ParseValue(fields[1])
		if err != nil {
			return err
		}
		stop, err := ParseValue(fields[2])
		if err != nil {
			return err
		}
		res.Tstep, res.Tstop, res.HasTran = step, stop, true
		return nil
	case strings.HasPrefix(head, "."):
		return nil // ignore other control cards
	case head[0] == 'R':
		if len(fields) != 4 {
			return fmt.Errorf("resistor needs 2 nodes and a value")
		}
		v, err := ParseValue(fields[3])
		if err != nil {
			return err
		}
		c.AddResistor(c.Node(fields[1]), c.Node(fields[2]), v)
		c.NameLast(fields[0])
		return nil
	case head[0] == 'C':
		if len(fields) != 4 {
			return fmt.Errorf("capacitor needs 2 nodes and a value")
		}
		v, err := ParseValue(fields[3])
		if err != nil {
			return err
		}
		c.AddCapacitor(c.Node(fields[1]), c.Node(fields[2]), v)
		c.NameLast(fields[0])
		return nil
	case head[0] == 'V', head[0] == 'I':
		if len(fields) < 4 {
			return fmt.Errorf("source needs 2 nodes and a spec")
		}
		fn, err := parseSource(fields[3:])
		if err != nil {
			return err
		}
		if head[0] == 'V' {
			idx := c.AddVSource(c.Node(fields[1]), c.Node(fields[2]), fn)
			res.Sources[head] = idx
		} else {
			c.AddISource(c.Node(fields[1]), c.Node(fields[2]), fn)
		}
		c.NameLast(fields[0])
		return nil
	case head[0] == 'M':
		if len(fields) < 6 {
			return fmt.Errorf("mosfet needs d g s b and a model name")
		}
		nfin := 1
		for _, f := range fields[6:] {
			kv := strings.SplitN(strings.ToLower(f), "=", 2)
			if len(kv) == 2 && kv[0] == "nfin" {
				n, err := strconv.Atoi(kv[1])
				if err != nil {
					return fmt.Errorf("bad nfin: %v", err)
				}
				nfin = n
			}
		}
		var m *device.Model
		switch strings.ToLower(fields[5]) {
		case "nfet", "nmos":
			m = device.NewN(nfin)
		case "pfet", "pmos":
			m = device.NewP(nfin)
		default:
			return fmt.Errorf("unknown model %q", fields[5])
		}
		c.AddMOSFET(m, c.Node(fields[1]), c.Node(fields[2]), c.Node(fields[3]), c.Node(fields[4]))
		c.NameLast(fields[0])
		return nil
	}
	return fmt.Errorf("unrecognized card %q", fields[0])
}

// splitFields splits a card into fields, keeping parenthesized groups (e.g.
// PWL(0 0 1n 1)) as a single field.
func splitFields(line string) []string {
	var out []string
	depth := 0
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for _, r := range line {
		switch {
		case r == '(':
			depth++
			cur.WriteRune(r)
		case r == ')':
			depth--
			cur.WriteRune(r)
		case (r == ' ' || r == '\t') && depth == 0:
			flush()
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	return out
}

func parseSource(fields []string) (SourceFn, error) {
	spec := strings.ToUpper(fields[0])
	switch {
	case spec == "DC":
		if len(fields) < 2 {
			return nil, fmt.Errorf("DC needs a value")
		}
		v, err := ParseValue(fields[1])
		if err != nil {
			return nil, err
		}
		return DC(v), nil
	case strings.HasPrefix(spec, "PWL(") || strings.HasPrefix(spec, "PULSE("):
		open := strings.Index(fields[0], "(")
		closeIdx := strings.LastIndex(fields[0], ")")
		if closeIdx < open {
			return nil, fmt.Errorf("unbalanced parentheses in source spec")
		}
		args := strings.Fields(strings.ReplaceAll(fields[0][open+1:closeIdx], ",", " "))
		vals := make([]float64, len(args))
		for i, a := range args {
			v, err := ParseValue(a)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		if strings.HasPrefix(spec, "PWL(") {
			if len(vals)%2 != 0 || len(vals) == 0 {
				return nil, fmt.Errorf("PWL needs time/value pairs")
			}
			pts := make([][2]float64, len(vals)/2)
			for i := range pts {
				pts[i] = [2]float64{vals[2*i], vals[2*i+1]}
			}
			return PWL(pts...), nil
		}
		if len(vals) != 7 {
			return nil, fmt.Errorf("PULSE needs 7 arguments")
		}
		return Pulse(vals[0], vals[1], vals[2], vals[3], vals[4], vals[5], vals[6]), nil
	default:
		// Bare numeric value means DC.
		v, err := ParseValue(fields[0])
		if err != nil {
			return nil, err
		}
		return DC(v), nil
	}
}

// ParseValue parses a SPICE numeric literal with an optional unit suffix.
// The result must be finite: "inf", "nan" and literals that overflow after
// scaling are rejected.
func ParseValue(s string) (float64, error) {
	s = strings.TrimSpace(strings.ToLower(s))
	mult := 1.0
	switch {
	case strings.HasSuffix(s, "meg"):
		mult, s = 1e6, strings.TrimSuffix(s, "meg")
	case strings.HasSuffix(s, "f"):
		mult, s = 1e-15, strings.TrimSuffix(s, "f")
	case strings.HasSuffix(s, "p"):
		mult, s = 1e-12, strings.TrimSuffix(s, "p")
	case strings.HasSuffix(s, "n"):
		mult, s = 1e-9, strings.TrimSuffix(s, "n")
	case strings.HasSuffix(s, "u"):
		mult, s = 1e-6, strings.TrimSuffix(s, "u")
	case strings.HasSuffix(s, "m"):
		mult, s = 1e-3, strings.TrimSuffix(s, "m")
	case strings.HasSuffix(s, "k"):
		mult, s = 1e3, strings.TrimSuffix(s, "k")
	case strings.HasSuffix(s, "g"):
		mult, s = 1e9, strings.TrimSuffix(s, "g")
	case strings.HasSuffix(s, "t"):
		mult, s = 1e12, strings.TrimSuffix(s, "t")
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad numeric value %q", s)
	}
	v *= mult
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 0, fmt.Errorf("non-finite numeric value %q", s)
	}
	return v, nil
}
