package gsim

import "testing"

func TestEvalTruth3(t *testing.T) {
	const (
		and2 = uint64(0b1000)
		or2  = uint64(0b1110)
		xor2 = uint64(0b0110)
		buf  = uint64(0b10)
	)
	cases := []struct {
		name string
		tt   uint64
		in   []Value
		want Value
	}{
		{"and(1,1)", and2, []Value{V1, V1}, V1},
		{"and(0,x)", and2, []Value{V0, VX}, V0},
		{"and(x,0)", and2, []Value{VX, V0}, V0},
		{"and(1,x)", and2, []Value{V1, VX}, VX},
		{"or(1,x)", or2, []Value{V1, VX}, V1},
		{"or(0,x)", or2, []Value{V0, VX}, VX},
		{"xor(x,0)", xor2, []Value{VX, V0}, VX},
		{"xor(x,x)", xor2, []Value{VX, VX}, VX},
		{"buf(x)", buf, []Value{VX}, VX},
		{"buf(1)", buf, []Value{V1}, V1},
	}
	for _, c := range cases {
		if got := evalTruth3(c.tt, c.in); got != c.want {
			t.Errorf("%s = %s, want %s", c.name, got, c.want)
		}
	}
}
