package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// solveDense factors m into fresh storage and solves m*x = b.
func solveDense(m *Matrix, b []float64) ([]float64, error) {
	f := NewLU(m.N)
	if err := f.Refactor(m); err != nil {
		return nil, err
	}
	x := make([]float64, m.N)
	f.SolveInto(x, b)
	return x, nil
}

func TestSolveIdentity(t *testing.T) {
	m := NewMatrix(3)
	for i := 0; i < 3; i++ {
		m.Set(i, i, 1)
	}
	x, err := solveDense(m, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	if MaxAbsDiff(x, want) > 1e-12 {
		t.Errorf("x = %v, want %v", x, want)
	}
}

func TestSolveKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10 -> x = 1, y = 3.
	m := NewMatrix(2)
	m.Set(0, 0, 2)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 3)
	x, err := solveDense(m, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("x = %v, want [1 3]", x)
	}
}

func TestPivotingRequired(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	m := NewMatrix(2)
	m.Set(0, 0, 0)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 0)
	x, err := solveDense(m, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Errorf("x = %v, want [3 2]", x)
	}
}

func TestSingularDetected(t *testing.T) {
	m := NewMatrix(2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 2)
	m.Set(1, 1, 4)
	if err := NewLU(2).Refactor(m); err != ErrSingular {
		t.Errorf("Refactor(singular) err = %v, want ErrSingular", err)
	}
}

func TestFactorReuse(t *testing.T) {
	m := NewMatrix(2)
	m.Set(0, 0, 4)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 3)
	f := NewLU(2)
	if err := f.Refactor(m); err != nil {
		t.Fatal(err)
	}
	x1 := make([]float64, 2)
	x2 := make([]float64, 2)
	f.SolveInto(x1, []float64{1, 0})
	f.SolveInto(x2, []float64{0, 1})
	// Check A*x = b for both.
	check := func(x, b []float64) {
		for i := 0; i < 2; i++ {
			got := m.At(i, 0)*x[0] + m.At(i, 1)*x[1]
			if math.Abs(got-b[i]) > 1e-12 {
				t.Errorf("residual row %d: %v vs %v", i, got, b[i])
			}
		}
	}
	check(x1, []float64{1, 0})
	check(x2, []float64{0, 1})
}

// TestRefactorIntoOwnStorage refactors two different matrices into one LU:
// each factorization must overwrite the previous one completely (pivots
// included) and leave its input matrix untouched.
func TestRefactorIntoOwnStorage(t *testing.T) {
	a := NewMatrix(2) // needs a row swap
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	b := NewMatrix(2) // diagonal, no swap
	b.Set(0, 0, 2)
	b.Set(1, 1, 4)
	before := append([]float64(nil), a.A...)
	f := NewLU(2)
	x := make([]float64, 2)
	for _, tc := range []struct {
		m    *Matrix
		want []float64
	}{
		{a, []float64{3, 2}},
		{b, []float64{1, 0.75}},
		{a, []float64{3, 2}},
	} {
		if err := f.Refactor(tc.m); err != nil {
			t.Fatal(err)
		}
		f.SolveInto(x, []float64{2, 3})
		if MaxAbsDiff(x, tc.want) > 1e-12 {
			t.Errorf("x = %v, want %v", x, tc.want)
		}
	}
	if MaxAbsDiff(a.A, before) != 0 {
		t.Errorf("Refactor modified its input: %v, was %v", a.A, before)
	}
}

func TestQuickRandomSolveResidual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(14)
		m := NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, rng.NormFloat64())
			}
			m.Add(i, i, float64(n)) // diagonal dominance -> well conditioned
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := solveDense(m, b)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			var s float64
			for j := 0; j < n; j++ {
				s += m.At(i, j) * x[j]
			}
			if math.Abs(s-b[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
