package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points that Python's
// statistics.quantiles(xs, n=4) returns (its default "exclusive" method),
// so spreads computed here match the ones an external check computes. A
// single sample is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		nan := math.NaN()
		return nan, nan, nan
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// span is one of the benchmark's own timed regions around a call into a
// layer's public API. Spans nest into a tree; children may run
// concurrently. A nil *span is valid and ignores every call, which is what
// untraced passes use, so the timed code is the same in both modes.
type span struct {
	name       string
	start, end time.Time

	mu       sync.Mutex
	children []*span
}

// newSpan opens a root span.
func newSpan(name string) *span { return &span{name: name, start: time.Now()} }

// child opens a span under s (nil when s is nil). Safe for concurrent use.
func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	c := &span{name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// finish closes the span.
func (s *span) finish() {
	if s != nil {
		s.end = time.Now()
	}
}

func (s *span) seconds() float64 { return s.end.Sub(s.start).Seconds() }

// walk visits s and every descendant, parents first.
func (s *span) walk(visit func(*span)) {
	if s == nil {
		return
	}
	visit(s)
	for _, c := range s.children {
		c.walk(visit)
	}
}

// durations lists the duration in seconds of every span named name in the
// tree rooted at s.
func (s *span) durations(name string) []float64 {
	var out []float64
	s.walk(func(x *span) {
		if x.name == name {
			out = append(out, x.seconds())
		}
	})
	return out
}

// busy is the summed duration of every span named name: with concurrent
// spans it counts each worker's time, so it can exceed wall time.
func (s *span) busy(name string) float64 {
	var sum float64
	for _, d := range s.durations(name) {
		sum += d
	}
	return sum
}

// self is the span's duration minus the part of it its children cover.
// Overlapping (concurrent) children are counted once, so self time is never
// negative and never double-subtracts parallel work.
func (s *span) self() float64 {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(s.children))
	for _, c := range s.children {
		a, b := c.start, c.end
		if a.Before(s.start) {
			a = s.start
		}
		if b.After(s.end) {
			b = s.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var cur iv
	for i, x := range ivs {
		switch {
		case i == 0:
			cur = x
		case !x.a.After(cur.b):
			if x.b.After(cur.b) {
				cur.b = x.b
			}
		default:
			covered += cur.b.Sub(cur.a)
			cur = x
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return (s.end.Sub(s.start) - covered).Seconds()
}
