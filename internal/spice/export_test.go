package spice

// TranStep runs one fixed-step transient step from prev into dst, the inner
// loop of TransientFrom, for benchmarks outside the package.
func (c *Circuit) TranStep(dst, prev []float64, t, dt float64) error {
	return c.opAt(dst, t, prev, dt, prev)
}
