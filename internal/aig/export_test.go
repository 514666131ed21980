package aig

// Query entry points of a reused prover, for the external tests.

func (b *CNFBuilder) ProveEqualQuery(x, y Lit, budget int64, window int) (equal, proven bool) {
	return b.proveEqual(x, y, budget, window)
}

func (b *CNFBuilder) ProveIsAndQuery(v int, la, lb Lit, budget int64, window int) bool {
	return b.proveIsAnd(v, la, lb, budget, window)
}

func (b *CNFBuilder) PatternUnreachableQuery(leaves []int, idx int, budget int64, window int) bool {
	return b.patternUnreachable(leaves, idx, budget, window)
}
