package match

// The closure-weight entry points the blossom and fuzz tests drive: each
// call flattens the weight function and solves it on a fresh Matcher.

// MaxWeightMatching computes a maximum-weight matching of the complete
// graph on n vertices with the given symmetric weight matrix (0-indexed;
// weights must be non-negative, and zero-weight pairs are treated as
// absent edges). It returns mate, where mate[u] is u's partner or -1,
// and the total matched weight.
func MaxWeightMatching(n int, weight func(u, v int) int64) (mate []int, total int64) {
	if n == 0 {
		return nil, 0
	}
	return new(Matcher).MaxWeight(n, flatten(n, weight))
}

// MinWeightPerfectMatching computes a minimum-weight perfect matching of
// the complete graph on an even number of vertices. It returns mate and
// the total weight. Weights may be any non-negative values.
func MinWeightPerfectMatching(n int, weight func(u, v int) int64) (mate []int, total int64) {
	if n%2 != 0 {
		panic("match: perfect matching requires an even vertex count")
	}
	if n == 0 {
		return nil, 0
	}
	return new(Matcher).MinWeightPerfect(n, flatten(n, weight))
}

// flatten materializes a weight function as the flat symmetric matrix
// the Matcher consumes.
func flatten(n int, weight func(u, v int) int64) []int64 {
	w := make([]int64, n*n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			x := weight(u, v)
			w[u*n+v], w[v*n+u] = x, x
		}
	}
	return w
}
