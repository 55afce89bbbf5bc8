package spacetime

import (
	"sort"

	"repro/internal/lattice"
	"repro/internal/match"
)

// This file keeps the package's former space-time matcher — a
// comparison-sort greedy and the twin-per-event blossom construction,
// both over an explicit event list — as the reference implementation
// production decoding (the shared greedy and MWPM cores on a layered
// geometry) is diffed against.

// Node is one detection event: check index Check fired at round Round.
type Node struct {
	Check int
	Round int
}

// oracle matches detection events in space-time.
type oracle struct {
	g      *lattice.Graph
	method Method
}

// dist is the space-time metric: spatial matching-graph distance plus
// time separation.
func (o *oracle) dist(a, b Node) int {
	dt := a.Round - b.Round
	if dt < 0 {
		dt = -dt
	}
	return o.g.Dist(a.Check, b.Check) + dt
}

// match pairs the detection events (indices into events); events may
// also match a spatial boundary at their spatial boundary distance.
func (o *oracle) match(events []Node) (pairs [][2]int, boundary []int) {
	n := len(events)
	if n == 0 {
		return nil, nil
	}
	switch o.method {
	case Exact:
		// Nodes n..2n-1 are boundary twins: an event reaches any twin
		// at its boundary distance, and twins pair up at no cost. The
		// closure is flattened into the matrix the blossom consumes.
		weight := func(u, v int) int64 {
			switch {
			case u < n && v < n:
				return int64(o.dist(events[u], events[v]))
			case u >= n && v >= n:
				return 0
			case u < n:
				return int64(o.g.BoundaryDist(events[u].Check))
			default:
				return int64(o.g.BoundaryDist(events[v].Check))
			}
		}
		w := make([]int64, 4*n*n)
		for u := 0; u < 2*n; u++ {
			for v := u + 1; v < 2*n; v++ {
				x := weight(u, v)
				w[u*2*n+v], w[v*2*n+u] = x, x
			}
		}
		mate, _ := new(match.Matcher).MinWeightPerfect(2*n, w)
		for u := 0; u < n; u++ {
			if mate[u] >= n {
				boundary = append(boundary, u)
			} else if mate[u] > u {
				pairs = append(pairs, [2]int{u, mate[u]})
			}
		}
		return pairs, boundary
	default:
		type edge struct {
			w, i, j int // j == -1 marks a boundary edge
		}
		var edges []edge
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				edges = append(edges, edge{o.dist(events[i], events[j]), i, j})
			}
			edges = append(edges, edge{o.g.BoundaryDist(events[i].Check), i, -1})
		}
		sort.Slice(edges, func(x, y int) bool {
			if edges[x].w != edges[y].w {
				return edges[x].w < edges[y].w
			}
			if (edges[x].j == -1) != (edges[y].j == -1) {
				return edges[y].j == -1
			}
			if edges[x].i != edges[y].i {
				return edges[x].i < edges[y].i
			}
			return edges[x].j < edges[y].j
		})
		matched := make([]bool, n)
		for _, e := range edges {
			if matched[e.i] {
				continue
			}
			if e.j == -1 {
				matched[e.i] = true
				boundary = append(boundary, e.i)
				continue
			}
			if matched[e.j] {
				continue
			}
			matched[e.i], matched[e.j] = true, true
			pairs = append(pairs, [2]int{e.i, e.j})
		}
		return pairs, boundary
	}
}

// correction converts a matching over events into the data qubits to
// flip (the spatial projection of each path).
func (o *oracle) correction(events []Node, pairs [][2]int, boundary []int) []int {
	var qubits []int
	for _, p := range pairs {
		qubits = append(qubits, o.g.PathQubits(events[p[0]].Check, events[p[1]].Check)...)
	}
	for _, i := range boundary {
		qubits = append(qubits, o.g.BoundaryPathQubits(events[i].Check)...)
	}
	return qubits
}
