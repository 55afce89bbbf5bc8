package decoder_test

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/decodepool"
	"repro/internal/decoder"
	"repro/internal/decoder/greedy"
	"repro/internal/decoder/mwpm"
	"repro/internal/decoder/unionfind"
	"repro/internal/lattice"
	"repro/internal/match"
)

// This file holds the allocating reference bodies of the greedy, MWPM
// and union-find decoders. Production code has one implementation per
// algorithm (each decoder's DecodeInto core); these independent
// re-derivations — comparison sort, closure-weight blossom, pointer
// union-find with slice-of-slices adjacency — are the differential
// oracles the conformance suite and FuzzDecode diff that core against.

// oracleCase pairs a production decoder with its oracle. match and
// oracleMatch are set for the matching decoders (greedy, MWPM), whose
// Match views must return the oracle's pairs and boundary lists.
type oracleCase struct {
	dec         decodepool.IntoDecoder
	oracle      func(g *lattice.Graph, syn []bool) (decoder.Correction, error)
	match       func(g *lattice.Graph, syn []bool) (decoder.Matching, error)
	oracleMatch func(g *lattice.Graph, syn []bool) decoder.Matching
}

func oracleCases() []oracleCase {
	gr, mw := greedy.New(), mwpm.New()
	return []oracleCase{
		{dec: gr, oracle: matchOracle(oracleGreedyMatch), match: gr.Match, oracleMatch: oracleGreedyMatch},
		{dec: mw, oracle: matchOracle(oracleMWPMMatch), match: mw.Match, oracleMatch: oracleMWPMMatch},
		{dec: unionfind.New(), oracle: new(oracleUnionFind).Decode},
	}
}

// matchOracle turns a matching oracle into a decoding oracle.
func matchOracle(m func(*lattice.Graph, []bool) decoder.Matching) func(*lattice.Graph, []bool) (decoder.Correction, error) {
	return func(g *lattice.Graph, syn []bool) (decoder.Correction, error) {
		return m(g, syn).Correction(g), nil
	}
}

// oracleGreedyMatch is the greedy matcher by comparison sort: every
// pair and boundary edge sorted by ascending distance, pair edges before
// boundary edges on ties, then by endpoint indices.
func oracleGreedyMatch(g *lattice.Graph, syn []bool) decoder.Matching {
	type edge struct{ w, i, j int }
	hot := lattice.HotChecks(syn)
	edges := make([]edge, 0, len(hot)*(len(hot)+1)/2)
	for a := 0; a < len(hot); a++ {
		for b := a + 1; b < len(hot); b++ {
			edges = append(edges, edge{g.Dist(hot[a], hot[b]), hot[a], hot[b]})
		}
		edges = append(edges, edge{g.BoundaryDist(hot[a]), hot[a], lattice.Boundary})
	}
	rank := func(e edge) int {
		if e.j == lattice.Boundary {
			return 1
		}
		return 0
	}
	sort.Slice(edges, func(x, y int) bool {
		if edges[x].w != edges[y].w {
			return edges[x].w < edges[y].w
		}
		if rank(edges[x]) != rank(edges[y]) {
			return rank(edges[x]) < rank(edges[y])
		}
		if edges[x].i != edges[y].i {
			return edges[x].i < edges[y].i
		}
		return edges[x].j < edges[y].j
	})

	matched := make(map[int]bool, len(hot))
	var m decoder.Matching
	for _, e := range edges {
		if matched[e.i] {
			continue
		}
		if e.j == lattice.Boundary {
			matched[e.i] = true
			m.Boundary = append(m.Boundary, e.i)
			continue
		}
		if matched[e.j] {
			continue
		}
		matched[e.i], matched[e.j] = true, true
		m.Pairs = append(m.Pairs, [2]int{e.i, e.j})
	}
	return m
}

// oracleMWPMMatch is the folded exact matching solved through the
// closure-weight blossom entry point, on the graph's per-call geometry.
func oracleMWPMMatch(g *lattice.Graph, syn []bool) decoder.Matching {
	hot := lattice.HotChecks(syn)
	n := len(hot)
	if n == 0 {
		return decoder.Matching{}
	}
	m := n + n%2
	weight := func(u, v int) int64 {
		if u > v {
			u, v = v, u
		}
		if v >= n {
			return int64(g.BoundaryDist(hot[u]))
		}
		du := int64(g.Dist(hot[u], hot[v]))
		if bs := int64(g.BoundaryDist(hot[u]) + g.BoundaryDist(hot[v])); bs < du {
			return bs
		}
		return du
	}
	mate, _ := match.MinWeightPerfectMatching(m, weight)
	var mm decoder.Matching
	for u := 0; u < n; u++ {
		v := mate[u]
		if v >= n {
			mm.Boundary = append(mm.Boundary, hot[u])
		} else if v > u {
			if g.Dist(hot[u], hot[v]) <= g.BoundaryDist(hot[u])+g.BoundaryDist(hot[v]) {
				mm.Pairs = append(mm.Pairs, [2]int{hot[u], hot[v]})
			} else {
				mm.Boundary = append(mm.Boundary, hot[u], hot[v])
			}
		}
	}
	return mm
}

// dsu is a union-find structure tracking defect parity and boundary
// contact per cluster.
type dsu struct {
	parent   []int
	size     []int
	odd      []bool // cluster contains an odd number of defects
	boundary []bool // cluster contains a boundary vertex
}

func newDSU(n int) *dsu {
	d := &dsu{
		parent:   make([]int, n),
		size:     make([]int, n),
		odd:      make([]bool, n),
		boundary: make([]bool, n),
	}
	for i := range d.parent {
		d.parent[i] = i
		d.size[i] = 1
	}
	return d
}

func (d *dsu) find(x int) int {
	for d.parent[x] != x {
		d.parent[x] = d.parent[d.parent[x]]
		x = d.parent[x]
	}
	return x
}

func (d *dsu) union(a, b int) {
	ra, rb := d.find(a), d.find(b)
	if ra == rb {
		return
	}
	if d.size[ra] < d.size[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = ra
	d.size[ra] += d.size[rb]
	d.odd[ra] = d.odd[ra] != d.odd[rb]
	d.boundary[ra] = d.boundary[ra] || d.boundary[rb]
}

func (d *dsu) active(r int) bool { return d.odd[r] && !d.boundary[r] }

// oracleUnionFind is the union-find decoder re-derived per call from
// lattice.Graph.DecodingEdges. Rounds mirrors unionfind.Decoder.Rounds.
type oracleUnionFind struct{ Rounds int }

// endpoints numbers the decoding-graph vertices — checks, then one
// fresh pendant per boundary endpoint in edge order — and returns each
// edge's endpoints and the vertex count.
func (*oracleUnionFind) endpoints(g *lattice.Graph, edges []lattice.Edge) ([][2]int, int) {
	nv := g.NumChecks()
	ends := make([][2]int, len(edges))
	for k, e := range edges {
		a, b := e.C1, e.C2
		if a == lattice.Boundary {
			a = nv
			nv++
		}
		if b == lattice.Boundary {
			b = nv
			nv++
		}
		ends[k] = [2]int{a, b}
	}
	return ends, nv
}

func (u *oracleUnionFind) Decode(g *lattice.Graph, syn []bool) (decoder.Correction, error) {
	edges := g.DecodingEdges()
	m := g.NumChecks()
	endpoints, nv := u.endpoints(g, edges)
	d := newDSU(nv)
	for v := m; v < nv; v++ {
		d.boundary[v] = true
	}
	anyActive := false
	for i, hot := range syn {
		if hot {
			d.odd[i] = true
			anyActive = true
		}
	}
	growth := make([]int, len(edges))
	grown := make([]bool, len(edges))
	u.Rounds = 0
	for anyActive {
		u.Rounds++
		for k := range edges {
			if grown[k] {
				continue
			}
			if d.active(d.find(endpoints[k][0])) {
				growth[k]++
			}
			if d.active(d.find(endpoints[k][1])) {
				growth[k]++
			}
		}
		for k := range edges {
			if !grown[k] && growth[k] >= 2 {
				grown[k] = true
				d.union(endpoints[k][0], endpoints[k][1])
			}
		}
		anyActive = false
		for i, hot := range syn {
			if hot && d.active(d.find(i)) {
				anyActive = true
				break
			}
		}
		if u.Rounds > 4*g.Lattice().Size() {
			return decoder.Correction{}, fmt.Errorf("oracle unionfind: growth did not converge after %d rounds", u.Rounds)
		}
	}
	return u.peel(syn, nv, m, edges, endpoints, grown)
}

// DecodeErasure peels the erased edge set directly, with no growth.
func (u *oracleUnionFind) DecodeErasure(g *lattice.Graph, erased []bool, syn []bool) (decoder.Correction, error) {
	edges := g.DecodingEdges()
	endpoints, nv := u.endpoints(g, edges)
	grown := make([]bool, len(edges))
	for k, e := range edges {
		grown[k] = erased[e.Q]
	}
	u.Rounds = 0
	return u.peel(syn, nv, g.NumChecks(), edges, endpoints, grown)
}

func (u *oracleUnionFind) peel(syn []bool, nv, m int, edges []lattice.Edge, endpoints [][2]int, grown []bool) (decoder.Correction, error) {
	adj := make([][]int, nv) // vertex -> incident grown edge indices
	for k := range edges {
		if !grown[k] {
			continue
		}
		adj[endpoints[k][0]] = append(adj[endpoints[k][0]], k)
		adj[endpoints[k][1]] = append(adj[endpoints[k][1]], k)
	}
	defect := make([]bool, nv)
	hasDefect := false
	for i, hot := range syn {
		if hot {
			defect[i] = true
			hasDefect = true
		}
	}
	if !hasDefect {
		return decoder.Correction{}, nil
	}
	visited := make([]bool, nv)
	parentEdge := make([]int, nv)
	var c decoder.Correction
	roots := make([]int, 0, nv)
	for v := m; v < nv; v++ {
		roots = append(roots, v)
	}
	for v := 0; v < m; v++ {
		roots = append(roots, v)
	}
	for _, root := range roots {
		if visited[root] {
			continue
		}
		order := []int{root}
		visited[root] = true
		parentEdge[root] = -1
		for i := 0; i < len(order); i++ {
			v := order[i]
			for _, k := range adj[v] {
				w := endpoints[k][0] + endpoints[k][1] - v
				if !visited[w] {
					visited[w] = true
					parentEdge[w] = k
					order = append(order, w)
				}
			}
		}
		for i := len(order) - 1; i > 0; i-- {
			v := order[i]
			if !defect[v] {
				continue
			}
			k := parentEdge[v]
			c.Qubits = append(c.Qubits, edges[k].Q)
			defect[v] = false
			p := endpoints[k][0] + endpoints[k][1] - v
			defect[p] = !defect[p]
		}
		if defect[root] && root < m {
			return decoder.Correction{}, fmt.Errorf("oracle unionfind: unresolved defect at check %d", root)
		}
		defect[root] = false
	}
	return c, nil
}

// mustMatch runs a production Match view, failing the test on error.
func mustMatch(t *testing.T, match func(*lattice.Graph, []bool) (decoder.Matching, error), g *lattice.Graph, syn []bool) decoder.Matching {
	t.Helper()
	m, err := match(g, syn)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// sameMatching compares pair and boundary lists element by element; a
// nil list equals an empty one.
func sameMatching(a, b decoder.Matching) bool {
	if len(a.Pairs) != len(b.Pairs) || !sameQubits(a.Boundary, b.Boundary) {
		return false
	}
	for i := range a.Pairs {
		if a.Pairs[i] != b.Pairs[i] {
			return false
		}
	}
	return true
}
