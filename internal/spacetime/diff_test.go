package spacetime

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/decodepool"
	"repro/internal/decoder"
	"repro/internal/decoder/greedy"
	"repro/internal/decoder/mwpm"
	"repro/internal/lattice"
	"repro/internal/pauli"
)

// coreMatch is the matching view of the core m.decode runs.
func coreMatch(m Method) func(*decodepool.Geometry, []bool, *decodepool.Scratch) (decoder.Matching, error) {
	if m == Exact {
		return mwpm.MatchGeometry
	}
	return greedy.MatchGeometry
}

// decodeEvents decodes hand-placed, distinct events through production:
// they become the space-time syndrome of a layered geometry over the
// given rounds, the method's core matches it, and the matching is
// mapped back onto indices into events. qubits is the correction
// m.decode lays down for the same syndrome.
func decodeEvents(t *testing.T, g *lattice.Graph, m Method, layers int, events []Node) (pairs [][2]int, boundary []int, qubits []int) {
	t.Helper()
	geo := decodepool.For(g).Layered(layers)
	syn := make([]bool, geo.M)
	at := make(map[int]int, len(events)) // node -> event index
	for k, e := range events {
		n := e.Round*g.NumChecks() + e.Check
		if syn[n] {
			t.Fatalf("duplicate event %+v", e)
		}
		syn[n], at[n] = true, k
	}
	s := decodepool.NewScratch()
	mm, err := coreMatch(m)(geo, syn, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range mm.Pairs {
		a, b := at[p[0]], at[p[1]]
		pairs = append(pairs, [2]int{min(a, b), max(a, b)})
	}
	for _, i := range mm.Boundary {
		boundary = append(boundary, at[i])
	}
	c, err := m.decode(geo, syn, s)
	if err != nil {
		t.Fatal(err)
	}
	return pairs, boundary, append([]int(nil), c.Qubits...)
}

// eventsOf lists the simulator's current detection events in node
// order — the order the former event-list matcher saw them in.
func eventsOf(s *Simulator) []Node {
	m := s.g.NumChecks()
	var events []Node
	for n, hot := range s.events {
		if hot {
			events = append(events, Node{Check: n % m, Round: n / m})
		}
	}
	return events
}

// checkAgainstOracle decodes events (distinct, in node order) through
// production and the oracle: every event is matched exactly once,
// greedy pairs, boundary lists and corrections are identical, exact
// matchings have equal total weight, and the correction flips exactly
// the checks with an odd number of events, leaving a clean residual.
func checkAgainstOracle(t *testing.T, g *lattice.Graph, m Method, layers int, events []Node) {
	t.Helper()
	pairs, boundary, qubits := decodeEvents(t, g, m, layers, events)
	o := &oracle{g: g, method: m}
	wantPairs, wantBoundary := o.match(events)

	seen := make([]int, len(events))
	for _, p := range pairs {
		seen[p[0]]++
		seen[p[1]]++
	}
	for _, i := range boundary {
		seen[i]++
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("%v: event %+v matched %d times (pairs %v, boundary %v)", m, events[k], n, pairs, boundary)
		}
	}

	weight := func(pairs [][2]int, boundary []int) int {
		w := 0
		for _, p := range pairs {
			w += o.dist(events[p[0]], events[p[1]])
		}
		for _, i := range boundary {
			w += g.BoundaryDist(events[i].Check)
		}
		return w
	}
	if m == Greedy {
		if !slices.Equal(pairs, wantPairs) || !slices.Equal(boundary, wantBoundary) {
			t.Fatalf("greedy on %v: pairs %v boundary %v, oracle %v %v", events, pairs, boundary, wantPairs, wantBoundary)
		}
		if want := o.correction(events, wantPairs, wantBoundary); !slices.Equal(qubits, want) {
			t.Fatalf("greedy on %v: correction %v, oracle %v", events, qubits, want)
		}
	} else if got, want := weight(pairs, boundary), weight(wantPairs, wantBoundary); got != want {
		t.Fatalf("exact on %v: weight %d, oracle %d", events, got, want)
	}

	f := pauli.NewFrame(g.Lattice().NumQubits())
	for _, q := range qubits {
		f.Apply(q, pauli.Z)
	}
	odd := make([]bool, g.NumChecks())
	for _, e := range events {
		odd[e.Check] = !odd[e.Check]
	}
	for c, hot := range g.Syndrome(f) {
		if hot != odd[c] {
			t.Fatalf("%v on %v: correction leaves check %d hot", m, events, c)
		}
	}
}

// Simulated blocks decode exactly as the oracle does, for both methods
// over distance, measurement noise and block length.
func TestSpacetimeMatchesOracle(t *testing.T) {
	for _, d := range []int{3, 5, 7} {
		for _, q := range []float64{0, 0.01, 0.02} {
			for _, r := range []int{1, d} {
				for _, m := range []Method{Greedy, Exact} {
					t.Run(fmt.Sprintf("%v/d=%d/q=%g/R=%d", m, d, q, r), func(t *testing.T) {
						sim, err := NewSimulator(Config{Distance: d, P: 0.02, Q: q, Rounds: r, Method: m, Seed: int64(100*d + r)})
						if err != nil {
							t.Fatal(err)
						}
						for b := 0; b < 40; b++ {
							sim.sampleBlock()
							checkAgainstOracle(t, sim.g, m, r+1, eventsOf(sim))
							if _, err := sim.correctBlock(); err != nil {
								t.Fatalf("block %d: %v", b, err)
							}
						}
					})
				}
			}
		}
	}
}

// FuzzSpacetime diffs production decoding against the oracle on
// arbitrary event sets: each byte pair toggles one space-time node.
func FuzzSpacetime(f *testing.F) {
	f.Add(uint8(0), uint8(3), false, []byte{0, 1, 0, 7, 0, 12})
	f.Add(uint8(1), uint8(5), true, []byte{0, 3, 0, 43, 1, 2, 0, 9, 0, 10})
	f.Add(uint8(2), uint8(0), true, []byte{0, 0, 0, 5, 0, 41, 0, 2})
	var graphs []*lattice.Graph
	for _, d := range []int{3, 5, 7} {
		graphs = append(graphs, lattice.MustNew(d).MatchingGraph(lattice.ZErrors))
	}
	f.Fuzz(func(t *testing.T, dsel, layers uint8, exact bool, data []byte) {
		g := graphs[int(dsel)%len(graphs)]
		nl := 1 + int(layers)%8
		m := Greedy
		if exact {
			m = Exact
		}
		nodes := g.NumChecks() * nl
		syn := make([]bool, nodes)
		for k := 0; k+1 < len(data) && k < 96; k += 2 {
			n := (int(data[k])<<8 | int(data[k+1])) % nodes
			syn[n] = !syn[n]
		}
		var events []Node
		for n, hot := range syn {
			if hot {
				events = append(events, Node{Check: n % g.NumChecks(), Round: n / g.NumChecks()})
			}
		}
		checkAgainstOracle(t, g, m, nl, events)
	})
}

// With q = 0 and one noisy round per block the closing round never
// fires, and space-time decoding is the 2D decoders' matching on the
// round's syndrome: the same pairs, boundary matches and correction as
// the 2D greedy and MWPM decoders.
func TestDegeneratesTo2DCores(t *testing.T) {
	for _, m := range []Method{Greedy, Exact} {
		sim, err := NewSimulator(Config{Distance: 5, P: 0.04, Q: 0, Rounds: 1, Method: m, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		match2D, decode2D := greedy.New().Match, greedy.New().Decode
		if m == Exact {
			match2D, decode2D = mwpm.New().Match, mwpm.New().Decode
		}
		nc := sim.g.NumChecks()
		s := decodepool.NewScratch()
		for b := 0; b < 300; b++ {
			sim.sampleBlock()
			round, closing := sim.events[:nc], sim.events[nc:]
			if slices.Contains(closing, true) {
				t.Fatalf("%v block %d: closing round fired with q = 0", m, b)
			}
			want, err := match2D(sim.g, round)
			if err != nil {
				t.Fatal(err)
			}
			got, err := coreMatch(m)(sim.geo, sim.events, s)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Pairs, want.Pairs) || !slices.Equal(got.Boundary, want.Boundary) {
				t.Fatalf("%v block %d: space-time matching %+v, 2D %+v", m, b, got, want)
			}
			wantC, err := decode2D(sim.g, round)
			if err != nil {
				t.Fatal(err)
			}
			gotC, err := m.decode(sim.geo, sim.events, s)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(gotC.Qubits, wantC.Qubits) {
				t.Fatalf("%v block %d: correction %v, 2D %v", m, b, gotC.Qubits, wantC.Qubits)
			}
			if _, err := sim.correctBlock(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSpacetimeBlockZeroAllocs is the AllocsPerRun-0 gate on a whole
// block — sampling, space-time decoding, correction and the residual
// check — once the scratch has grown to the workload's high-water mark.
func TestSpacetimeBlockZeroAllocs(t *testing.T) {
	if decodepool.RaceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	for _, m := range []Method{Greedy, Exact} {
		for _, d := range []int{5, 9} {
			sim, err := NewSimulator(Config{Distance: d, P: 0.01, Q: 0.01, Rounds: d, Method: m, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sim.Run(300); err != nil {
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(100, func() {
				if _, err := sim.Run(1); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Errorf("%v d=%d: %v allocs per block, want 0", m, d, avg)
			}
		}
	}
}

// BenchmarkBlock times one steady-state block (R noisy rounds, the
// closing round, decode and correction) at p = q = 0.01.
func BenchmarkBlock(b *testing.B) {
	for _, m := range []Method{Greedy, Exact} {
		for _, c := range [][2]int{{3, 5}, {5, 5}, {7, 5}, {9, 9}} {
			d, r := c[0], c[1]
			b.Run(fmt.Sprintf("%v/d=%d/R=%d", m, d, r), func(b *testing.B) {
				sim, err := NewSimulator(Config{Distance: d, P: 0.01, Q: 0.01, Rounds: r, Method: m, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sim.Run(200); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				if _, err := sim.Run(b.N); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}
