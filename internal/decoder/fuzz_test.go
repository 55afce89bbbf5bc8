package decoder_test

import (
	"testing"

	"repro/internal/decodepool"
	"repro/internal/decoder"
	"repro/internal/lattice"
)

// FuzzDecode feeds arbitrary syndrome bit patterns — not just ones
// reachable from i.i.d. errors — to every matching decoder. The planar
// code's boundaries make every syndrome decodable, so each decoder must
// return without error, its correction must clear the syndrome, and
// production DecodeInto, Decode and Match must agree bit-for-bit with
// the decoder's test oracle.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0xff, 0x0f})
	f.Add([]byte{0, 0xaa})
	f.Add([]byte{1, 0x01, 0x80, 0x42, 0x18})

	graphs := map[int][2]*lattice.Graph{}
	for _, d := range []int{3, 5} {
		l := lattice.MustNew(d)
		graphs[d] = [2]*lattice.Graph{l.MatchingGraph(lattice.ZErrors), l.MatchingGraph(lattice.XErrors)}
	}
	cases := oracleCases()
	scratch := decodepool.NewScratch()

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		d := 3
		if data[0]&1 == 1 {
			d = 5
		}
		g := graphs[d][(data[0]>>1)&1]
		data = data[1:]
		syn := make([]bool, g.NumChecks())
		for i := range syn {
			if i/8 < len(data) && data[i/8]&(1<<uint(i%8)) != 0 {
				syn[i] = true
			}
		}
		for _, c := range cases {
			dec := c.dec
			want, err := c.oracle(g, syn)
			if err != nil {
				t.Fatalf("%s d=%d: oracle: %v", dec.Name(), d, err)
			}
			if err := decoder.Validate(g, syn, want); err != nil {
				t.Fatalf("%s d=%d syn=%v: %v", dec.Name(), d, syn, err)
			}
			pooled, err := dec.DecodeInto(g, syn, scratch)
			if err != nil {
				t.Fatalf("%s d=%d: pooled: %v", dec.Name(), d, err)
			}
			if !sameQubits(want.Qubits, pooled.Qubits) {
				t.Fatalf("%s d=%d syn=%v: pooled %v != oracle %v", dec.Name(), d, syn, pooled.Qubits, want.Qubits)
			}
			plain, err := dec.Decode(g, syn)
			if err != nil {
				t.Fatalf("%s d=%d: Decode: %v", dec.Name(), d, err)
			}
			if !sameQubits(want.Qubits, plain.Qubits) {
				t.Fatalf("%s d=%d syn=%v: Decode %v != oracle %v", dec.Name(), d, syn, plain.Qubits, want.Qubits)
			}
			if c.match != nil {
				if got, wantM := mustMatch(t, c.match, g, syn), c.oracleMatch(g, syn); !sameMatching(got, wantM) {
					t.Fatalf("%s d=%d syn=%v: Match %+v != oracle %+v", dec.Name(), d, syn, got, wantM)
				}
			}
		}
	})
}
