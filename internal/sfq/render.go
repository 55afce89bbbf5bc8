package sfq

import "strings"

// Tracer receives a rendered frame of the mesh after every clock when
// installed on the Mesh; used by the watch example and golden tests.
type Tracer func(cycle int, frame string)

// SetTracer installs (or clears, with nil) a per-cycle tracer.
func (m *Mesh) SetTracer(t Tracer) { m.tracer = t }

// Render draws the mesh state as one character per module:
//
//	H  hot syndrome module
//	P  pair signal in flight
//	G  pair-grant in flight
//	r  pair-request in flight
//	*  grow wavefront
//	#  error output latched (the correction chain)
//	=  boundary module
//	·  idle interior module
//
// Signals take precedence over the chain marking, which takes
// precedence over idle.
func (m *Mesh) Render() string {
	var b strings.Builder
	for r := 0; r < m.geo.m; r++ {
		for c := 0; c < m.geo.m; c++ {
			b.WriteString(m.planes.cellGlyph(m.geo.index(r, c)))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func (ps *planeState) cellGlyph(i int) string {
	geo := ps.geo
	switch {
	case geo.kind[i] == cellInert:
		return " "
	case geo.planeBit(ps.hot, i):
		return "H"
	case ps.anyDir(&ps.pairW, i):
		return "P"
	case ps.anyDir(&ps.grantW, i):
		return "G"
	case ps.anyDir(&ps.reqW, i):
		return "r"
	case ps.anyDir(&ps.growW, i):
		return "*"
	case geo.planeBit(ps.errOut, i) && geo.kind[i] == cellInterior:
		return "#"
	case geo.kind[i] == cellBoundary:
		return "="
	default:
		return "·"
	}
}

func (ps *planeState) anyDir(w *wavefront, i int) bool {
	for d := 0; d < 4; d++ {
		if ps.geo.planeBit(w.cur[d], i) {
			return true
		}
	}
	return false
}
