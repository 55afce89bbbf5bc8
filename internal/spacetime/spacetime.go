// Package spacetime extends the paper's purely spatial (2D) decoding to
// the phenomenological noise model: syndrome measurements themselves
// flip with probability q, so decoding matches *detection events* —
// changes between consecutive syndrome rounds — in a 3D space-time
// graph whose time-like edges are measurement errors and whose
// space-like edges are data errors.
//
// The NISQ+ paper evaluates with perfect extraction (its decoder is
// per-round); this package is the repository's "future work" extension
// showing how the same matching machinery lifts to repeated noisy
// measurement: a block's detection events form one space-time syndrome
// over a layered decodepool.Geometry, decoded by the very greedy and
// MWPM cores the 2D decoders run, in per-simulator scratch. Blocks of R
// noisy rounds are terminated by one perfect round, as is standard for
// lifetime studies.
package spacetime

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/decodepool"
	"repro/internal/decoder"
	"repro/internal/decoder/greedy"
	"repro/internal/decoder/mwpm"
	"repro/internal/lattice"
	"repro/internal/mc"
	"repro/internal/noise"
	"repro/internal/pauli"
)

// Method selects the matching algorithm.
type Method uint8

const (
	// Greedy sorts candidate pairs by distance and matches greedily —
	// the NISQ+ algorithm lifted to 3D.
	Greedy Method = iota
	// Exact solves the space-time matching optimally with the blossom
	// algorithm.
	Exact
)

// String names the method.
func (m Method) String() string {
	if m == Exact {
		return "exact"
	}
	return "greedy"
}

// decode matches the detection events of a space-time syndrome (node
// t·M + c of geo, a layered view, is check c firing in round t) with
// the method's core and returns the data qubits to flip: the spatial
// projection of every matched path. Events may also match a spatial
// boundary at their check's boundary distance; time-like segments are
// measurement errors and need no data correction. The Correction
// aliases s.
func (m Method) decode(geo *decodepool.Geometry, syn []bool, s *decodepool.Scratch) (decoder.Correction, error) {
	if m == Exact {
		return mwpm.DecodeGeometry(geo, syn, s)
	}
	return greedy.DecodeGeometry(geo, syn, s)
}

// Config describes a phenomenological lifetime experiment.
type Config struct {
	Distance int
	P        float64 // data error rate per round
	Q        float64 // measurement flip rate per round
	Rounds   int     // noisy rounds per block (a perfect round closes each block)
	Method   Method
	Seed     int64
}

// Result summarizes a run.
type Result struct {
	Blocks        int
	Rounds        int // noisy rounds simulated (Blocks × Rounds)
	LogicalErrors int
	PL            float64 // logical errors per block
}

// Simulator runs repeated noisy-measurement blocks against the
// space-time decoder (Z errors / X checks, matching the paper's
// headline dephasing evaluation).
type Simulator struct {
	cfg     Config
	g       *lattice.Graph
	geo     *decodepool.Geometry // layered view: Rounds noisy rounds + the closing round
	scr     *decodepool.Scratch
	rng     *rand.Rand
	ch      noise.Dephasing
	mf      noise.MeasureFlip
	data    []int
	res     *pauli.Frame
	cut     []int
	logical []int
	events  []bool // the current block's space-time syndrome, one layer per round
}

// NewSimulator validates the configuration and builds the simulator.
func NewSimulator(cfg Config) (*Simulator, error) {
	if cfg.Rounds < 1 {
		return nil, fmt.Errorf("spacetime: need >= 1 round per block, got %d", cfg.Rounds)
	}
	l, err := lattice.New(cfg.Distance)
	if err != nil {
		return nil, err
	}
	ch, err := noise.NewDephasing(cfg.P)
	if err != nil {
		return nil, err
	}
	mf, err := noise.NewMeasureFlip(cfg.Q)
	if err != nil {
		return nil, err
	}
	g := l.MatchingGraph(lattice.ZErrors)
	geo := decodepool.For(g).Layered(cfg.Rounds + 1)
	s := &Simulator{
		cfg:     cfg,
		g:       g,
		geo:     geo,
		scr:     decodepool.NewScratch(),
		rng:     noise.NewRand(cfg.Seed),
		ch:      ch,
		mf:      mf,
		res:     pauli.NewFrame(l.NumQubits()),
		cut:     l.LogicalCutSupport(lattice.ZErrors),
		logical: l.LogicalSupport(lattice.ZErrors),
		events:  make([]bool, geo.M),
	}
	for _, site := range l.DataSites() {
		s.data = append(s.data, l.QubitIndex(site))
	}
	return s, nil
}

// SetRand swaps the simulator's randomness source. Engine shards call
// this before every trial with the trial's private stream.
func (s *Simulator) SetRand(rng *rand.Rand) { s.rng = rng }

// Reset clears the residual error frame, so the next block starts from
// the code space independent of earlier blocks.
func (s *Simulator) Reset() { s.res.Clear() }

// Run simulates the given number of blocks.
func (s *Simulator) Run(blocks int) (Result, error) {
	var out Result
	for b := 0; b < blocks; b++ {
		flipped, err := s.runBlock()
		if err != nil {
			return out, err
		}
		out.Blocks++
		out.Rounds += s.cfg.Rounds
		if flipped {
			out.LogicalErrors++
		}
	}
	if out.Blocks > 0 {
		out.PL = float64(out.LogicalErrors) / float64(out.Blocks)
	}
	return out, nil
}

// blockShard adapts a private simulator to the Monte-Carlo engine: one
// trial is one block from a clean frame.
type blockShard struct {
	sim *Simulator
}

// Trial implements mc.Shard.
func (sh *blockShard) Trial(rng *rand.Rand, _ int) (mc.Outcome, error) {
	sh.sim.Reset()
	sh.sim.SetRand(rng)
	flipped, err := sh.sim.runBlock()
	if err != nil {
		return mc.Outcome{}, err
	}
	return mc.Outcome{Failed: flipped}, nil
}

// pointID keys a config's random streams by its physical parameters,
// so a point's result is invariant under sweep reordering.
func (cfg Config) pointID() int64 {
	return mc.DeriveID(uint64(cfg.Distance), math.Float64bits(cfg.P),
		math.Float64bits(cfg.Q), uint64(cfg.Rounds), uint64(cfg.Method))
}

// Sweep runs one phenomenological lifetime experiment per config on
// the sharded Monte-Carlo engine: blocks of every point run in
// parallel, and every block's randomness is a pure function of
// (rootSeed, config parameters, block index), so results are
// bit-identical regardless of workers. Config.Seed fields are ignored;
// rootSeed drives all streams. Results are returned in config order.
func Sweep(ctx context.Context, cfgs []Config, blocks int, rootSeed int64, workers int) ([]Result, error) {
	specs := make([]mc.PointSpec, len(cfgs))
	for i, cfg := range cfgs {
		cfg := cfg
		specs[i] = mc.PointSpec{
			ID:     cfg.pointID(),
			Trials: blocks,
			NewShard: func() (mc.Shard, error) {
				sim, err := NewSimulator(cfg)
				if err != nil {
					return nil, err
				}
				return &blockShard{sim: sim}, nil
			},
		}
	}
	tallies, err := mc.Run(ctx, mc.Config{RootSeed: rootSeed, Workers: workers}, specs)
	if err != nil {
		return nil, err
	}
	results := make([]Result, len(tallies))
	for i, t := range tallies {
		results[i] = Result{
			Blocks:        t.Trials,
			Rounds:        t.Trials * cfgs[i].Rounds,
			LogicalErrors: t.Failures,
		}
		if t.Trials > 0 {
			results[i].PL = float64(t.Failures) / float64(t.Trials)
		}
	}
	return results, nil
}

// runBlock executes R noisy rounds plus a perfect closing round, decodes
// the detection events, applies the correction, and reports whether the
// block flipped the logical state.
func (s *Simulator) runBlock() (bool, error) {
	s.sampleBlock()
	return s.correctBlock()
}

// sampleBlock runs the block's rounds and leaves their detection events
// in s.events: layer t holds the checks whose outcome changed between
// rounds t-1 and t (the block opens syndrome-clean).
func (s *Simulator) sampleBlock() {
	m := s.g.NumChecks()
	for r := 0; r <= s.cfg.Rounds; r++ {
		layer := s.events[r*m : (r+1)*m]
		if r == s.cfg.Rounds {
			s.g.SyndromeInto(s.res, layer) // the closing round is perfect
			break
		}
		s.ch.Sample(s.rng, s.res, s.data)
		s.mf.Flip(s.rng, s.g.SyndromeInto(s.res, layer))
	}
	for i := len(s.events) - 1; i >= m; i-- {
		s.events[i] = s.events[i] != s.events[i-m]
	}
}

// correctBlock decodes s.events, applies the correction, checks that
// it clears the syndrome, and reports (and undoes) a logical flip.
func (s *Simulator) correctBlock() (bool, error) {
	c, err := s.cfg.Method.decode(s.geo, s.events, s.scr)
	if err != nil {
		return false, fmt.Errorf("spacetime: %w", err)
	}
	for _, q := range c.Qubits {
		s.res.Apply(q, pauli.Z)
	}
	for i, hot := range s.g.SyndromeInto(s.res, s.events[:s.g.NumChecks()]) {
		if hot {
			return false, fmt.Errorf("spacetime: residual check %d hot after block correction", i)
		}
	}
	if s.res.ParityZ(s.cut) == 1 {
		for _, q := range s.logical {
			s.res.Apply(q, pauli.Z)
		}
		return true, nil
	}
	return false, nil
}
