package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/decodepool"
	"repro/internal/decoder"
	"repro/internal/decoder/mwpm"
	"repro/internal/lattice"
	"repro/internal/mc"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/pauli"
	"repro/internal/sched"
	"repro/internal/sfq"
	"repro/internal/stats"
	"repro/internal/surface"
	"repro/internal/twolevel"
)

// meshVariant is the mesh design every workload decodes with: the
// paper's complete design, as cmd/serve and the sweep CLIs default to.
var meshVariant = sfq.Final

const (
	// setupReps is how many times a run repeats its set-up; setup_s is
	// the median.
	setupReps = 5
	// gateSamples is how many syndromes per sweep point feed the
	// correctness gates and the decode-latency probes. 480 fills whole
	// batch calls at every distance (lanes 20, 12 and 8 at d = 5, 9, 13).
	gateSamples = 480
	// gateStream keys the gate syndromes' random streams apart from the
	// sweep's own trial streams.
	gateStream = 0x9a7e
)

// sweepWorkload is one Monte-Carlo sweep: a (distance × rate) grid of
// dephasing lifetime points with a fixed trial budget per point and no
// adaptive stopping. One round is one full sweep of the grid.
type sweepWorkload struct {
	ds     []int
	ps     []float64
	cycles int              // trials per point per round
	batch  bool             // trials through the W-word BatchMesh lanes
	policy *twolevel.Policy // non-nil: two-level decoding, MWPM level 2
}

// sweepBatch is the Fig. 10 dephasing threshold sweep on the batch
// kernel.
var sweepBatch = sweepWorkload{
	ds: []int{5, 9, 13}, ps: []float64{0.01, 0.03, 0.05},
	cycles: 12000, batch: true,
}

// sweepTwoLevel is the two-level sweep: scalar sfq.Mesh at level 1,
// exact MWPM at level 2 for decodes the policy flags.
var sweepTwoLevel = sweepWorkload{
	ds: []int{7, 9, 11}, ps: []float64{0.03, 0.05},
	cycles: 4000, policy: hotPolicy(10),
}

// hotPolicy is the default escalation policy plus a hot-check threshold.
func hotPolicy(hot int) *twolevel.Policy {
	p := twolevel.DefaultPolicy()
	p.HotThreshold = hot
	return &p
}

// sweepEnv is a set-up sweep: the mesh pool every round draws from.
type sweepEnv struct {
	w       sweepWorkload
	pool    *sfq.Pool
	workers int
}

// setup builds the pool and warms it and the shared geometry caches with
// one level-1 mesh per worker and distance.
func (w sweepWorkload) setup(workers int) *sweepEnv {
	e := &sweepEnv{w: w, pool: sfq.NewPool(meshVariant), workers: workers}
	for _, d := range w.ds {
		decs := make([]decoder.Decoder, workers)
		for i := range decs {
			decs[i] = e.level1(d)
		}
		for _, dec := range decs {
			e.pool.Release(dec)
		}
		if w.policy != nil {
			decodepool.For(e.pool.Graph(d, lattice.ZErrors))
		}
	}
	return e
}

// level1 draws the workload's mesh decoder for distance d from the pool.
func (e *sweepEnv) level1(d int) decoder.Decoder {
	if e.w.batch {
		return e.pool.GetBatch(d, lattice.ZErrors)
	}
	return e.pool.Get(d, lattice.ZErrors)
}

// config is the sweep as stats.CurvesContext runs it.
func (e *sweepEnv) config(seed int64) stats.CurveConfig {
	cfg := stats.CurveConfig{
		Distances:   e.w.ds,
		Rates:       e.w.ps,
		Cycles:      e.w.cycles,
		NewChannel:  func(p float64) (noise.Channel, error) { return noise.NewDephasing(p) },
		NewDecoderZ: e.level1,
		Seed:        seed,
		Workers:     e.workers,
		FreeDecoder: e.pool.Release,
		Batch:       e.w.batch,
	}
	if e.w.policy != nil {
		cfg.TwoLevel = &stats.TwoLevelConfig{Policy: *e.w.policy}
	}
	return cfg
}

// roundResult is one sweep round: its points' fingerprint and totals.
type roundResult struct {
	fp       uint64
	trials   int
	failures int
	wall     time.Duration
}

// summarize fingerprints the points (FNV-1a over every field the engine
// tallies) and totals their trials and failures.
func summarize(pts []stats.Point, wall time.Duration) roundResult {
	h := fnv.New64a()
	r := roundResult{wall: wall}
	var b [8]byte
	for _, p := range pts {
		for _, v := range []uint64{uint64(p.D), math.Float64bits(p.P), uint64(p.Errors), uint64(p.Cycles), uint64(p.Forced)} {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
		r.trials += p.Cycles
		r.failures += p.Errors
	}
	r.fp = h.Sum64()
	return r
}

// cycleTally counts the simulated mesh cycles of every decode.
type cycleTally struct {
	decodes, cycles atomic.Int64
}

func (t *cycleTally) observer(int, float64) func(lattice.ErrorType, sfq.Stats) {
	return func(_ lattice.ErrorType, st sfq.Stats) {
		t.decodes.Add(1)
		t.cycles.Add(int64(st.Cycles))
	}
}

// round runs one untraced sweep through stats.CurvesContext.
func (e *sweepEnv) round(ctx context.Context, seed int64, observer func(int, float64) func(lattice.ErrorType, sfq.Stats)) (roundResult, error) {
	cfg := e.config(seed)
	cfg.Observer = observer
	t0 := time.Now()
	pts, err := stats.CurvesContext(ctx, cfg)
	wall := time.Since(t0)
	if err != nil {
		return roundResult{}, err
	}
	return summarize(pts, wall), nil
}

// pointSamples are syndromes drawn from one sweep point's own channel:
// one dephasing cycle on a clean frame, exactly as a lifetime trial
// draws them.
type pointSamples struct {
	d    int
	p    float64
	g    *lattice.Graph
	syns [][]bool
}

// samples draws gateSamples syndromes per point from the seed.
func (e *sweepEnv) samples(seed int64) ([]pointSamples, error) {
	var out []pointSamples
	for _, d := range e.w.ds {
		for _, p := range e.w.ps {
			ch, err := noise.NewDephasing(p)
			if err != nil {
				return nil, err
			}
			g := e.pool.Graph(d, lattice.ZErrors)
			id := mc.DeriveID(uint64(d), math.Float64bits(p), gateStream)
			ps := pointSamples{d: d, p: p, g: g, syns: make([][]bool, gateSamples)}
			for i := range ps.syns {
				ps.syns[i] = sampleSyndrome(g, ch, mc.NewRand(seed, id, int64(i)), nil)
			}
			out = append(out, ps)
		}
	}
	return out, nil
}

// dataQubits lists a lattice's data-qubit indices.
func dataQubits(l *lattice.Lattice) []int {
	var q []int
	for _, s := range l.DataSites() {
		q = append(q, l.QubitIndex(s))
	}
	return q
}

// sampleSyndrome applies one channel cycle to a clean frame and returns
// the frame's syndrome on g. When f is non-nil it receives the error.
func sampleSyndrome(g *lattice.Graph, ch noise.Channel, rng *rand.Rand, f *pauli.Frame) []bool {
	l := g.Lattice()
	if f == nil {
		f = pauli.NewFrame(l.NumQubits())
	}
	f.Clear()
	ch.Sample(rng, f, dataQubits(l))
	return g.SyndromeInto(f, nil)
}

// checkKernels is the batch-kernel gate: on every sample, the W-word
// BatchMesh's correction and full Stats must equal the scalar kernel's.
func (e *sweepEnv) checkKernels(pts []pointSamples) error {
	for _, ps := range pts {
		scalar := sfq.New(ps.g, meshVariant)
		batch := sfq.NewBatch(ps.g, meshVariant)
		scr := decodepool.NewScratch()
		for lo := 0; lo < len(ps.syns); lo += batch.Lanes() {
			chunk := ps.syns[lo:min(lo+batch.Lanes(), len(ps.syns))]
			got, err := batch.DecodeBatchInto(ps.g, chunk, scr)
			if err != nil {
				return fmt.Errorf("batch decode d=%d p=%g: %w", ps.d, ps.p, err)
			}
			for i, syn := range chunk {
				want, st, err := scalar.DecodeWithStats(syn)
				if err != nil {
					return fmt.Errorf("scalar decode d=%d p=%g: %w", ps.d, ps.p, err)
				}
				if !slices.Equal(got[i].Qubits, want.Qubits) || batch.LaneStats(i) != st {
					return mismatchf("d=%d p=%g sample %d: batch %v %+v, scalar %v %+v",
						ps.d, ps.p, lo+i, got[i].Qubits, batch.LaneStats(i), want.Qubits, st)
				}
			}
		}
	}
	return nil
}

// checkTwoLevel is the two-level gate: a correction equals the mesh's
// when the policy does not escalate and exact MWPM's when it does.
func (e *sweepEnv) checkTwoLevel(pts []pointSamples) error {
	if e.w.policy == nil {
		return nil
	}
	ref := mwpm.New()
	for _, ps := range pts {
		mesh := sfq.New(ps.g, meshVariant)
		tl := twolevel.New(sfq.New(ps.g, meshVariant), mwpm.New(), *e.w.policy)
		scr := decodepool.NewScratch()
		for i, syn := range ps.syns {
			got, err := tl.DecodeInto(ps.g, syn, scr)
			if err != nil {
				return fmt.Errorf("two-level decode d=%d p=%g: %w", ps.d, ps.p, err)
			}
			meshCorr, st, err := mesh.DecodeWithStats(syn)
			if err != nil {
				return err
			}
			want := meshCorr
			if e.w.policy.Escalate(st) {
				if want, err = ref.Decode(ps.g, syn); err != nil {
					return err
				}
			}
			if tl.Escalated(0) != e.w.policy.Escalate(st) || !slices.Equal(got.Qubits, want.Qubits) {
				return mismatchf("d=%d p=%g sample %d: two-level %v (escalated %v), want %v",
					ps.d, ps.p, i, got.Qubits, tl.Escalated(0), want.Qubits)
			}
		}
	}
	return nil
}

// probe times decode calls round-robin over the samples for budget (at
// least one full pass). With kernelOnly it times the level-1 kernel
// (sfq.host_ns_per_decode); otherwise the decoder the sweep actually
// calls per trial: the batch mesh for sweep-batch, the two-level decoder
// for sweep-twolevel. It returns each call's wall time and the total
// number of syndromes decoded.
func (e *sweepEnv) probe(pts []pointSamples, budget time.Duration, kernelOnly bool) (calls []float64, decodes int, err error) {
	type target struct {
		ps    pointSamples
		dec   decoder.Decoder
		lanes int
	}
	targets := make([]target, len(pts))
	for i, ps := range pts {
		l1 := e.level1(ps.d)
		defer e.pool.Release(l1)
		t := target{ps: ps, dec: l1, lanes: 1}
		if b, ok := l1.(*sfq.BatchMesh); ok {
			t.lanes = b.Lanes()
		} else if e.w.policy != nil && !kernelOnly {
			t.dec = twolevel.New(l1.(*sfq.Mesh), mwpm.New(), *e.w.policy)
		}
		targets[i] = t
	}
	scr := decodepool.NewScratch()
	deadline := time.Now().Add(budget)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for _, t := range targets {
			for lo := 0; lo < len(t.ps.syns); lo += t.lanes {
				chunk := t.ps.syns[lo:min(lo+t.lanes, len(t.ps.syns))]
				t0 := time.Now()
				if t.lanes > 1 {
					_, err = decodepool.DecodeBatch(t.dec, t.ps.g, chunk, scr)
				} else {
					_, err = decodepool.Decode(t.dec, t.ps.g, chunk[0], scr)
				}
				calls = append(calls, float64(time.Since(t0)))
				if err != nil {
					return nil, 0, err
				}
				decodes += len(chunk)
			}
		}
	}
	return calls, decodes, nil
}

// roundSeed derives round k's sweep seed from the run seed. Every
// round is a fresh sample, so the accuracy metrics pool all rounds.
func roundSeed(seed int64, k int) int64 { return mc.DeriveID(uint64(seed), uint64(k), 0x5eed) }

// roundCount sizes a run: one round per nominal second of the
// three-quarters of the run spent sweeping (each workload's cycles are
// sized so one round takes about a second on a 2-CPU host), at least
// three. The count depends only on --seconds, so for a given seed and
// length every round, and every accuracy figure, is the same on any
// host.
func roundCount(seconds time.Duration) int { return max(3, int(seconds*3/4/time.Second)) }

// run drives one sweep workload.
func (w sweepWorkload) run(ctx context.Context, r *Run) error {
	var e *sweepEnv
	var pts []pointSamples
	setups := make([]float64, setupReps)
	for i := range setups {
		e, pts = nil, nil // the previous set-up's data must not overlap the next
		runtime.GC()      // nor its garbage, collected on the clock
		t0 := time.Now()
		e = w.setup(r.Workers)
		var err error
		if pts, err = e.samples(r.Seed); err != nil {
			return err
		}
		setups[i] = time.Since(t0).Seconds()
	}
	r.MarkHeap()
	if err := e.checkKernels(pts); err != nil {
		return err
	}
	if err := e.checkTwoLevel(pts); err != nil {
		return err
	}
	r.MarkHeap()
	r.Logf("gates passed on %d syndromes: batch kernel == scalar kernel; two-level == mesh or MWPM", len(pts)*gateSamples)
	rounds := roundCount(r.Seconds)
	if r.Trace {
		return e.traced(ctx, r, pts, rounds)
	}
	// Round 0 is untimed: it warms every cache and counts the simulated
	// cycles of every decode through the observer hook. A slice of the
	// decode-latency probe follows every timed round, so the probe sees
	// the same stretch of host time as the sweep.
	var tally cycleTally
	var trials, failures, decodes int
	var rates, calls []float64
	h := fnv.New64a()
	for k := 0; k < rounds; k++ {
		var observer func(int, float64) func(lattice.ErrorType, sfq.Stats)
		if k == 0 {
			observer = tally.observer
		}
		res, err := e.round(ctx, roundSeed(r.Seed, k), observer)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%016x", res.fp)
		trials += res.trials
		failures += res.failures
		r.MarkHeap()
		if k == 0 {
			continue
		}
		rates = append(rates, float64(res.trials)/res.wall.Seconds())
		c, n, err := e.probe(pts, r.Seconds/4/time.Duration(rounds-1), false)
		if err != nil {
			return err
		}
		calls = append(calls, c...)
		decodes += n
	}
	r.Attempted += int64(trials + decodes)
	win, err := quietestWindow(calls, 0.5, 0.9)
	if err != nil {
		return fmt.Errorf("decode-call latency: %w", err)
	}
	lat := NewDist(calls)
	r.Logf("rounds %d, %d trials, %d failures, sweep fingerprint %016x", rounds, trials, failures, h.Sum64())
	r.Logf("timed rounds trials/s %.0f", rates)
	r.Logf("decode-call latency, whole probe: %s; quietest of %d windows: p50=%.4gms p90=%.4gms",
		lat.Describe(1e-6, "ms"), latWindows, win[0]/1e6, win[1]/1e6)
	r.Set("setup_s", median(setups))
	r.Set("ops_per_s", median(rates))
	r.Set("lat_p50_ms", win[0]/1e6)
	r.Set("lat_p90_ms", win[1]/1e6)
	r.Set("sim_cycles_per_decode", float64(tally.cycles.Load())/float64(tally.decodes.Load()))
	r.Set("logical_error_rate", float64(failures)/float64(trials))
	return nil
}

// traced runs each of the first half of the rounds twice, untraced then
// traced; both must produce the same points bit for bit. It then probes
// the level-1 kernel alone.
func (e *sweepEnv) traced(ctx context.Context, r *Run, pts []pointSamples, rounds int) error {
	tr := &layerTrace{}
	var plain, traced []float64
	for k := 0; k < max(2, rounds/2); k++ {
		res, err := e.round(ctx, roundSeed(r.Seed, k), nil)
		if err != nil {
			return err
		}
		tres, err := e.tracedRound(ctx, roundSeed(r.Seed, k), tr)
		if err != nil {
			return err
		}
		if res.fp != tres.fp {
			return mismatchf("round %d: untraced fingerprint %016x, traced %016x", k, res.fp, tres.fp)
		}
		plain = append(plain, res.wall.Seconds())
		traced = append(traced, tres.wall.Seconds())
		r.Attempted += int64(res.trials + tres.trials)
	}
	calls, decodes, err := e.probe(pts, r.Seconds/4, true)
	if err != nil {
		return err
	}
	r.Attempted += int64(decodes)
	kernelNs := sum(calls) / float64(decodes)

	trials := float64(tr.trials)
	cyc := NewDist(tr.cycles)
	trialNs := NewDist(tr.trialNs)
	mw := NewDist(tr.mwpmNs)
	decodesPerTrial := float64(cyc.N()) / trials
	hostPerTrial := tr.trialSum / trials
	r.Logf("round pairs %d: wall untraced %.3f s, traced %.3f s", len(traced), plain, traced)
	r.Logf("mc trial ns: %s", trialNs.Describe(1, "ns"))
	r.Logf("sfq cycles/decode: %s", cyc.Describe(1, ""))
	r.Logf("decodepool mwpm ns: %s", mw.Describe(1, "ns"))
	r.Set("sfq.host_ns_per_decode", kernelNs)
	r.Set("sfq.decodes", float64(cyc.N())/float64(len(traced)))
	r.Set("sfq.sim_cycles_p99", cyc.Quantile(0.99))
	r.Set("sfq.retry_frac", float64(tr.retries)/float64(cyc.N()))
	r.Set("sfq.unresolved_frac", float64(tr.unresolved)/float64(cyc.N()))
	r.Set("surface.host_ns_per_trial", hostPerTrial)
	r.Set("surface.self_ns_per_trial", hostPerTrial-decodesPerTrial*kernelNs-tr.mwpmSum/trials)
	r.Set("mc.trial_ns_p50", trialNs.Quantile(0.5))
	r.Set("mc.trial_ns_p99", trialNs.Quantile(0.99))
	r.Set("mc.busy_frac", median(tr.busy))
	r.Set("sched.steals", median(tr.steals))
	r.Set("sched.parks", median(tr.parks))
	if tr.tlDecodes > 0 {
		r.Set("twolevel.esc_frac", float64(tr.escalations)/float64(tr.tlDecodes))
		r.Set("decodepool.mwpm_ns_p50", mw.Quantile(0.5))
		r.Set("decodepool.mwpm_ns_p99", mw.Quantile(0.99))
		r.Set("decodepool.mwpm_share", tr.mwpmSum/tr.trialSum)
	}
	r.Set("trace_overhead_frac", median(traced)/median(plain)-1)
	return nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// layerTrace accumulates the per-layer samples of every traced round.
type layerTrace struct {
	mu sync.Mutex
	shardRec
	escalations, tlDecodes int64
	// Per traced round.
	busy, steals, parks []float64
}

// shardRec is one shard's private span and counter record, merged into
// the layerTrace when the engine releases the shard.
type shardRec struct {
	trialNs             []float64 // per engine call, ns per trial
	trialSum            float64   // ns inside surface calls
	trials              int64
	cycles              []float64 // simulated cycles per decode
	retries, unresolved int64     // decodes with Retries > 0, Unresolved > 0
	mwpmNs              []float64 // per level-2 decode
	mwpmSum             float64
}

func (t *layerTrace) merge(s *shardRec, tl *twolevel.Decoder) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trialNs = append(t.trialNs, s.trialNs...)
	t.trialSum += s.trialSum
	t.trials += s.trials
	t.cycles = append(t.cycles, s.cycles...)
	t.retries += s.retries
	t.unresolved += s.unresolved
	t.mwpmNs = append(t.mwpmNs, s.mwpmNs...)
	t.mwpmSum += s.mwpmSum
	if tl != nil {
		t.escalations += tl.Escalations()
		t.tlDecodes += tl.Decodes()
	}
}

// timedShard is the engine shard of a traced round. It runs exactly the
// calls stats.LifetimeSpec's shard runs — Reset + SetRand + Run(1), or
// RunTrialBatch — with a span around each, and observes every mesh
// decode's Stats through surface.Config.Observer.
type timedShard struct {
	sim   *surface.Simulator
	l1    decoder.Decoder   // level-1 mesh, returned to the pool
	tl    *twolevel.Decoder // nil unless two-level
	bouts []surface.BatchOutcome
	rec   shardRec
}

func (sh *timedShard) observe(_ lattice.ErrorType, st sfq.Stats) {
	sh.rec.cycles = append(sh.rec.cycles, float64(st.Cycles))
	if st.Retries > 0 {
		sh.rec.retries++
	}
	if st.Unresolved > 0 {
		sh.rec.unresolved++
	}
}

func (sh *timedShard) span(t0 time.Time, n int) {
	ns := float64(time.Since(t0))
	sh.rec.trialNs = append(sh.rec.trialNs, ns/float64(n))
	sh.rec.trialSum += ns
	sh.rec.trials += int64(n)
}

// Trial implements mc.Shard.
func (sh *timedShard) Trial(rng *rand.Rand, _ int) (mc.Outcome, error) {
	t0 := time.Now()
	sh.sim.Reset()
	sh.sim.SetRand(rng)
	res, err := sh.sim.Run(1)
	sh.span(t0, 1)
	if err != nil {
		return mc.Outcome{}, err
	}
	return mc.Outcome{Failed: res.LogicalErrors > 0, Aux: int64(res.Forced)}, nil
}

// BatchSize implements mc.BatchShard.
func (sh *timedShard) BatchSize() int { return sh.sim.BatchWidth() }

// TrialBatch implements mc.BatchShard.
func (sh *timedShard) TrialBatch(rngs []*rand.Rand, _ int, out []mc.Outcome) error {
	if cap(sh.bouts) < len(rngs) {
		sh.bouts = make([]surface.BatchOutcome, len(rngs))
	}
	bouts := sh.bouts[:len(rngs)]
	t0 := time.Now()
	err := sh.sim.RunTrialBatch(rngs, bouts)
	sh.span(t0, len(rngs))
	if err != nil {
		return err
	}
	for i, bo := range bouts {
		out[i] = mc.Outcome{Failed: bo.Failed, Aux: int64(bo.Forced)}
	}
	return nil
}

// timedDecoder is the level-2 MWPM decoder with a span around each call.
type timedDecoder struct {
	decodepool.IntoDecoder
	rec *shardRec
}

func (t *timedDecoder) DecodeInto(g *lattice.Graph, syn []bool, s *decodepool.Scratch) (decoder.Correction, error) {
	t0 := time.Now()
	c, err := t.IntoDecoder.DecodeInto(g, syn, s)
	ns := float64(time.Since(t0))
	t.rec.mwpmNs = append(t.rec.mwpmNs, ns)
	t.rec.mwpmSum += ns
	return c, err
}

// newTimedShard builds one traced shard for point (d, p), mirroring the
// decoder stack stats.CurvesContext builds.
func (e *sweepEnv) newTimedShard(d int, p float64) (mc.Shard, error) {
	ch, err := noise.NewDephasing(p)
	if err != nil {
		return nil, err
	}
	sh := &timedShard{l1: e.level1(d)}
	dec := sh.l1
	if e.w.policy != nil {
		acc := &timedDecoder{IntoDecoder: mwpm.New(), rec: &sh.rec}
		switch m := sh.l1.(type) {
		case *sfq.Mesh:
			sh.tl = twolevel.New(m, acc, *e.w.policy)
		case *sfq.BatchMesh:
			sh.tl = twolevel.NewBatch(m, acc, *e.w.policy)
		}
		dec = sh.tl
	}
	sh.sim, err = surface.New(surface.Config{Distance: d, Channel: ch, DecoderZ: dec, Observer: sh.observe})
	if err != nil {
		e.pool.Release(sh.l1)
		return nil, err
	}
	return sh, nil
}

// tracedRound runs the sweep on the engine directly (mc.Run) with timed
// shards, the engine's own telemetry registry and scheduler counters.
func (e *sweepEnv) tracedRound(ctx context.Context, seed int64, tr *layerTrace) (roundResult, error) {
	var specs []mc.PointSpec
	for _, d := range e.w.ds {
		for _, p := range e.w.ps {
			specs = append(specs, mc.PointSpec{
				ID:       stats.PointID(d, p),
				Trials:   e.w.cycles,
				NewShard: func() (mc.Shard, error) { return e.newTimedShard(d, p) },
				Release: func(s mc.Shard) {
					sh := s.(*timedShard)
					tr.merge(&sh.rec, sh.tl)
					e.pool.Release(sh.l1)
				},
			})
		}
	}
	reg := obs.NewRegistry()
	var st sched.Stats
	before := tr.trialSum
	t0 := time.Now()
	results, err := mc.Run(ctx, mc.Config{RootSeed: seed, Workers: e.workers, Batch: e.w.batch, Obs: reg, SchedStats: &st}, specs)
	wall := time.Since(t0)
	if err != nil {
		return roundResult{}, err
	}
	pts := make([]stats.Point, 0, len(results))
	i := 0
	for _, d := range e.w.ds {
		for _, p := range e.w.ps {
			res := results[i]
			i++
			pts = append(pts, stats.Point{D: d, P: p, Errors: res.Failures, Cycles: res.Trials, Forced: int(res.Aux)})
		}
	}
	out := summarize(pts, wall)
	if got := reg.Counter("mc_trials_total").Load(); got != int64(out.trials) {
		return roundResult{}, mismatchf("mc_trials_total %d, engine results %d trials", got, out.trials)
	}
	if got := reg.Counter("mc_failures_total").Load(); got != int64(out.failures) {
		return roundResult{}, mismatchf("mc_failures_total %d, engine results %d failures", got, out.failures)
	}
	tr.mu.Lock()
	tr.busy = append(tr.busy, (tr.trialSum-before)/(float64(wall)*float64(e.workers)))
	tr.steals = append(tr.steals, float64(st.Steals))
	tr.parks = append(tr.parks, float64(st.Parks))
	tr.mu.Unlock()
	return out, nil
}
