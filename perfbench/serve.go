package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/lattice"
	"repro/internal/mc"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/pauli"
	"repro/internal/serve"
	"repro/internal/sfq"
)

const (
	// latencyLimit is the service's latency objective: an OK answered
	// later misses it like a shed or an error (client.fail_frac).
	latencyLimit = 25 * time.Millisecond
	// serveConns is the number of pipelined client connections.
	serveConns = 2
	// dispatchers bounds concurrent Client.Do calls. It is far above the
	// server's total in-flight window (serveConns × 32), so the server
	// sees the same saturation it would under one goroutine per request;
	// requests beyond it wait in the dispatch queue, and that wait is
	// timed from each request's scheduled instant like any other.
	dispatchers = 512
	// corpusSize is the number of distinct requests a rung draws from.
	corpusSize = 16384
	// serveRate is the physical error rate of the request syndromes.
	serveRate = 0.05
	// warmupRequests are sent closed-loop before timing.
	warmupRequests = 3000
	// maxGenLagMs bounds the generator's p99 lateness. A run beyond it is
	// flagged: the offered load was not the nominal rate.
	maxGenLagMs = 5.0
)

// serveDistances are the code distances the service is asked to decode.
var serveDistances = []int{5, 9, 13}

// serveRung is one fixed absolute offered rate, in requests per second,
// against a fresh in-process server.
type serveRung float64

// corpusEntry is one request with its expected answer: the scalar sfq
// kernel's correction and cycle count, and whether that correction
// leaves a logical error on the sampled error.
type corpusEntry struct {
	d      int
	e      lattice.ErrorType
	syn    []bool
	frame  *pauli.Frame // the sampled error; dropped once flip is known
	want   []int32
	cycles uint32
	flip   bool
}

// buildCorpus draws the request corpus from the seed: distances and
// error types cycle through d ∈ serveDistances × {Z, X}; Z requests
// carry dephasing syndromes and X requests the matching bit-flip
// channel's.
func buildCorpus(seed int64) ([]corpusEntry, error) {
	deph, err := noise.NewDephasing(serveRate)
	if err != nil {
		return nil, err
	}
	flip, err := noise.NewBitFlip(serveRate)
	if err != nil {
		return nil, err
	}
	graphs := map[[2]int]*lattice.Graph{}
	out := make([]corpusEntry, corpusSize)
	for i := range out {
		d := serveDistances[i%len(serveDistances)]
		e := []lattice.ErrorType{lattice.ZErrors, lattice.XErrors}[(i/len(serveDistances))%2]
		key := [2]int{d, int(e)}
		g := graphs[key]
		if g == nil {
			g = lattice.MustNew(d).MatchingGraph(e)
			graphs[key] = g
		}
		var ch noise.Channel = deph
		if e == lattice.XErrors {
			ch = flip
		}
		f := pauli.NewFrame(g.Lattice().NumQubits())
		syn := sampleSyndrome(g, ch, mc.NewRand(seed, mc.DeriveID(0xc0, 0x1105), int64(i)), f)
		out[i] = corpusEntry{d: d, e: e, syn: syn, frame: f}
	}
	return out, nil
}

// referenceDecode fills every entry's expected answer with the scalar
// kernel, and whether it flips the logical qubit.
func referenceDecode(corpus []corpusEntry) error {
	meshes := map[[2]int]*sfq.Mesh{}
	graphs := map[[2]int]*lattice.Graph{}
	for i := range corpus {
		ce := &corpus[i]
		key := [2]int{ce.d, int(ce.e)}
		m := meshes[key]
		if m == nil {
			graphs[key] = lattice.MustNew(ce.d).MatchingGraph(ce.e)
			m = sfq.New(graphs[key], meshVariant)
			meshes[key] = m
		}
		c, st, err := m.DecodeWithStats(ce.syn)
		if err != nil {
			return fmt.Errorf("reference decode: %w", err)
		}
		ce.want = make([]int32, len(c.Qubits))
		for j, q := range c.Qubits {
			ce.want[j] = int32(q)
		}
		ce.cycles = uint32(st.Cycles)
		ce.flip = logicalFlip(graphs[key], ce.frame, c.Qubits)
		ce.frame = nil
	}
	return nil
}

// logicalFlip applies a correction to the error the way the lifetime
// simulator does — any check the correction leaves hot is completed to
// the boundary — and reports whether the residual is a logical error.
func logicalFlip(g *lattice.Graph, f *pauli.Frame, corr []int) bool {
	op, parity := pauli.Z, (*pauli.Frame).ParityZ
	if g.ErrorType() == lattice.XErrors {
		op, parity = pauli.X, (*pauli.Frame).ParityX
	}
	r := f.Clone()
	for _, q := range corr {
		r.Apply(q, op)
	}
	for i, hot := range g.SyndromeInto(r, nil) {
		if hot {
			for _, q := range g.BoundaryPathQubits(i) {
				r.Apply(q, op)
			}
		}
	}
	return parity(r, g.Lattice().LogicalCutSupport(g.ErrorType())) == 1
}

// matches reports whether a response carries the entry's reference
// correction and cycle count.
func (ce *corpusEntry) matches(resp *serve.Response) bool {
	return resp.Cycles == ce.cycles && slices.Equal(resp.Qubits, ce.want)
}

// serveEnv is one running server with its connected clients.
type serveEnv struct {
	srv     *serve.Server
	clients []*serve.Client
	served  chan error
	spans   *spanLog // nil unless traced
}

// startServer builds a server with cmd/serve's defaults (escalation on
// with hot threshold 14, 3 ms sojourn bound, default lanes, windows and
// flush policy), every knob-backed setting pinned explicitly, on a
// loopback listener, and dials the clients.
func startServer(traced bool) (*serveEnv, error) {
	e := &serveEnv{served: make(chan error, 1)}
	reg := obs.NewRegistry()
	cfg := serve.Config{
		Variant:        meshVariant,
		Distances:      serveDistances,
		Workers:        1,
		QueueDepth:     64,
		Window:         32,
		Enter:          1.0,
		Exit:           0.85,
		EvalEvery:      50 * time.Millisecond,
		Registry:       reg,
		Escalate:       true,
		EscalatePolicy: hotPolicy(14),
		EscQueueDepth:  256,
		EscWorkers:     1,
		TraceSample:    -1,
		MaxQueueWait:   3 * time.Millisecond,
		FlushEvery:     8,
		FlushInterval:  200 * time.Microsecond,
	}
	if traced {
		cfg.TraceSample = 1
	}
	e.srv = serve.New(cfg)
	if traced {
		e.spans = newSpanLog(reg)
		e.srv.Tracer().SetObserver(e.spans.observe)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.srv.Close()
		return nil, err
	}
	go func() { e.served <- e.srv.Serve(ln) }()
	for i := 0; i < serveConns; i++ {
		c, err := serve.Dial(ln.Addr().String())
		if err != nil {
			e.close()
			return nil, err
		}
		e.clients = append(e.clients, c)
	}
	return e, nil
}

// close disconnects the clients, drains the server and waits for its
// accept loop to return. Serve's own result is dropped: when Close wins
// the race with Serve registering the listener, Serve reports the server
// closed, which is no failure; a listener that broke mid-run shows as
// client errors instead.
func (e *serveEnv) close() error {
	for _, c := range e.clients {
		c.Close()
	}
	err := e.srv.Close()
	<-e.served
	return err
}

// flushes sums the clients' socket flushes.
func (e *serveEnv) flushes() uint64 {
	var n uint64
	for _, c := range e.clients {
		n += c.Flushes()
	}
	return n
}

// warmup sends warmupRequests closed-loop from 64 goroutines and checks
// every OK response against its reference: the serve correctness gate
// that runs before any timing. It requires at least one OK answer.
func (e *serveEnv) warmup(corpus []corpusEntry) error {
	const par = 64
	var wg sync.WaitGroup
	var mu sync.Mutex
	var oks int
	var errs []error
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < warmupRequests; i += par {
				ce := &corpus[i%len(corpus)]
				resp, err := e.clients[i%len(e.clients)].Do(&serve.Request{D: ce.d, EType: ce.e, Syndrome: ce.syn})
				mu.Lock()
				switch {
				case err != nil:
					errs = append(errs, err)
				case resp.Status == serve.StatusOK && !ce.matches(resp):
					errs = append(errs, mismatchf("warm-up request %d: served %v (%d cycles), scalar sfq %v (%d cycles)",
						i, resp.Qubits, resp.Cycles, ce.want, ce.cycles))
				case resp.Status == serve.StatusOK:
					oks++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if len(errs) > 0 {
		return errors.Join(errs...)
	}
	if oks == 0 {
		return fmt.Errorf("warm-up: no request answered OK")
	}
	return nil
}

// run drives one rung.
func (rate serveRung) run(_ context.Context, r *Run) error {
	var env *serveEnv
	var corpus []corpusEntry
	setups := make([]float64, setupReps)
	for i := range setups {
		if env != nil {
			if err := env.close(); err != nil {
				return err
			}
		}
		env, corpus = nil, nil // the previous set-up's data must not overlap the next
		runtime.GC()           // nor its garbage, collected on the clock
		t0 := time.Now()
		var err error
		if corpus, err = buildCorpus(r.Seed); err != nil {
			return err
		}
		if env, err = startServer(false); err != nil {
			return err
		}
		setups[i] = time.Since(t0).Seconds()
	}
	if err := referenceDecode(corpus); err != nil {
		env.close()
		return err
	}
	if err := env.warmup(corpus); err != nil {
		env.close()
		return err
	}
	r.Logf("gate passed: %d warm-up responses equal the scalar sfq decode", warmupRequests)
	r.MarkHeap()
	if r.Trace {
		if err := env.close(); err != nil {
			return err
		}
		return rate.traced(r, corpus)
	}
	sched := newSchedule(r.Seed, float64(rate), r.Seconds, len(corpus))
	lr := sched.drive(env.clients, corpus)
	r.MarkHeap()
	if err := env.close(); err != nil {
		return err
	}
	if err := lr.check(r); err != nil {
		return err
	}
	series := lr.okLatencySeries()
	win, err := quietestWindow(series, 0.5, 0.9)
	if err != nil {
		return fmt.Errorf("client latency: %w", err)
	}
	r.Logf("offered %.0f/s: %s", float64(rate), lr.tally)
	r.Logf("latency from scheduled arrival (OK), whole run: %s; quietest of %d windows: p50=%.4gms p90=%.4gms",
		NewDist(series).Describe(1e-6, "ms"), latWindows, win[0]/1e6, win[1]/1e6)
	lr.flagLag(r)
	r.Set("setup_s", median(setups))
	r.Set("ops_per_s", float64(lr.tally.ok+lr.tally.late)/lr.elapsed.Seconds())
	r.Set("lat_p50_ms", win[0]/1e6)
	r.Set("lat_p90_ms", win[1]/1e6)
	r.Set("sim_cycles_per_decode", lr.cyclesMean())
	r.Set("logical_error_rate", lr.flipRate())
	return nil
}

// traced runs the rung twice for half the time each, on fresh servers:
// untraced, then with every request traced (span observer) and the
// client-side spans kept. The per-layer metrics come from the traced
// half; trace_overhead_frac compares the two halves' median latency.
func (rate serveRung) traced(r *Run, corpus []corpusEntry) error {
	var halves [2]*loadResult
	var env *serveEnv
	for i := range halves {
		var err error
		if env, err = startServer(i == 1); err != nil {
			return err
		}
		if err := env.warmup(corpus); err != nil {
			env.close()
			return err
		}
		if i == 1 {
			env.spans.reset()
		}
		flushed := env.flushes()
		halves[i] = newSchedule(r.Seed, float64(rate), r.Seconds/2, len(corpus)).drive(env.clients, corpus)
		halves[i].flushes = env.flushes() - flushed
		if err := env.close(); err != nil {
			return err
		}
		if err := halves[i].check(r); err != nil {
			return err
		}
	}
	lr, sp := halves[1], env.spans
	lat := lr.okLatency()
	lag := lr.lag()
	dispatch := NewDist(lr.collect(func(q *reqRecord) (float64, bool) { return q.dispatchNs, true }))
	rtt := NewDist(lr.collect(func(q *reqRecord) (float64, bool) { return q.rttNs, q.status == serve.StatusOK }))
	wall := NewDist(sp.wall)
	r.Logf("traced half, offered %.0f/s: %s", float64(rate), lr.tally)
	r.Logf("client latency: %s", lat.Describe(1e-6, "ms"))
	r.Logf("dispatch wait: %s", dispatch.Describe(1e-6, "ms"))
	r.Logf("client rtt: %s", rtt.Describe(1e-6, "ms"))
	r.Logf("server span wall (decoded requests): %s", wall.Describe(1e-6, "ms"))
	for _, st := range sp.stageOrder {
		r.Logf("server stage %s: %s", st, NewDist(sp.stages[st]).Describe(1e-6, "ms"))
	}
	lr.flagLag(r)
	cycles := NewDist(lr.collect(func(q *reqRecord) (float64, bool) { return float64(q.cycles), q.status == serve.StatusOK && !q.err }))
	r.Set("sfq.decodes", float64(cycles.N()))
	r.Set("sfq.sim_cycles_p99", cycles.Quantile(0.99))
	r.Set("client.gen_lag_ms_p99", lag.Quantile(0.99)/1e6)
	r.Set("client.dispatch_ms_p99", dispatch.Quantile(0.99)/1e6)
	r.Set("client.lat_ms_p99", lat.Quantile(0.99)/1e6)
	r.Set("client.rtt_ms_p50", rtt.Quantile(0.5)/1e6)
	r.Set("client.rtt_ms_p99", rtt.Quantile(0.99)/1e6)
	if lr.flushes > 0 {
		r.Set("client.flush_batch", float64(lr.tally.sent)/float64(lr.flushes))
	}
	r.Set("client.unattributed_ms_mean", unattributedNs(lat.Mean(), wall.Mean())/1e6)
	r.Set("client.ok_frac", lr.tally.okFrac())
	r.Set("client.fail_frac", lr.tally.failFrac())
	for _, st := range sp.stageOrder {
		r.Set("serve."+st+"_ms_p99", NewDist(sp.stages[st]).Quantile(0.99)/1e6)
	}
	r.Set("serve.sched_wait_ms_mean", sp.histMean("serve_sched_wait_ns")/1e6)
	r.Set("serve.batch_lanes_mean", sp.histMean("serve_batch_lanes"))
	c := sp.counter
	escs := c("serve_escalations_total") + c("serve_escalate_dropped_total")
	if ok := c("serve_ok_total"); ok > 0 {
		r.Set("serve.esc_frac", escs/ok)
	}
	if escs > 0 {
		r.Set("serve.esc_drop_frac", c("serve_escalate_dropped_total")/escs)
	}
	if req := c("serve_requests_total"); req > 0 {
		r.Set("serve.shed_frac", c("serve_shed_total")/req)
		r.Set("serve.sojourn_drop_frac", c("serve_sojourn_dropped_total")/req)
	}
	r.Set("trace_overhead_frac", lat.Quantile(0.5)/halves[0].okLatency().Quantile(0.5)-1)
	return nil
}

// unattributedNs is the part of the mean client latency no server stage
// covers: the mean latency from scheduled arrival minus the mean server
// span wall time (accept through response write).
func unattributedNs(clientMeanNs, serverMeanNs float64) float64 {
	return clientMeanNs - serverMeanNs
}

// spanLog is the traced server's span observer: it keeps raw per-stage
// durations of every decoded request, and feeds the server's own
// derived stage histograms exactly as the observer it replaces did.
type spanLog struct {
	reg        *obs.Registry
	queueWait  *obs.Histogram
	coalesce   *obs.Histogram
	escWait    *obs.Histogram
	stageOrder []string

	// Counter and histogram readings at the last reset, so the traced
	// window excludes the warm-up.
	counters map[string]int64
	hists    map[string]obs.Snapshot

	mu     sync.Mutex
	wall   []float64
	stages map[string][]float64
}

// spanCounters and spanHists are the registry series the traced run
// reads.
var (
	spanCounters = []string{"serve_requests_total", "serve_ok_total", "serve_shed_total",
		"serve_sojourn_dropped_total", "serve_escalations_total", "serve_escalate_dropped_total"}
	spanHists = []string{"serve_sched_wait_ns", "serve_batch_lanes"}
)

// counter returns a counter's increase since the last reset.
func (s *spanLog) counter(name string) float64 {
	return float64(s.reg.Counter(name).Load() - s.counters[name])
}

// histMean returns the exact mean of a histogram's observations since
// the last reset (the registry tracks the sum outside the buckets).
func (s *spanLog) histMean(name string) float64 {
	now, base := s.reg.Histogram(name).Snapshot(), s.hists[name]
	if now.Count == base.Count {
		return 0
	}
	return float64(now.Sum-base.Sum) / float64(now.Count-base.Count)
}

// spanStages are the per-request stage intervals, named as the metrics.
var spanStages = []struct {
	name     string
	from, to trace.Stage
}{
	{"queue_wait", trace.StageEnqueue, trace.StageCoalesce},
	{"coalesce", trace.StageCoalesce, trace.StageDecodeStart},
	{"decode", trace.StageDecodeStart, trace.StageDecodeEnd},
	{"resp_write", trace.StageDecodeEnd, trace.StageRespWrite},
	{"escalate_wait", trace.StageDecodeEnd, trace.StageEscalateStart},
	{"escalate", trace.StageEscalateStart, trace.StageEscalateEnd},
}

func newSpanLog(reg *obs.Registry) *spanLog {
	s := &spanLog{
		reg:       reg,
		queueWait: reg.Histogram("serve_queue_wait_ns"),
		coalesce:  reg.Histogram("serve_coalesce_ns"),
		escWait:   reg.Histogram("serve_escalate_wait_ns"),
	}
	for _, st := range spanStages {
		s.stageOrder = append(s.stageOrder, st.name)
	}
	s.reset()
	return s
}

// reset drops everything recorded so far (the warm-up's spans) and
// rebases the registry readings.
func (s *spanLog) reset() {
	s.mu.Lock()
	s.wall = s.wall[:0]
	s.stages = map[string][]float64{}
	s.mu.Unlock()
	s.counters = map[string]int64{}
	for _, n := range spanCounters {
		s.counters[n] = s.reg.Counter(n).Load()
	}
	s.hists = map[string]obs.Snapshot{}
	for _, n := range spanHists {
		s.hists[n] = s.reg.Histogram(n).Snapshot()
	}
}

func stageNs(sp *trace.Span, from, to trace.Stage) (int64, bool) {
	a, b := sp.TS(from), sp.TS(to)
	return b - a, a != 0 && b != 0 && b >= a
}

func (s *spanLog) observe(sp *trace.Span) {
	if sp.Kind() != trace.KindRequest {
		return
	}
	if ns, ok := stageNs(sp, trace.StageEnqueue, trace.StageCoalesce); ok {
		s.queueWait.Observe(uint64(ns))
	}
	if ns, ok := stageNs(sp, trace.StageCoalesce, trace.StageDecodeStart); ok {
		s.coalesce.Observe(uint64(ns))
	}
	if ns, ok := stageNs(sp, trace.StageDecodeEnd, trace.StageEscalateStart); ok {
		s.escWait.Observe(uint64(ns))
	}
	decoded := sp.TS(trace.StageDecodeEnd) != 0 && sp.TS(trace.StageRespWrite) != 0
	s.mu.Lock()
	defer s.mu.Unlock()
	if decoded {
		s.wall = append(s.wall, float64(sp.WallNs()))
	}
	for _, st := range spanStages {
		if ns, ok := stageNs(sp, st.from, st.to); ok {
			s.stages[st.name] = append(s.stages[st.name], float64(ns))
		}
	}
}

// reqRecord is one scheduled request's client-side spans.
type reqRecord struct {
	lagNs      float64 // scheduled instant → generator emitted it
	dispatchNs float64 // scheduled instant → Client.Do entered
	rttNs      float64 // Client.Do entered → response received
	latNs      float64 // scheduled instant → response received
	status     serve.Status
	err        bool // transport error
	mismatch   bool // OK but not the reference answer
	cycles     uint32
	flip       bool
}

// schedule is an open-loop Poisson arrival process: arrival offsets
// from the start and the corpus entry each arrival sends.
type schedule struct {
	at    []time.Duration
	picks []int32
}

// newSchedule draws the arrivals and their requests from the seed.
func newSchedule(seed int64, rate float64, dur time.Duration, corpusLen int) schedule {
	id := mc.DeriveID(math.Float64bits(rate), 0xa881)
	times := mc.NewRand(seed, id, 0)
	picks := mc.NewRand(seed, id, 1)
	var s schedule
	for t := 0.0; ; {
		t += times.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return s
		}
		s.at = append(s.at, time.Duration(t*float64(time.Second)))
		s.picks = append(s.picks, int32(picks.Intn(corpusLen)))
	}
}

// loadResult is one rung's client-side record.
type loadResult struct {
	recs    []reqRecord
	tally   tally
	elapsed time.Duration // start → last response
	flushes uint64
}

// drive replays the schedule. The generator never skips a late
// arrival: it emits every one in order as soon as it is due, and each
// request is timed from its scheduled instant, so a stall anywhere —
// generator, dispatch queue, client, wire or server — shows up in the
// latency of every request it delays.
func (s schedule) drive(clients []*serve.Client, corpus []corpusEntry) *loadResult {
	lr := &loadResult{recs: make([]reqRecord, len(s.at))}
	// Sized to the whole schedule so the generator never blocks on
	// slow dispatch and its lateness measures only its own pacing.
	queue := make(chan int, len(s.at))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < dispatchers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				due := start.Add(s.at[i])
				ce := &corpus[s.picks[i]]
				rec := &lr.recs[i]
				entered := time.Now()
				resp, err := clients[i%len(clients)].Do(&serve.Request{D: ce.d, EType: ce.e, Syndrome: ce.syn})
				done := time.Now()
				rec.dispatchNs = float64(entered.Sub(due))
				rec.rttNs = float64(done.Sub(entered))
				rec.latNs = float64(done.Sub(due))
				if err != nil {
					rec.err = true
					continue
				}
				rec.status = resp.Status
				if resp.Status == serve.StatusOK {
					rec.mismatch = !ce.matches(resp)
					rec.cycles = resp.Cycles
					rec.flip = ce.flip
				}
			}
		}()
	}
	for i, off := range s.at {
		due := start.Add(off)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		lr.recs[i].lagNs = float64(time.Since(due))
		queue <- i
	}
	close(queue)
	wg.Wait()
	lr.elapsed = time.Since(start)
	for i := range lr.recs {
		q := &lr.recs[i]
		lr.tally.add(q.status, q.err, time.Duration(q.latNs))
	}
	return lr
}

// check turns mismatches into the gate failure, adds the rung's
// operations to the run's counts, and requires the generator to have
// offered at least one request.
func (lr *loadResult) check(r *Run) error {
	r.Attempted += lr.tally.sent
	r.Failed += lr.tally.errs
	for i := range lr.recs {
		if q := &lr.recs[i]; q.mismatch {
			return mismatchf("request %d: OK response differs from the scalar sfq decode", i)
		}
	}
	if lr.tally.sent == 0 {
		return fmt.Errorf("schedule offered no requests")
	}
	return nil
}

// lag is the generator's lateness distribution.
func (lr *loadResult) lag() Dist {
	return NewDist(lr.collect(func(q *reqRecord) (float64, bool) { return q.lagNs, true }))
}

// flagLag reports the generator's lateness and flags a run whose p99
// exceeds maxGenLagMs.
func (lr *loadResult) flagLag(r *Run) {
	lag := lr.lag()
	r.Logf("generator lag: %s", lag.Describe(1e-6, "ms"))
	if p99 := lag.Quantile(0.99) / 1e6; p99 > maxGenLagMs {
		r.Logf("FLAG: generator p99 lag %.3f ms exceeds %.1f ms; the offered rate was not held", p99, maxGenLagMs)
	}
}

// collect gathers one value from every record f accepts.
func (lr *loadResult) collect(f func(*reqRecord) (float64, bool)) []float64 {
	var out []float64
	for i := range lr.recs {
		if v, ok := f(&lr.recs[i]); ok {
			out = append(out, v)
		}
	}
	return out
}

// okLatencySeries is the latency of every OK response, in order of
// scheduled arrival.
func (lr *loadResult) okLatencySeries() []float64 {
	return lr.collect(func(q *reqRecord) (float64, bool) {
		return q.latNs, !q.err && q.status == serve.StatusOK
	})
}

// okLatency is the latency distribution of the OK responses.
func (lr *loadResult) okLatency() Dist { return NewDist(lr.okLatencySeries()) }

// cyclesMean is the mean simulated mesh cycles of the OK responses.
func (lr *loadResult) cyclesMean() float64 {
	return NewDist(lr.collect(func(q *reqRecord) (float64, bool) {
		return float64(q.cycles), !q.err && q.status == serve.StatusOK
	})).Mean()
}

// flipRate is the logical error rate of the corrections served OK.
func (lr *loadResult) flipRate() float64 {
	return NewDist(lr.collect(func(q *reqRecord) (float64, bool) {
		v := 0.0
		if q.flip {
			v = 1
		}
		return v, !q.err && q.status == serve.StatusOK
	})).Mean()
}

// tally classifies every sent request exactly once: an OK within the
// latency limit, a late OK, a shed, or an error (transport error or
// StatusError).
type tally struct {
	sent, ok, late, shed, errs int64
}

func (t *tally) add(status serve.Status, transportErr bool, lat time.Duration) {
	t.sent++
	switch {
	case transportErr:
		t.errs++
	case status == serve.StatusOK && lat <= latencyLimit:
		t.ok++
	case status == serve.StatusOK:
		t.late++
	case status == serve.StatusShed:
		t.shed++
	default:
		t.errs++
	}
}

// okFrac is the share of sent requests answered OK within the limit.
func (t tally) okFrac() float64 { return float64(t.ok) / float64(t.sent) }

// failFrac is the share that missed: late, shed or errored.
func (t tally) failFrac() float64 { return float64(t.late+t.shed+t.errs) / float64(t.sent) }

func (t tally) String() string {
	return fmt.Sprintf("sent %d: ok %d, late %d, shed %d, errors %d", t.sent, t.ok, t.late, t.shed, t.errs)
}
