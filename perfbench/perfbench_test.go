package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/lattice"
	"repro/internal/pauli"
	"repro/internal/serve"
)

func TestPoissonSchedule(t *testing.T) {
	const rate, corpusLen = 20000.0, 100
	dur := 2 * time.Second
	s := newSchedule(7, rate, dur, corpusLen)
	again := newSchedule(7, rate, dur, corpusLen)
	if !slices.Equal(s.at, again.at) || !slices.Equal(s.picks, again.picks) {
		t.Fatal("same seed gave a different schedule")
	}
	if other := newSchedule(8, rate, dur, corpusLen); slices.Equal(s.at[:100], other.at[:100]) {
		t.Fatal("different seeds gave the same arrivals")
	}
	// The arrival count is Poisson(rate·dur): within five standard
	// deviations of its mean.
	want := rate * dur.Seconds()
	if n := float64(len(s.at)); math.Abs(n-want) > 5*math.Sqrt(want) {
		t.Fatalf("%v arrivals, want %v ± %v", n, want, 5*math.Sqrt(want))
	}
	if !sort.SliceIsSorted(s.at, func(i, j int) bool { return s.at[i] < s.at[j] }) {
		t.Fatal("arrivals out of order")
	}
	if s.at[0] < 0 || s.at[len(s.at)-1] >= dur {
		t.Fatalf("arrivals span [%v, %v], want inside [0, %v)", s.at[0], s.at[len(s.at)-1], dur)
	}
	// Exponential gaps: the coefficient of variation is 1.
	var gaps []float64
	for i := 1; i < len(s.at); i++ {
		gaps = append(gaps, float64(s.at[i]-s.at[i-1]))
	}
	g := NewDist(gaps)
	sd := 0.0
	for _, x := range gaps {
		sd += (x - g.Mean()) * (x - g.Mean())
	}
	cv := math.Sqrt(sd/float64(len(gaps))) / g.Mean()
	if math.Abs(g.Mean()*rate/1e9-1) > 0.03 || math.Abs(cv-1) > 0.05 {
		t.Fatalf("gap mean %.0f ns (want %.0f), cv %.3f (want 1)", g.Mean(), 1e9/rate, cv)
	}
	for _, p := range s.picks {
		if p < 0 || p >= corpusLen {
			t.Fatalf("pick %d outside the corpus", p)
		}
	}
}

func TestDistPercentiles(t *testing.T) {
	var xs []float64
	for i := 1000; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	d := NewDist(xs)
	if d.N() != 1000 || d.Quantile(0.5) != 500 || d.Quantile(0.99) != 990 || d.Quantile(1) != 1000 {
		t.Fatalf("n=%d p50=%v p99=%v max=%v", d.N(), d.Quantile(0.5), d.Quantile(0.99), d.Quantile(1))
	}
	if d.Mean() != 500.5 {
		t.Fatalf("mean %v", d.Mean())
	}
	// 1000 samples leave exactly 10 beyond p99.
	if d.TopPct() != 99 || !d.Supports(99) {
		t.Fatalf("top p%v, supports p99 %v", d.TopPct(), d.Supports(99))
	}
	short := NewDist(xs[:999])
	if short.Supports(99) || short.TopPct() >= 99 {
		t.Fatalf("999 samples: top p%v, supports p99 %v", short.TopPct(), short.Supports(99))
	}
	if tiny := NewDist([]float64{1, 2, 3}); tiny.TopPct() != 0 || tiny.Supports(50) {
		t.Fatalf("3 samples: top p%v", tiny.TopPct())
	}
	if empty := NewDist(nil); empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Fatal("empty distribution must read 0")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median %v", m)
	}
}

func TestTallyCountsEachOutcomeOnce(t *testing.T) {
	var tl tally
	tl.add(serve.StatusOK, false, latencyLimit)       // on the limit: OK
	tl.add(serve.StatusOK, false, latencyLimit+1)     // late
	tl.add(serve.StatusShed, false, time.Millisecond) // shed, however fast
	tl.add(serve.StatusError, false, time.Millisecond)
	tl.add(serve.StatusOK, true, time.Millisecond) // transport error: error only
	tl.add(serve.StatusShed, false, time.Hour)     // a late shed is one shed
	want := tally{sent: 6, ok: 1, late: 1, shed: 2, errs: 2}
	if tl != want {
		t.Fatalf("tally %+v, want %+v", tl, want)
	}
	if tl.ok+tl.late+tl.shed+tl.errs != tl.sent {
		t.Fatal("outcomes do not partition the sent requests")
	}
	if math.Abs(tl.okFrac()+tl.failFrac()-1) > 1e-12 || tl.failFrac() != 5.0/6 {
		t.Fatalf("ok %v fail %v", tl.okFrac(), tl.failFrac())
	}
}

func TestUnattributed(t *testing.T) {
	client := NewDist([]float64{2e6, 4e6, 6e6}) // mean 4 ms
	server := NewDist([]float64{1e6, 1e6, 1.6e6})
	if got := unattributedNs(client.Mean(), server.Mean()); math.Abs(got-2.8e6) > 1e-6 {
		t.Fatalf("unattributed %v ns, want 2.8e6", got)
	}
	// A server stage sum above the client mean reads negative rather
	// than clamping, so a clock-skewed or mis-joined run is visible.
	if got := unattributedNs(1e6, 1.5e6); got != -0.5e6 {
		t.Fatalf("unattributed %v", got)
	}
}

func TestLogicalFlip(t *testing.T) {
	for _, e := range []lattice.ErrorType{lattice.ZErrors, lattice.XErrors} {
		l := lattice.MustNew(5)
		g := l.MatchingGraph(e)
		op := pauli.Z
		if e == lattice.XErrors {
			op = pauli.X
		}
		f := pauli.NewFrame(l.NumQubits())
		if logicalFlip(g, f, nil) {
			t.Fatalf("%v: no error flipped", e)
		}
		// A logical operator has an empty syndrome and flips the qubit.
		for _, q := range l.LogicalSupport(e) {
			f.Apply(q, op)
		}
		if !logicalFlip(g, f, nil) {
			t.Fatalf("%v: logical operator not detected", e)
		}
		// Correcting it exactly leaves nothing.
		if logicalFlip(g, f, l.LogicalSupport(e)) {
			t.Fatalf("%v: exact correction flagged", e)
		}
	}
}

// TestDriveNeverSkips drives a short schedule against an in-process
// server: every arrival is sent once, and every request's spans are
// ordered (lag ≤ dispatch ≤ latency).
func TestDriveNeverSkips(t *testing.T) {
	corpus, err := buildCorpus(3)
	if err != nil {
		t.Fatal(err)
	}
	corpus = corpus[:600]
	if err := referenceDecode(corpus); err != nil {
		t.Fatal(err)
	}
	env, err := startServer(false)
	if err != nil {
		t.Fatal(err)
	}
	s := newSchedule(3, 3000, 200*time.Millisecond, len(corpus))
	lr := s.drive(env.clients, corpus)
	if err := env.close(); err != nil {
		t.Fatal(err)
	}
	if lr.tally.sent != int64(len(s.at)) || lr.tally.errs != 0 {
		t.Fatalf("%s for %d scheduled", lr.tally, len(s.at))
	}
	for i, q := range lr.recs {
		if q.mismatch {
			t.Fatalf("request %d: served correction differs from the scalar decode", i)
		}
		if q.lagNs < 0 || q.dispatchNs < q.lagNs || q.latNs < q.dispatchNs || q.latNs != q.dispatchNs+q.rttNs {
			t.Fatalf("request %d: lag %v dispatch %v rtt %v latency %v", i, q.lagNs, q.dispatchNs, q.rttNs, q.latNs)
		}
	}
}

// benchmarkFile is the subset of BENCHMARK.json the tables must match.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []MetricDef `json:"end_to_end"`
	PerLayer []MetricDef `json:"per_layer"`
}

func TestMetricTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(bf.EndToEnd, e2eMetrics) {
		t.Errorf("end_to_end %v\nwant %v", bf.EndToEnd, e2eMetrics)
	}
	if !slices.Equal(bf.PerLayer, layerMetrics) {
		t.Errorf("per_layer %v\nwant %v", bf.PerLayer, layerMetrics)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("workloads %v, want %v", names, workloadNames())
	}
}

func TestQuietestWindow(t *testing.T) {
	// Sixteen windows of 1000 samples, 1..1000 each, shifted up by the
	// window index; window 3 carries a burst of 200 stalls, more than
	// the whole series' top 1%.
	var series []float64
	for w := 0; w < latWindows; w++ {
		for i := 1; i <= 1000; i++ {
			v := float64(i + w)
			if w == 3 && i > 800 {
				v = 1e6
			}
			series = append(series, v)
		}
	}
	got, err := quietestWindow(series, 0.5, 0.9, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, []float64{500, 900, 990}) {
		t.Fatalf("quietest-window p50/p90/p99 %v, want [500 900 990]", got)
	}
	if whole := NewDist(slices.Clone(series)); whole.Quantile(0.99) != 1e6 {
		t.Fatalf("whole-series p99 %v, want the stall", whole.Quantile(0.99))
	}
	if _, err := quietestWindow(series[:latWindows*999], 0.99); err == nil {
		t.Fatal("windows without a supported p99 must be refused")
	}
	if _, err := quietestWindow(series[:latWindows*999], 0.9); err != nil {
		t.Fatalf("999-sample windows support p90: %v", err)
	}
}
