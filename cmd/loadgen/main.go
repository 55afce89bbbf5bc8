// Command loadgen drives a running serve instance with open-loop
// Poisson traffic and prints one latency/shedding summary line per
// offered rate. It is a load driver, not a benchmark: perfbench's
// serve-r4k workload is where service latency is measured and judged.
//
// The run has two phases. Calibration floods the server closed-loop
// (a fixed population of back-to-back requesters) to estimate its
// decode capacity R; the measurement then replays open-loop Poisson
// arrivals at offered rates R/2, R and 2R — straddling saturation on
// whatever machine this runs on — unless -rates pins explicit values.
// Latency is measured from each request's *scheduled* arrival time, so
// a stalled sender cannot hide queueing delay (no coordinated
// omission), and only StatusOK responses enter the histogram — shed
// responses return fast and would flatter the tail.
//
// loadgen exits 1 if any rate gets no OK response, or if any request
// fails in transport or comes back with an error status. Shed responses
// are the service's designed overload behavior and do not fail the run.
//
// Usage:
//
//	loadgen -addr 127.0.0.1:9000 [-d 9] [-etype z] [-conns 4]
//	        [-duration 2s] [-rates 1000,5000,10000] [-max-rate 50000]
//	        [-density 0.08] [-seed 1]
package main

import (
	"flag"
	"log"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/knob"
	"repro/internal/lattice"
	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/serve"
)

// result summarizes one offered-load point.
type result struct {
	achieved               float64 // OK responses per wall second
	sent, ok, shed, errors int64
	escalated              int64 // OK responses flagged for level-2 re-decode
	lat                    obs.Summary
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	if err := knob.CheckEnv(); err != nil {
		log.Fatal(err)
	}

	addr := flag.String("addr", "", "serve framed-TCP address (required)")
	d := flag.Int("d", 9, "code distance to request")
	etype := flag.String("etype", "z", "error type: z or x")
	conns := flag.Int("conns", 4, "client connections")
	duration := flag.Duration("duration", 2*time.Second, "measurement time per offered rate")
	ratesFlag := flag.String("rates", "", "explicit offered rates (req/s), else R/2,R,2R from calibration")
	maxRate := flag.Float64("max-rate", 50000, "cap on the calibrated rate (bounds goroutine fan-out)")
	density := flag.Float64("density", 0.08, "per-check hot probability of generated syndromes")
	seed := flag.Int64("seed", 1, "root seed of the syndrome and arrival streams")
	flag.Parse()
	if *addr == "" {
		log.Fatal("-addr is required")
	}
	var e lattice.ErrorType
	switch *etype {
	case "z":
		e = lattice.ZErrors
	case "x":
		e = lattice.XErrors
	default:
		log.Fatalf("etype %q is not z or x", *etype)
	}

	// A fixed deterministic syndrome working set: the run measures the
	// service, not syndrome generation.
	nchecks := lattice.MustNew(*d).MatchingGraph(e).NumChecks()
	const nsyns = 256
	syns := make([][]bool, nsyns)
	synID := mc.DeriveID(uint64(*d), uint64(e), 0x10ad)
	for i := range syns {
		rng := mc.NewRand(*seed, synID, int64(i))
		syn := make([]bool, nchecks)
		for j := range syn {
			syn[j] = rng.Float64() < *density
		}
		syns[i] = syn
	}

	clients := make([]*serve.Client, *conns)
	for i := range clients {
		c, err := serve.Dial(*addr)
		if err != nil {
			log.Fatalf("dial %s: %v", *addr, err)
		}
		clients[i] = c
		defer c.Close()
	}

	var rates []float64
	if *ratesFlag != "" {
		for _, f := range strings.Split(*ratesFlag, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil || r <= 0 {
				log.Fatalf("bad rate %q", f)
			}
			rates = append(rates, r)
		}
	} else {
		calibrated := calibrate(clients, *d, e, syns, *maxRate)
		log.Printf("calibrated capacity ~%.0f req/s", calibrated)
		rates = []float64{calibrated / 2, calibrated, 2 * calibrated}
	}

	failed := false
	for i, rps := range rates {
		r := runRate(clients, *d, e, syns, rps, *duration, *seed, int64(i))
		shedRate, escRate := 0.0, 0.0
		if r.sent > 0 {
			shedRate = float64(r.shed) / float64(r.sent)
		}
		if r.ok > 0 {
			escRate = float64(r.escalated) / float64(r.ok)
		}
		log.Printf("offered %.0f/s: achieved %.0f/s ok, shed %.1f%%, escalated %.1f%%, errors %d, p50 %s p99 %s",
			rps, r.achieved, 100*shedRate, 100*escRate, r.errors,
			time.Duration(r.lat.P50), time.Duration(r.lat.P99))
		if r.ok == 0 || r.errors > 0 {
			log.Printf("offered %.0f/s: FAIL (%d OK, %d errors of %d sent)", rps, r.ok, r.errors, r.sent)
			failed = true
		}
	}
	if failed {
		log.Fatal("load run failed")
	}
}

// calibrate estimates the server's decode capacity: a closed loop of
// back-to-back requesters (16 per connection) for half a second, OK
// responses per wall second, capped at maxRate.
func calibrate(clients []*serve.Client, d int, e lattice.ErrorType, syns [][]bool, maxRate float64) float64 {
	const per = 16
	var ok atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	start := time.Now()
	for ci, c := range clients {
		for w := 0; w < per; w++ {
			wg.Add(1)
			go func(c *serve.Client, off int) {
				defer wg.Done()
				for i := off; ; i += per {
					select {
					case <-stop:
						return
					default:
					}
					resp, err := c.Do(&serve.Request{D: d, EType: e, Syndrome: syns[i%len(syns)]})
					if err != nil {
						return
					}
					if resp.Status == serve.StatusOK {
						ok.Add(1)
					}
				}
			}(c, ci*per+w)
		}
	}
	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()
	r := float64(ok.Load()) / time.Since(start).Seconds()
	if r < 1 {
		r = 1
	}
	if r > maxRate {
		r = maxRate
	}
	return r
}

// runRate replays one open-loop Poisson arrival process at the offered
// rate and summarizes what came back.
func runRate(clients []*serve.Client, d int, e lattice.ErrorType, syns [][]bool,
	rps float64, dur time.Duration, seed, point int64) result {
	rng := mc.NewRand(seed, mc.DeriveID(0xa881, uint64(point)), 0)
	hist := obs.NewHistogram()
	var ok, shed, errs, escalated atomic.Int64
	var wg sync.WaitGroup

	start := time.Now()
	deadline := start.Add(dur)
	next := start
	sent := int64(0)
	for {
		next = next.Add(time.Duration(rng.ExpFloat64() / rps * float64(time.Second)))
		if next.After(deadline) {
			break
		}
		// Pace against the schedule, but never skip a late arrival: a
		// sender running behind dispatches immediately and the latency
		// clock still starts at the scheduled instant.
		if until := time.Until(next); until > 0 {
			time.Sleep(until)
		}
		c := clients[int(sent)%len(clients)]
		syn := syns[int(sent)%len(syns)]
		arrival := next
		sent++
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := c.Do(&serve.Request{D: d, EType: e, Syndrome: syn})
			if err != nil {
				errs.Add(1)
				return
			}
			switch resp.Status {
			case serve.StatusOK:
				hist.Observe(uint64(time.Since(arrival)))
				ok.Add(1)
				if resp.Escalated {
					escalated.Add(1)
				}
			case serve.StatusShed:
				shed.Add(1)
			default:
				errs.Add(1)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	return result{
		achieved:  float64(ok.Load()) / elapsed,
		sent:      sent,
		ok:        ok.Load(),
		shed:      shed.Load(),
		errors:    errs.Load(),
		escalated: escalated.Load(),
		lat:       hist.Snapshot().Summary(),
	}
}
