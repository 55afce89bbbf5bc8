// Command bench measures the decode hot path outside the testing
// framework and writes the results as JSON, so benchmark regressions are
// tracked as repository artifacts. For every matching decoder and
// d ∈ {5, 9, 13} it times the pooled zero-allocation DecodeInto path —
// each decoder's one implementation — on identical seeded syndromes
// (BENCH_pr2.json), then times the SFQ mesh's scalar bit-plane kernel
// on the same syndromes (BENCH_pr3.json), reporting ns/decode, mesh
// cycles/decode, and allocation counts from runtime.MemStats deltas.
// Finally it races the scalar bit-plane kernel against the SWAR batch
// kernel at d ∈ {5, 7, 9, 13} (BENCH_pr5.json), cross-checking batch
// corrections and cycle counts against the scalar kernel before timing.
//
// Each artifact embeds the run manifest (git SHA + dirty flag, Go
// version, GOMAXPROCS, CPU count, kernel env knobs) so a number in the
// perf trajectory is attributable to the machine and tree that produced
// it.
//
// Usage:
//
//	bench [-iters 2000] [-out BENCH_pr2.json] [-mesh-out BENCH_pr3.json] [-batch-out BENCH_pr5.json] [-obs :9090]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"repro/internal/decodepool"
	"repro/internal/decoder/greedy"
	"repro/internal/decoder/mwpm"
	"repro/internal/decoder/unionfind"
	"repro/internal/knob"
	"repro/internal/lattice"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/pauli"
	"repro/internal/sfq"
)

// Artifact is the on-disk schema of BENCH_pr2.json: the measurement
// rows plus the manifest of the run that produced them.
type Artifact struct {
	Manifest *obs.Manifest `json:"manifest"`
	Rows     []Row         `json:"rows"`
}

// MeshArtifact is the on-disk schema of BENCH_pr3.json.
type MeshArtifact struct {
	Manifest *obs.Manifest `json:"manifest"`
	Rows     []MeshRow     `json:"rows"`
}

// BatchArtifact is the on-disk schema of BENCH_pr5.json.
type BatchArtifact struct {
	Manifest *obs.Manifest `json:"manifest"`
	Rows     []BatchRow    `json:"rows"`
}

// Row is one benchmark measurement.
type Row struct {
	Decoder         string  `json:"decoder"`
	Distance        int     `json:"d"`
	Path            string  `json:"path"` // "pooled"; history also has "legacy"
	Iters           int     `json:"iters"`
	NsPerDecode     float64 `json:"ns_per_decode"`
	AllocsPerDecode float64 `json:"allocs_per_decode"`
	BytesPerDecode  float64 `json:"bytes_per_decode"`
}

// MeshRow is one mesh-kernel measurement. CyclesPerDecode is the mean
// simulated mesh cycle count over the syndrome set.
type MeshRow struct {
	Kernel          string  `json:"kernel"` // "bitplane"
	Distance        int     `json:"d"`
	Variant         string  `json:"variant"`
	Iters           int     `json:"iters"`
	NsPerDecode     float64 `json:"ns_per_decode"`
	CyclesPerDecode float64 `json:"cycles_per_decode"`
	AllocsPerDecode float64 `json:"allocs_per_decode"`
	BytesPerDecode  float64 `json:"bytes_per_decode"`
}

// BatchRow is one scalar-vs-batch measurement: the same syndrome set
// decoded one at a time through the scalar bit-plane kernel and
// Lanes()-wide through the SWAR batch kernel. Both ns figures are
// per decode (the batch loop is normalized by lanes), so Speedup is the
// per-decode throughput ratio. CyclesPerDecode comes from the batch
// kernel and is cross-checked against the scalar kernel before timing.
type BatchRow struct {
	Distance             int     `json:"d"`
	Lanes                int     `json:"lanes"`
	Variant              string  `json:"variant"`
	Iters                int     `json:"iters"`
	ScalarNsPerDecode    float64 `json:"scalar_ns_per_decode"`
	BatchNsPerDecode     float64 `json:"batch_ns_per_decode"`
	Speedup              float64 `json:"speedup"`
	ScalarDecodesPerSec  float64 `json:"scalar_decodes_per_sec"`
	BatchDecodesPerSec   float64 `json:"batch_decodes_per_sec"`
	CyclesPerDecode      float64 `json:"cycles_per_decode"`
	BatchAllocsPerDecode float64 `json:"batch_allocs_per_decode"`
}

func main() {
	if err := knob.CheckEnv(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	iters := flag.Int("iters", 2000, "timed decodes per (decoder, d, path) cell")
	out := flag.String("out", "BENCH_pr2.json", "output JSON path (software decoders)")
	meshOut := flag.String("mesh-out", "BENCH_pr3.json", "output JSON path (mesh kernels)")
	batchOut := flag.String("batch-out", "BENCH_pr5.json", "output JSON path (scalar vs SWAR batch kernel)")
	wideOut := flag.String("wide-out", "BENCH_pr8.json", "output JSON path (W-word kernel widths + multi-core scaling)")
	scaleCycles := flag.Int("scale-cycles", 4000, "Monte-Carlo cycles per point in the scaling sweep")
	allowDirty := flag.Bool("allow-dirty", false, "permit benchmarking an uncommitted tree (artifact still records git_dirty)")
	obsAddr := flag.String("obs", "", "serve /metrics and /debug/pprof on this address while benchmarking (e.g. :9090)")
	flag.Parse()

	manifest := obs.NewManifest(map[string]any{
		"iters":           *iters,
		"scale_cycles":    *scaleCycles,
		"sfq_batch_words": sfq.BatchWords,
	})
	if manifest.GitDirty && !*allowDirty {
		fmt.Fprintf(os.Stderr,
			"bench: working tree is dirty (uncommitted changes at %s) — a perf artifact from an "+
				"unreproducible tree is worthless; commit first or rerun with -allow-dirty\n",
			manifest.GitSHA)
		os.Exit(1)
	}
	if *obsAddr != "" {
		srv, err := obs.ServeDefault(*obsAddr, map[string]any{"iters": *iters})
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "obs: telemetry on http://%s/metrics\n", srv.Addr)
	}

	var rows []Row
	for _, d := range []int{5, 9, 13} {
		l := lattice.MustNew(d)
		g := l.MatchingGraph(lattice.ZErrors)
		syndromes, err := sampleSyndromes(l, g, 64, int64(100+d))
		if err != nil {
			log.Fatal(err)
		}
		for _, dec := range []decodepool.IntoDecoder{greedy.New(), mwpm.New(), unionfind.New()} {
			s := decodepool.NewScratch()
			pooled, err := measure(*iters, syndromes, func(syn []bool) error {
				_, err := dec.DecodeInto(g, syn, s)
				return err
			})
			if err != nil {
				log.Fatalf("%s d=%d pooled: %v", dec.Name(), d, err)
			}
			pooled.Decoder, pooled.Distance, pooled.Path = dec.Name(), d, "pooled"
			rows = append(rows, pooled)

			fmt.Printf("%-11s d=%-3d pooled %9.0f ns/decode %7.1f allocs\n",
				dec.Name(), d, pooled.NsPerDecode, pooled.AllocsPerDecode)
		}
	}

	if err := writeArtifact(*out, Artifact{Manifest: manifest, Rows: rows}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d rows)\n\n", *out, len(rows))

	meshRows, err := benchMeshKernel(*iters)
	if err != nil {
		log.Fatal(err)
	}
	if err := writeArtifact(*meshOut, MeshArtifact{Manifest: manifest, Rows: meshRows}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d rows)\n\n", *meshOut, len(meshRows))

	batchRows, err := benchBatchKernel(*iters)
	if err != nil {
		log.Fatal(err)
	}
	if err := writeArtifact(*batchOut, BatchArtifact{Manifest: manifest, Rows: batchRows}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d rows)\n\n", *batchOut, len(batchRows))

	wideRows, err := benchWideKernel(*iters)
	if err != nil {
		log.Fatal(err)
	}
	scaleRows, err := benchScaling(*scaleCycles)
	if err != nil {
		log.Fatal(err)
	}
	wide := WideArtifact{Manifest: manifest, KernelRows: wideRows, ScalingRows: scaleRows}
	if err := writeArtifact(*wideOut, wide); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d kernel rows, %d scaling rows)\n", *wideOut, len(wideRows), len(scaleRows))
}

// writeArtifact marshals one artifact with a trailing newline.
func writeArtifact(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// benchMeshKernel times the SFQ mesh's scalar bit-plane kernel on
// seeded syndromes through the zero-allocation DecodeInto path. Kernel
// agreement on corrections and full Stats is the conformance suites'
// job (internal/sfq diffs the kernel against the legacy oracle there).
func benchMeshKernel(iters int) ([]MeshRow, error) {
	var rows []MeshRow
	for _, d := range []int{5, 9, 13} {
		l := lattice.MustNew(d)
		g := l.MatchingGraph(lattice.ZErrors)
		syndromes, err := sampleSyndromes(l, g, 64, int64(100+d))
		if err != nil {
			return nil, err
		}
		mesh := sfq.New(g, sfq.Final)
		s := decodepool.NewScratch()
		// Cycle counts are deterministic per syndrome: one clean pass
		// gives the exact mean, independent of the timing loop.
		cycles := 0
		for _, syn := range syndromes {
			if _, err := mesh.DecodeInto(g, syn, s); err != nil {
				return nil, fmt.Errorf("mesh d=%d: %w", d, err)
			}
			cycles += mesh.Stats().Cycles
		}
		row, err := measure(iters, syndromes, func(syn []bool) error {
			_, err := mesh.DecodeInto(g, syn, s)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("mesh d=%d: %w", d, err)
		}
		rows = append(rows, MeshRow{
			Kernel:          sfq.KernelBitplane.String(),
			Distance:        d,
			Variant:         sfq.Final.Name(),
			Iters:           row.Iters,
			NsPerDecode:     row.NsPerDecode,
			CyclesPerDecode: float64(cycles) / float64(len(syndromes)),
			AllocsPerDecode: row.AllocsPerDecode,
			BytesPerDecode:  row.BytesPerDecode,
		})
		fmt.Printf("sfq mesh    d=%-3d bitplane %9.0f ns/decode  (%.2f cycles/decode, %.1f allocs)\n",
			d, row.NsPerDecode, float64(cycles)/float64(len(syndromes)), row.AllocsPerDecode)
	}
	return rows, nil
}

// benchBatchKernel races the scalar bit-plane kernel against the SWAR
// batch kernel on identical seeded syndromes. Before timing it decodes
// every batch window through both kernels and requires bit-identical
// corrections and cycle counts, so the artifact doubles as a
// conformance record.
func benchBatchKernel(iters int) ([]BatchRow, error) {
	var rows []BatchRow
	for _, d := range []int{5, 7, 9, 13} {
		l := lattice.MustNew(d)
		g := l.MatchingGraph(lattice.ZErrors)
		syndromes, err := sampleSyndromes(l, g, 64, int64(100+d))
		if err != nil {
			return nil, err
		}
		mesh := sfq.New(g, sfq.Final)
		batch := sfq.NewBatch(g, sfq.Final)
		lanes := batch.Lanes()
		// Rotating lane windows over the syndrome set, as in
		// BenchmarkSFQMesh/batch.
		wins := make([][][]bool, len(syndromes))
		for i := range wins {
			win := make([][]bool, lanes)
			for j := range win {
				win[j] = syndromes[(i+j)%len(syndromes)]
			}
			wins[i] = win
		}
		ss, sb := decodepool.NewScratch(), decodepool.NewScratch()
		for wi, win := range wins {
			corrs, err := batch.DecodeBatchInto(g, win, sb)
			if err != nil {
				return nil, fmt.Errorf("batch d=%d window %d: %w", d, wi, err)
			}
			for j, syn := range win {
				want, err := mesh.DecodeInto(g, syn, ss)
				if err != nil {
					return nil, fmt.Errorf("scalar d=%d window %d: %w", d, wi, err)
				}
				if fmt.Sprint(want.Qubits) != fmt.Sprint(corrs[j].Qubits) {
					return nil, fmt.Errorf("d=%d window %d lane %d: corrections diverge: scalar %v, batch %v",
						d, wi, j, want.Qubits, corrs[j].Qubits)
				}
				if got := batch.LaneStats(j).Cycles; got != mesh.Stats().Cycles {
					return nil, fmt.Errorf("d=%d window %d lane %d: cycles diverge: scalar %d, batch %d",
						d, wi, j, mesh.Stats().Cycles, got)
				}
			}
		}
		cycles := 0
		for _, syn := range syndromes {
			if _, err := mesh.DecodeInto(g, syn, ss); err != nil {
				return nil, err
			}
			cycles += mesh.Stats().Cycles
		}
		scalar, err := measure(iters, syndromes, func(syn []bool) error {
			_, err := mesh.DecodeInto(g, syn, ss)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("scalar d=%d: %w", d, err)
		}
		// Time the batch kernel over enough windows to complete at least
		// iters individual decodes, then normalize by lanes.
		calls := (iters + lanes - 1) / lanes
		bat, err := measureWindows(calls, wins, func(win [][]bool) error {
			_, err := batch.DecodeBatchInto(g, win, sb)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("batch d=%d: %w", d, err)
		}
		batNs := bat.NsPerDecode / float64(lanes)
		row := BatchRow{
			Distance:             d,
			Lanes:                lanes,
			Variant:              sfq.Final.Name(),
			Iters:                calls * lanes,
			ScalarNsPerDecode:    scalar.NsPerDecode,
			BatchNsPerDecode:     batNs,
			Speedup:              scalar.NsPerDecode / batNs,
			ScalarDecodesPerSec:  1e9 / scalar.NsPerDecode,
			BatchDecodesPerSec:   1e9 / batNs,
			CyclesPerDecode:      float64(cycles) / float64(len(syndromes)),
			BatchAllocsPerDecode: bat.AllocsPerDecode / float64(lanes),
		}
		rows = append(rows, row)
		fmt.Printf("sfq batch   d=%-3d scalar %9.0f ns/decode | batch %9.0f ns/decode (%d lanes) | %.2fx  (%.0f vs %.0f decodes/sec)\n",
			d, row.ScalarNsPerDecode, row.BatchNsPerDecode, lanes, row.Speedup,
			row.ScalarDecodesPerSec, row.BatchDecodesPerSec)
	}
	return rows, nil
}

// measureWindows is measure for batch windows: iters calls over the
// window set after a warm-up pass; per-call metrics (callers normalize
// by lane count).
func measureWindows(iters int, wins [][][]bool, decode func(win [][]bool) error) (Row, error) {
	for _, win := range wins {
		if err := decode(win); err != nil {
			return Row{}, err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := decode(wins[i%len(wins)]); err != nil {
			return Row{}, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	return Row{
		Iters:           iters,
		NsPerDecode:     float64(elapsed.Nanoseconds()) / float64(iters),
		AllocsPerDecode: float64(ms1.Mallocs-ms0.Mallocs) / float64(iters),
		BytesPerDecode:  float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(iters),
	}, nil
}

// sampleSyndromes draws the benchmark's fixed syndrome set (dephasing at
// p = 5%, same seeds as BenchmarkDecodeHotPath).
func sampleSyndromes(l *lattice.Lattice, g *lattice.Graph, count int, seed int64) ([][]bool, error) {
	rng := noise.NewRand(seed)
	ch, err := noise.NewDephasing(0.05)
	if err != nil {
		return nil, err
	}
	var targets []int
	for _, s := range l.DataSites() {
		targets = append(targets, l.QubitIndex(s))
	}
	syndromes := make([][]bool, count)
	for i := range syndromes {
		f := pauli.NewFrame(l.NumQubits())
		ch.Sample(rng, f, targets)
		syndromes[i] = g.Syndrome(f)
	}
	return syndromes, nil
}

// measure times iters decodes over the syndrome set after a full
// warm-up pass, and reads allocation counts from MemStats deltas.
func measure(iters int, syndromes [][]bool, decode func(syn []bool) error) (Row, error) {
	for _, syn := range syndromes {
		if err := decode(syn); err != nil {
			return Row{}, err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := decode(syndromes[i%len(syndromes)]); err != nil {
			return Row{}, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	return Row{
		Iters:           iters,
		NsPerDecode:     float64(elapsed.Nanoseconds()) / float64(iters),
		AllocsPerDecode: float64(ms1.Mallocs-ms0.Mallocs) / float64(iters),
		BytesPerDecode:  float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(iters),
	}, nil
}
