package obs

import (
	"encoding/json"
	"io"
	"math/bits"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/knob"
)

// Manifest records the provenance of one run so sweep artifacts stay
// attributable across machines and toolchains: which binary, which
// commit, which Go version, how many cores, and which environment knobs
// were live. perfbench and cmd/compare -frontier embed a Manifest in
// what they write, and the --obs endpoint serves the active run's at
// /manifest.json.
type Manifest struct {
	Command    []string `json:"command"`
	StartTime  string   `json:"start_time"` // RFC 3339, UTC
	GoVersion  string   `json:"go_version"`
	GitSHA     string   `json:"git_sha"`
	GitDirty   bool     `json:"git_dirty,omitempty"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"num_cpu"`
	// CPUWordBits is the machine word size the binary was compiled for;
	// the SWAR kernels' auto width pick keys off it, so a perf artifact
	// records which plane layout "auto" resolved to on this host.
	CPUWordBits int `json:"cpu_word_bits"`
	// CPUFeatures lists the recognized SIMD/bit-manipulation feature
	// flags of the host CPU (from /proc/cpuinfo where available, empty
	// elsewhere) — enough to attribute kernel throughput to the silicon
	// that produced it.
	CPUFeatures []string          `json:"cpu_features,omitempty"`
	Env         map[string]string `json:"env,omitempty"`    // REPRO_* and Go runtime knobs
	Config      map[string]any    `json:"config,omitempty"` // caller-supplied (seed, flags)
}

// NewManifest captures the current process environment. config carries
// run-specific parameters (seed, sweep grid, flag values); nil is fine.
func NewManifest(config map[string]any) *Manifest {
	m := &Manifest{
		Command:     os.Args,
		StartTime:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		CPUWordBits: bits.UintSize,
		CPUFeatures: cpuFeatures(),
		Env:         map[string]string{},
		Config:      config,
	}
	m.GitSHA, m.GitDirty = gitRevision()
	// The environment knobs that change what a run measures: every
	// registered REPRO_* knob (the internal/knob registry is the single
	// source of truth) plus the Go runtime knobs. Absent variables are
	// omitted so the manifest records exactly what was set.
	for _, k := range append(knob.Names(), "GOMAXPROCS", "GOGC", "GODEBUG") {
		if v, ok := os.LookupEnv(k); ok {
			m.Env[k] = v
		}
	}
	return m
}

// gitRevision resolves the source revision: the build info's stamped
// VCS metadata when present (go build inside a repo), otherwise a
// direct `git rev-parse HEAD` of the working directory (go run, tests),
// otherwise "unknown".
func gitRevision() (sha string, dirty bool) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				sha = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if sha != "" {
			return sha, dirty
		}
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	sha = strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
		dirty = len(strings.TrimSpace(string(st))) > 0
	}
	return sha, dirty
}

// cpuFeatures reads /proc/cpuinfo (linux) and returns the intersection
// of the host's advertised flags with a small allowlist of features
// that matter to the SWAR kernels — wide vector units and the bit
// twiddles (popcnt/bmi2) the hot loops lean on. Other platforms, or a
// missing procfs, yield nil: the manifest simply omits the field
// rather than guessing.
func cpuFeatures() []string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return nil
	}
	relevant := map[string]bool{
		"sse2": true, "ssse3": true, "sse4_1": true, "sse4_2": true,
		"avx": true, "avx2": true, "avx512f": true, "avx512bw": true,
		"popcnt": true, "bmi1": true, "bmi2": true,
		"asimd": true, "sve": true, "sve2": true,
	}
	found := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		k = strings.TrimSpace(k)
		if k != "flags" && k != "Features" { // x86 and arm64 spellings
			continue
		}
		for _, f := range strings.Fields(v) {
			if relevant[f] {
				found[f] = true
			}
		}
	}
	if len(found) == 0 {
		return nil
	}
	out := make([]string, 0, len(found))
	for f := range found {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// WriteJSON renders the manifest as indented JSON.
func (m *Manifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
