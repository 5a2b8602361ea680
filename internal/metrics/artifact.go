package metrics

import (
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// ExperimentMetrics is one experiment's share of a run artifact.
type ExperimentMetrics struct {
	ID     string  `json:"id"`
	WallMS float64 `json:"wall_ms"`
}

// Artifact is the machine-readable record of one instrumented run: enough
// provenance (tool, seed, config, git describe, Go version) to reproduce
// it, plus the per-experiment wall times and the registry snapshot. It is
// the regression-tracking unit future BENCH comparisons diff against.
type Artifact struct {
	Tool        string              `json:"tool"`
	GitDescribe string              `json:"git_describe"`
	GoVersion   string              `json:"go_version"`
	GOMAXPROCS  int                 `json:"gomaxprocs"`
	Timestamp   string              `json:"timestamp"`
	Seed        uint64              `json:"seed"`
	Config      map[string]any      `json:"config,omitempty"`
	WallMS      float64             `json:"wall_ms"`
	Experiments []ExperimentMetrics `json:"experiments,omitempty"`
	Metrics     []KV                `json:"metrics"`
}

// NewArtifact stamps tool/provenance fields; the caller fills the run
// fields (Seed, Config, WallMS, Experiments) and sets
// Metrics = Default().Snapshot() after the work completes — for a batch run
// that is the solve cache's counters, for a daemon the serving stack's.
func NewArtifact(tool string) *Artifact {
	return &Artifact{
		Tool:        tool,
		GitDescribe: GitDescribe(),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
	}
}

// Write renders the artifact as indented JSON.
func (a *Artifact) Write(w io.Writer) error {
	enc, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	_, err = w.Write(enc)
	return err
}

// WriteFile writes the artifact to path ("-" for stdout).
func (a *Artifact) WriteFile(path string) error {
	if path == "-" {
		return a.Write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := a.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// GitDescribe returns `git describe --always --dirty` for the working tree,
// or "unknown" outside a repository (or without git on PATH). Run artifacts
// carry it so a stored JSON can always be tied back to a commit.
func GitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
