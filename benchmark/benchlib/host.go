package benchlib

import (
	"bufio"
	"os"
	"runtime"
	"strings"
	"time"
)

// Host is the machine fingerprint recorded beside every result: host-clock
// numbers mean nothing without the box they were taken on.
type Host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
}

// Fingerprint reads the host fingerprint; the CPU model is "unknown" where
// /proc/cpuinfo does not exist or does not name one.
func Fingerprint() Host {
	h := Host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   "unknown",
	}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			h.CPUModel = strings.TrimSpace(v)
			break
		}
	}
	return h
}

// canarySink keeps the canary loop's result live so the compiler cannot
// remove the loop.
var canarySink uint64

// Canary times a fixed 2^27-step xorshift loop: pure register arithmetic, so
// its duration moves only with the clock rate and with whatever else the box
// is running. A run whose before and after canaries differ by more than
// CanaryTolerance was measured on a box that changed under it.
func Canary() time.Duration {
	x := uint64(88172645463325252)
	start := time.Now()
	for i := 0; i < 1<<27; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	d := time.Since(start)
	canarySink = x
	return d
}

// CanaryTolerance is the relative canary drift above which a run is flagged
// noisy.
const CanaryTolerance = 0.10

// Noisy reports whether two canary readings differ by more than
// CanaryTolerance of the smaller.
func Noisy(before, after time.Duration) bool {
	lo, hi := before, after
	if lo > hi {
		lo, hi = hi, lo
	}
	return float64(hi-lo) > CanaryTolerance*float64(lo)
}
