package suite

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
)

// blockHeader matches the first line of one experiment's block in cmd/repro's
// standard output; the capture is the experiment id.
var blockHeader = regexp.MustCompile(`(?m)^──── (E[0-9]+)[ :/]`)

// footer is the one line of cmd/repro's output that reads the host clock.
var footer = regexp.MustCompile(`(?m)^\nall experiments complete in [^\n]*\n\z`)

// splitBlocks cuts repro output into its per-experiment blocks, keyed by id,
// and returns the ids in order of appearance.
func splitBlocks(out []byte) (ids []string, blocks map[string][]byte) {
	blocks = make(map[string][]byte)
	locs := blockHeader.FindAllSubmatchIndex(out, -1)
	for i, loc := range locs {
		end := len(out)
		if i+1 < len(locs) {
			end = locs[i+1][0]
		}
		id := string(out[loc[2]:loc[3]])
		ids = append(ids, id)
		blocks[id] = out[loc[0]:end]
	}
	return ids, blocks
}

// binary names a program run.sh built into benchmark/out/bin.
func Binary(root, name string) (string, error) {
	path := filepath.Join(root, "benchmark", "out", "bin", name)
	if _, err := os.Stat(path); err != nil {
		return "", fmt.Errorf("%s is not built (run through benchmark/run.sh): %w", name, err)
	}
	return path, nil
}

// setupReproSweep builds the batch-side Workload: one cold `repro` process
// over E1–E20 on nproc workers, so the solve cache starts empty and the
// parallel fan-out and the striped cache run under real concurrency. The
// committed repro_output.txt names the blocks every seed must print, and at
// seed 42 it is the byte-exact oracle.
//
// Set-up runs `repro -frontier -` as its warm step: it pages the binary in
// and is an oracle of its own (FRONTIER_advantage.csv at seed 42). cmd/repro
// has no size flag, so under -short the frontier grid stands in for the
// sweep.
func setupReproSweep(e Env) (*Instance, error) {
	repro, err := Binary(e.Root, "repro")
	if err != nil {
		return nil, err
	}
	golden, err := os.ReadFile(filepath.Join(e.Root, "repro_output.txt"))
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	golden = footer.ReplaceAll(golden, nil)
	wantIDs, wantBlocks := splitBlocks(golden)
	if len(wantIDs) == 0 {
		return nil, fmt.Errorf("oracle: repro_output.txt names no experiment block")
	}
	seed := strconv.FormatUint(e.Seed, 10)
	workers := strconv.Itoa(runtime.NumCPU())

	frontier := func() (Sim, error) {
		out, err := exec.Command(repro, "-seed", seed, "-workers", workers, "-frontier", "-").Output()
		if err != nil {
			return Sim{}, fmt.Errorf("repro -frontier: %w", err)
		}
		if e.Seed == GoldenSeed {
			want, err := os.ReadFile(filepath.Join(e.Root, "FRONTIER_advantage.csv"))
			if err != nil {
				return Sim{}, fmt.Errorf("oracle: %w", err)
			}
			if !bytes.Equal(out, want) {
				return Sim{}, fmt.Errorf("oracle: repro -frontier differs from FRONTIER_advantage.csv")
			}
		}
		rows := int64(bytes.Count(out, []byte("\n"))) - 1 // minus the CSV header
		if rows < 1 {
			return Sim{}, fmt.Errorf("oracle: repro -frontier printed no grid point")
		}
		return Sim{Attempted: rows, Decisions: rows, Digest: digest(out)}, nil
	}
	warm, err := frontier()
	if err != nil {
		return nil, err
	}
	if e.Scale < 1 {
		return &Instance{Rep: frontier, Warm: warm, Inputs: "frontier grid (-short)"}, nil
	}

	sweep := func() (Sim, error) {
		out, err := exec.Command(repro, "-seed", seed, "-workers", workers).Output()
		if err != nil {
			return Sim{}, fmt.Errorf("repro: %w", err)
		}
		if !footer.Match(out) {
			return Sim{}, fmt.Errorf("oracle: repro did not end with its completion line")
		}
		out = footer.ReplaceAll(out, nil)
		_, blocks := splitBlocks(out)
		s := Sim{Attempted: int64(len(wantIDs)), Digest: digest(out)}
		for _, id := range wantIDs {
			got, ok := blocks[id]
			if !ok || (e.Seed == GoldenSeed && !bytes.Equal(got, wantBlocks[id])) {
				fmt.Fprintf(os.Stderr, "oracle: repro_sweep: block %s is missing or differs from repro_output.txt\n", id)
				s.Failed++
			}
		}
		s.Decisions = s.Attempted - s.Failed
		return s, nil
	}
	// No warm sweep: a cold process is the Workload, and one costs as much
	// as a timed repetition. At seed 42 the expected digest is the golden
	// file's; at other seeds the first repetition sets it for the rest.
	expect := Sim{}
	if e.Seed == GoldenSeed {
		expect = Sim{Attempted: int64(len(wantIDs)), Decisions: int64(len(wantIDs)), Digest: digest(golden)}
	}
	return &Instance{Rep: sweep, Warm: expect, Inputs: fmt.Sprintf("%d experiment blocks on %s workers", len(wantIDs), workers)}, nil
}

// digest renders an FNV-64a of b.
func digest(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("fnv64a:%016x len:%d", h.Sum64(), len(b))
}
