package experiments

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// TestCommittedArtifactsMatch regenerates both committed artifacts at the
// default seed and scale, on a one- and an eight-wide pool, and requires
// each to equal the file in the tree byte for byte.
func TestCommittedArtifactsMatch(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates both committed artifacts twice")
	}
	t.Parallel()
	artifacts := []struct {
		file  string
		write func(io.Writer, Options) error
	}{
		{"BENCH_loadtest.json", WriteServingJSON},
		{"FRONTIER_advantage.csv", WriteFrontierCSV},
	}
	for _, a := range artifacts {
		want, err := os.ReadFile("../../" + a.file)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 8} {
			var got bytes.Buffer
			if err := a.write(&got, Options{Seed: 42, Scale: 1, Workers: workers}); err != nil {
				t.Fatalf("%s at %d workers: %v", a.file, workers, err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s at %d workers differs from the committed file (%d bytes, want %d)",
					a.file, workers, got.Len(), len(want))
			}
		}
	}
}
