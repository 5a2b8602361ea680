package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// block is a tiny experiment that prints one line after running body.
func block(id string, body func()) Experiment {
	return Experiment{ID: id, Title: id + ": test block", Run: func(w io.Writer, o Options) {
		body()
		fmt.Fprintf(w, "%s output for seed %d\n", id, o.Seed)
	}}
}

// blockText is what RunAll streams for a block built by block.
func blockText(id string) string {
	return "\n──── " + id + ": test block ────\n" + id + " output for seed 9\n"
}

// runBounded runs RunAll on its own goroutine and fails the test if it has
// not returned within a generous deadline: a streamer waiting on a slot that
// is never filled shows up here as a failure instead of a hung suite.
func runBounded(t *testing.T, ctx context.Context, exps []Experiment, workers int) (string, error) {
	t.Helper()
	type result struct {
		out string
		err error
	}
	done := make(chan result, 1)
	go func() {
		var out bytes.Buffer
		_, err := RunAll(ctx, &out, exps, Options{Seed: 9, Scale: 1}, workers)
		done <- result{out.String(), err}
	}()
	select {
	case r := <-done:
		return r.out, r.err
	case <-time.After(30 * time.Second):
		t.Fatalf("workers=%d: RunAll did not return", workers)
		return "", nil
	}
}

// waitGoroutines waits for the goroutine count to fall back to base; RunAll
// must not return while a worker or the fan-out goroutine is still alive.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running, want %d", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// panicList is five blocks, the third of which panics; ran counts the
// blocks whose body started.
func panicList(ran *atomic.Int64) []Experiment {
	count := func() { ran.Add(1) }
	return []Experiment{
		block("T1", count), block("T2", count),
		block("T3", func() { count(); panic("injected fault") }),
		block("T4", count), block("T5", count),
	}
}

// TestPanickingExperimentIsIsolated is the panic-containment regression
// test. Before the fan-out recovered panics, a panicking experiment took the
// process down, and with the ordered streamer waiting on its slot it
// deadlocked. Now the panic comes back as an error naming the experiment,
// with the panic value and stack; its predecessors are streamed and nothing
// after it is, and RunAll returns with every goroutine it started gone.
func TestPanickingExperimentIsIsolated(t *testing.T) {
	for _, workers := range []int{1, 4} {
		base := runtime.NumGoroutine()
		var ran atomic.Int64
		out, err := runBounded(t, context.Background(), panicList(&ran), workers)
		if err == nil {
			t.Fatalf("workers=%d: a panicking experiment returned no error", workers)
		}
		for _, want := range []string{"T3", "injected fault", "goroutine ", "panicList"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("workers=%d: error lacks %q:\n%v", workers, want, err)
			}
		}
		if want := blockText("T1") + blockText("T2"); out != want {
			t.Fatalf("workers=%d: streamed\n%q\nwant the two predecessors only\n%q", workers, out, want)
		}
		waitGoroutines(t, base)
	}
}

// TestPanicFailFastCancelsRemainder: the first failure cancels the blocks
// not yet started. With one worker nothing after the saboteur runs.
func TestPanicFailFastCancelsRemainder(t *testing.T) {
	var ran atomic.Int64
	if _, err := runBounded(t, context.Background(), panicList(&ran), 1); err == nil {
		t.Fatal("a panicking experiment returned no error")
	}
	if got := ran.Load(); got != 3 {
		t.Fatalf("%d blocks ran, want 3: the panic must cancel the two after it", got)
	}
}

// TestRunAllCancellation cancels the context during block k. Blocks in
// flight at that moment finish and stream, blocks after them never start,
// and the error is the context's.
//
// The schedule is forced: blocks before k return at once, and every block
// after k parks until k has cancelled, while k waits for the other
// workers-1 workers to park. So exactly blocks 0..k+workers-1 run.
func TestRunAllCancellation(t *testing.T) {
	const n, k = 10, 2
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		parked := make(chan struct{}, n)
		gate := make(chan struct{})
		var ran atomic.Int64
		exps := make([]Experiment, n)
		for i := range exps {
			id := fmt.Sprintf("T%d", i+1)
			switch {
			case i < k:
				exps[i] = block(id, func() { ran.Add(1) })
			case i == k:
				exps[i] = block(id, func() {
					ran.Add(1)
					for j := 1; j < workers; j++ {
						<-parked
					}
					cancel()
					close(gate)
				})
			default:
				exps[i] = block(id, func() {
					ran.Add(1)
					parked <- struct{}{}
					<-gate
				})
			}
		}
		out, err := runBounded(t, ctx, exps, workers)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: error %v, want context.Canceled", workers, err)
		}
		want := ""
		for i := 0; i < k+workers; i++ {
			want += blockText(fmt.Sprintf("T%d", i+1))
		}
		if out != want {
			t.Fatalf("workers=%d: streamed\n%q\nwant blocks T1..T%d\n%q", workers, out, k+workers, want)
		}
		if got := ran.Load(); got != k+int64(workers) {
			t.Fatalf("workers=%d: %d blocks ran, want %d", workers, got, k+workers)
		}
	}
}

// TestRunAllStreamsInListOrder: blocks are written in list order, not in the
// order they finish. T1 cannot finish before T2's worker has moved on to T3,
// so T2's block is always ready first.
func TestRunAllStreamsInListOrder(t *testing.T) {
	t3Started := make(chan struct{})
	exps := []Experiment{
		block("T1", func() { <-t3Started }),
		block("T2", func() {}),
		block("T3", func() { close(t3Started) }),
	}
	out, err := runBounded(t, context.Background(), exps, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := blockText("T1") + blockText("T2") + blockText("T3"); out != want {
		t.Fatalf("streamed\n%q\nwant\n%q", out, want)
	}
}
