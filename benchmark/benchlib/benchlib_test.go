package benchlib

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestGenMixIsAFunctionOfTheSeed(t *testing.T) {
	a := GenMix(42, 2e4, 50*time.Millisecond, 8)
	b := GenMix(42, 2e4, 50*time.Millisecond, 8)
	c := GenMix(43, 2e4, 50*time.Millisecond, 8)
	if len(a.Ops) == 0 {
		t.Fatal("empty plan")
	}
	if a.Hash() != b.Hash() {
		t.Errorf("same seed, different plans: %016x vs %016x", a.Hash(), b.Hash())
	}
	if a.Hash() == c.Hash() {
		t.Errorf("seeds 42 and 43 generated the same plan %016x", a.Hash())
	}
	var kinds [3]int
	for i := range a.Ops {
		op := &a.Ops[i]
		kinds[op.Kind]++
		want := map[uint8]int{OpSingle: 1, OpBatch: MixBatchRounds, OpInfo: 0}[op.Kind]
		if len(op.Rounds) != want {
			t.Fatalf("op %d of kind %d has %d rounds, want %d", i, op.Kind, len(op.Rounds), want)
		}
		if i > 0 && op.At < a.Ops[i-1].At {
			t.Fatalf("op %d arrives before op %d", i, i-1)
		}
	}
	for k, n := range kinds {
		if n == 0 {
			t.Errorf("kind %d never generated in %d ops", k, len(a.Ops))
		}
	}
}

func TestOpBodyIsTheDecideWireFormat(t *testing.T) {
	single := Op{Kind: OpSingle, Rounds: []Round{{1, 0}}}
	if got, want := string(single.Body("s")), `{"session":"s","x":1,"y":0}`; got != want {
		t.Errorf("single body %s, want %s", got, want)
	}
	batch := Op{Kind: OpBatch, Rounds: []Round{{0, 1}, {1, 1}}}
	if got, want := string(batch.Body("s")), `{"session":"s","rounds":[{"x":0,"y":1},{"x":1,"y":1}]}`; got != want {
		t.Errorf("batch body %s, want %s", got, want)
	}
	if body := (&Op{Kind: OpInfo}).Body("s"); body != nil {
		t.Errorf("info body %s, want none", body)
	}
}

func TestOrderStatistics(t *testing.T) {
	xs := []float64{5, 1, 4, 2}
	if got := Median(xs); got != 3 {
		t.Errorf("median of %v = %v, want 3", xs, got)
	}
	if got := Median([]float64{9, 7, 8}); got != 8 {
		t.Errorf("median of three = %v, want 8", got)
	}
	if xs[0] != 5 {
		t.Error("Median reordered its input")
	}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("q0 = %v, want 1", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Errorf("q1 = %v, want 5", got)
	}
	if got := Quantile([]float64{0, 10}, 0.25); got != 2.5 {
		t.Errorf("interpolated quartile = %v, want 2.5", got)
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestSelfTimesIsTheOnionSubtraction(t *testing.T) {
	got := SelfTimes([]float64{10, 7, 4, 1})
	want := []float64{3, 3, 3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SelfTimes = %v, want %v", got, want)
		}
	}
	// An inner depth slower than the one around it must show, not be clamped.
	if got := SelfTimes([]float64{5, 6}); got[0] != -1 || got[1] != 6 {
		t.Errorf("SelfTimes([5 6]) = %v, want [-1 6]", got)
	}
}

func TestNewLineRequiresExactlyTheDeclaredNames(t *testing.T) {
	decls := []Metric{{Name: "a", Unit: "s"}, {Name: "b", Unit: "ms"}}
	line, err := NewLine(decls, map[string]float64{"a": 1, "b": 2})
	if err != nil {
		t.Fatal(err)
	}
	if line.Metrics["b"] != (Value{2, "ms"}) {
		t.Errorf("b = %+v", line.Metrics["b"])
	}
	if _, err := NewLine(decls, map[string]float64{"a": 1}); err == nil || !strings.Contains(err.Error(), `"b"`) {
		t.Errorf("missing metric not reported: %v", err)
	}
	if _, err := NewLine(decls, map[string]float64{"a": 1, "b": 2, "c": 3}); err == nil || !strings.Contains(err.Error(), "c") {
		t.Errorf("undeclared metric not reported: %v", err)
	}
}

func TestNoisyFlagsCanaryDrift(t *testing.T) {
	if Noisy(100*time.Millisecond, 109*time.Millisecond) {
		t.Error("9% drift flagged")
	}
	if !Noisy(100*time.Millisecond, 111*time.Millisecond) {
		t.Error("11% drift not flagged")
	}
	if !Noisy(111*time.Millisecond, 100*time.Millisecond) {
		t.Error("drift not flagged when the run got faster")
	}
}
