package suite

import (
	"strings"
	"testing"

	"repro/internal/loadtest"
)

func TestSplitBlocksAndFooter(t *testing.T) {
	out := []byte("\n──── E1: a ────\nx\n\n──── E2 / Figure 3: b ────\ny\n\n──── E10: c ────\nz\n\nall experiments complete in 7.1s\n")
	if !footer.Match(out) {
		t.Fatal("footer not recognised")
	}
	out = footer.ReplaceAll(out, nil)
	if strings.Contains(string(out), "complete") {
		t.Fatalf("footer not stripped: %q", out)
	}
	ids, blocks := splitBlocks(out)
	if strings.Join(ids, ",") != "E1,E2,E10" {
		t.Fatalf("ids %v", ids)
	}
	if got := string(blocks["E2"]); got != "──── E2 / Figure 3: b ────\ny\n\n" {
		t.Errorf("block E2 = %q", got)
	}
}

func TestCheckWinRateBounds(t *testing.T) {
	if err := checkWinRate("x", 8536, 10000, classicalFloor, quantumBound); err != nil {
		t.Errorf("Tsirelson-rate play rejected: %v", err)
	}
	if err := checkWinRate("x", 9000, 10000, classicalFloor, quantumBound); err == nil {
		t.Error("0.90 over 10k rounds passes the quantum bound")
	}
	if err := checkWinRate("x", 7000, 10000, classicalFloor, quantumBound); err == nil {
		t.Error("0.70 over 10k rounds passes the classical floor")
	}
	if err := checkWinRate("x", 0, 0, classicalFloor, quantumBound); err != nil {
		t.Errorf("no rounds: %v", err)
	}
}

func TestCheckResultAccountsForEveryRequest(t *testing.T) {
	scenarios := []loadtest.Scenario{{Name: "batch", Batch: 4}}
	ok := &loadtest.Result{
		Decisions: 32, InDeadline: 30, Late: 2, Wins: 26,
		Scenarios: []loadtest.ScenarioResult{{Name: "batch", Requests: 10, Shed: 2, Decisions: 32}},
	}
	if err := checkResult(ok, scenarios); err != nil {
		t.Errorf("consistent result rejected: %v", err)
	}
	lost := *ok
	lost.Scenarios = []loadtest.ScenarioResult{{Name: "batch", Requests: 11, Shed: 2, Decisions: 32}}
	if err := checkResult(&lost, scenarios); err == nil {
		t.Error("a request neither served, shed nor failed went unnoticed")
	}
	split := *ok
	split.Late = 1
	if err := checkResult(&split, scenarios); err == nil {
		t.Error("decisions ≠ in-deadline + late went unnoticed")
	}
}
