package main

import "testing"

func TestParseLoads(t *testing.T) {
	loads, err := parseLoads("0.5, 1.0 ,1.25", 100, 1)
	if err != nil || len(loads) != 3 || loads[0] != 0.5 || loads[1] != 1.0 || loads[2] != 1.25 {
		t.Fatalf("loads %v, err %v", loads, err)
	}
}

func TestParseLoadsRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"abc", "1.0,-2", "0", "NaN", "Inf", "1e-9"} {
		if loads, err := parseLoads(bad, 100, 1); err == nil {
			t.Fatalf("%q parsed as %v, want an error", bad, loads)
		}
	}
}

// TestCheckFlagsRejectsUnrunnable: every numeric flag that cannot describe a
// run is an error before anything runs, and the defaults pass.
func TestCheckFlagsRejectsUnrunnable(t *testing.T) {
	for _, c := range []struct {
		n, slots, warmup, scale int
		loads                   string
	}{
		{0, 20000, 5000, 1, "1.0"},
		{100, 0, 5000, 1, "1.0"},
		{100, 20000, -5, 1, "1.0"},
		{100, 20000, 5000, 0, "1.0"},
		{100, 20000, 5000, 1, "0"},
		{100, 20000, 5000, 1 << 20, "1.0"},
	} {
		if _, err := checkFlags(c.n, c.slots, c.warmup, c.scale, c.loads); err == nil {
			t.Errorf("checkFlags%+v accepted", c)
		}
	}
	if _, err := checkFlags(100, 20000, 5000, 1, "0.5,1.4"); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
}
