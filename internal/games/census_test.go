package games

import (
	"slices"
	"testing"

	"repro/internal/xrand"
)

// TestCensusClassVerdictMatchesEveryK5Labeling is the census's soundness on
// Figure 3's own ensemble: each of the 1024 K5 labelings, solved on its own,
// has the verdict of the class it is counted under.
func TestCensusClassVerdictMatchesEveryK5Labeling(t *testing.T) {
	c := newSwitchingCensus(5)
	adv := c.verdicts(0)
	for l := uint32(0); l < 1<<10; l++ {
		want := adv[c.class[c.isolate(l)]]
		if got, _, _ := c.game(l).HasQuantumAdvantage(nil); got != want {
			t.Fatalf("labeling %#x: advantage %v, its class says %v", l, got, want)
		}
	}
}

// TestCensusK6RandomMembersMatchClassVerdict: a few random labelings of each
// K6 class, relabelled and switched away from the H-space, keep the class
// verdict.
func TestCensusK6RandomMembersMatchClassVerdict(t *testing.T) {
	c := newSwitchingCensus(6)
	adv := c.verdicts(0)
	members := make([][]uint32, len(c.reps))
	for h, id := range c.class {
		members[id] = append(members[id], uint32(h))
	}
	rng := xrand.New(43, 6)
	for id, ms := range members {
		for range 3 {
			h := ms[rng.IntN(len(ms))]
			s := uint32(rng.IntN(len(c.cut)))
			l := (h ^ c.cut[s]) | s<<c.mH
			if c.isolate(l) != h {
				t.Fatalf("class %d: %#x switched at %#x isolates to %#x", id, h, s, c.isolate(l))
			}
			if got, _, _ := c.game(l).HasQuantumAdvantage(nil); got != adv[id] {
				t.Fatalf("class %d: labeling %#x has advantage %v, the class %v", id, l, got, adv[id])
			}
		}
	}
}

// TestAdvantageCensusCounts pins the class counts (OEIS A002854) and the
// advantaged labelings EXPERIMENTS E2 quotes.
func TestAdvantageCensusCounts(t *testing.T) {
	for _, tc := range []struct {
		n       int
		classes int
		adv     int64
	}{{3, 2, 0}, {4, 3, 48}, {5, 7, 672}, {6, 16, 27904}, {7, 54, 2000256}} {
		if got := len(newSwitchingCensus(tc.n).reps); got != tc.classes {
			t.Errorf("K%d: %d switching classes, want %d", tc.n, got, tc.classes)
		}
		var adv int64
		for _, k := range AdvantageCensus(tc.n, 0) {
			adv += k
		}
		if adv != tc.adv {
			t.Errorf("K%d: %d advantaged labelings, want %d", tc.n, adv, tc.adv)
		}
	}
	if got, want := AdvantageCensus(5, 0), []int64{0, 0, 45, 60, 195, 72, 195, 60, 45, 0, 0}; !slices.Equal(got, want) {
		t.Errorf("K5 counts %v, want %v", got, want)
	}
}

// TestAdvantageCensusSymmetric: complementing every label negates the sign
// matrix, which moves neither value, so count[e] = count[m−e] and
// P(advantage) at p equals it at 1−p.
func TestAdvantageCensusSymmetric(t *testing.T) {
	for n := 3; n <= 7; n++ {
		count := AdvantageCensus(n, 0)
		m := len(count) - 1
		for e := range count {
			if count[e] != count[m-e] {
				t.Fatalf("K%d: count[%d] = %d, count[%d] = %d", n, e, count[e], m-e, count[m-e])
			}
		}
	}
}
