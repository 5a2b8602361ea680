package faults

import (
	"strings"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestWindowValidate(t *testing.T) {
	cases := []struct {
		w  Window
		ok bool
	}{
		{Window{Kind: KindSourceOutage, Start: 0, End: ms(1)}, true},
		{Window{Kind: KindNone, Start: 0, End: ms(1)}, false},
		{Window{Kind: Kind(99), Start: 0, End: ms(1)}, false},
		{Window{Kind: KindSourceOutage, Start: ms(2), End: ms(1)}, false},
		{Window{Kind: KindSourceOutage, Start: -ms(1), End: ms(1)}, false},
		{Window{Kind: KindFiberLossBurst, Start: 0, End: ms(1), Severity: 0.5}, true},
		{Window{Kind: KindFiberLossBurst, Start: 0, End: ms(1), Severity: 1.5}, false},
		{Window{Kind: KindDecoherenceSpike, Start: 0, End: ms(1), Severity: 0}, false},
		{Window{Kind: KindDecoherenceSpike, Start: 0, End: ms(1), Severity: 0.1}, true},
		{Window{Kind: KindPoolFlush, Start: ms(1), End: ms(1)}, true},
	}
	for i, c := range cases {
		if err := c.w.Validate(); (err == nil) != c.ok {
			t.Errorf("case %d (%+v): err=%v, want ok=%v", i, c.w, err, c.ok)
		}
	}
}

func TestScheduleActiveAtComposesSeverities(t *testing.T) {
	s := Schedule{Windows: []Window{
		{Kind: KindFiberLossBurst, Start: ms(0), End: ms(10), Severity: 0.5},
		{Kind: KindFiberLossBurst, Start: ms(5), End: ms(15), Severity: 0.4},
	}}
	if on, sev := s.ActiveAt(KindFiberLossBurst, ms(7)); !on || sev != 0.2 {
		t.Fatalf("overlap: on=%v sev=%v, want true 0.2", on, sev)
	}
	if on, sev := s.ActiveAt(KindFiberLossBurst, ms(12)); !on || sev != 0.4 {
		t.Fatalf("tail: on=%v sev=%v, want true 0.4", on, sev)
	}
	// End is exclusive.
	if on, _ := s.ActiveAt(KindFiberLossBurst, ms(15)); on {
		t.Fatal("window end must be exclusive")
	}
	if on, sev := s.ActiveAt(KindSourceOutage, ms(7)); on || sev != 1 {
		t.Fatalf("wrong kind: on=%v sev=%v", on, sev)
	}
}

func TestSupplyAndVisibilityFactors(t *testing.T) {
	s := Schedule{Windows: []Window{
		{Kind: KindSourceOutage, Start: ms(0), End: ms(1)},
		{Kind: KindFiberLossBurst, Start: ms(2), End: ms(3), Severity: 0.5},
		{Kind: KindBSMFailure, Start: ms(2), End: ms(4), Severity: 0.4},
		{Kind: KindDecoherenceSpike, Start: ms(5), End: ms(6), Severity: 0.3},
	}}
	if f := s.SupplyFactor(ms(0)); f != 0 {
		t.Fatalf("outage supply factor = %v", f)
	}
	if f := s.SupplyFactor(ms(2)); f != 0.2 {
		t.Fatalf("burst×bsm supply factor = %v, want 0.2", f)
	}
	if f := s.SupplyFactor(ms(7)); f != 1 {
		t.Fatalf("nominal supply factor = %v", f)
	}
	if f := s.VisibilityFactor(ms(5)); f != 0.3 {
		t.Fatalf("spike visibility factor = %v", f)
	}
	if f := s.VisibilityFactor(ms(4)); f != 1 {
		t.Fatalf("nominal visibility factor = %v", f)
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindNone; k < numKinds; k++ {
		if s := k.String(); s == "" || strings.HasPrefix(s, "Kind(") {
			t.Fatalf("kind %d has no name", int(k))
		}
	}
	if NumKinds != 5 {
		t.Fatalf("NumKinds = %d, want 5", NumKinds)
	}
}
