package qkd

import (
	"math"
	"testing"
)

func TestCleanChannelProducesKey(t *testing.T) {
	cfg := DefaultConfig()
	res := Run(cfg)
	if res.Aborted {
		t.Fatalf("clean channel aborted: %v", res)
	}
	// Perfect pairs: zero errors.
	if res.QBER.Successes() != 0 {
		t.Fatalf("QBER %v on a noiseless channel", res.QBER.Rate())
	}
	// 2 of 9 angle combinations are key rounds.
	wantKeyFrac := 2.0 / 9
	gotKeyFrac := float64(res.KeyRounds) / float64(cfg.Rounds)
	if math.Abs(gotKeyFrac-wantKeyFrac) > 0.02 {
		t.Fatalf("key-round fraction %v, want %v", gotKeyFrac, wantKeyFrac)
	}
	// 4 of 9 are CHSH rounds.
	gotCHSH := float64(res.CHSHRounds) / float64(cfg.Rounds)
	if math.Abs(gotCHSH-4.0/9) > 0.02 {
		t.Fatalf("CHSH-round fraction %v, want %v", gotCHSH, 4.0/9)
	}
	// S at the Tsirelson value.
	if math.Abs(res.S-2*math.Sqrt2) > 0.05 {
		t.Fatalf("S = %v, want 2√2", res.S)
	}
	if len(res.Key) != res.KeyRounds {
		t.Fatal("key length mismatch")
	}
	// Key bits per distributed pair.
	if rate := float64(len(res.Key)) / float64(cfg.Rounds); rate < 0.18 || rate > 0.27 {
		t.Fatalf("sifted key rate %v", rate)
	}
}

func TestWernerNoiseQBERClosedForm(t *testing.T) {
	for _, v := range []float64{0.95, 0.9} {
		cfg := DefaultConfig()
		cfg.Rounds = 40000
		cfg.Visibility = v
		cfg.Seed = 3
		res := Run(cfg)
		// Equal-angle measurements on Werner(V) disagree with probability
		// (1−V)/2.
		want := (1 - v) / 2
		if math.Abs(res.QBER.Rate()-want) > 0.01 {
			t.Fatalf("V=%v: QBER %v, closed form %v", v, res.QBER.Rate(), want)
		}
		if math.Abs(res.S-ExpectedS(v)) > 0.06 {
			t.Fatalf("V=%v: S %v, closed form %v", v, res.S, ExpectedS(v))
		}
		if res.Aborted {
			t.Fatalf("V=%v should still pass the S test (S=%v)", v, res.S)
		}
	}
}

// TestInterceptResendIsDetected is the protocol's reason to exist: Eve's
// measurement breaks the entanglement, S collapses to ≤ 2, and the session
// aborts — while her eavesdropping also shows up as ~25% QBER.
func TestInterceptResendIsDetected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rounds = 30000
	cfg.Eve = StandardEve()
	cfg.Seed = 4
	res := Run(cfg)
	if !res.Aborted {
		t.Fatalf("eavesdropped session not aborted: S=%v ± %v", res.S, res.SE)
	}
	if res.S > 2.1 {
		t.Fatalf("intercept-resend should cap S near/below 2, got %v", res.S)
	}
	if math.Abs(res.QBER.Rate()-0.25) > 0.02 {
		t.Fatalf("intercept-resend QBER %v, want ~0.25", res.QBER.Rate())
	}
}

func TestHeavyNoiseAborts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Visibility = 0.6 // S ≈ 1.70 < 2: indistinguishable from an attack
	cfg.Seed = 5
	res := Run(cfg)
	if !res.Aborted {
		t.Fatalf("V=0.6 session should abort (S=%v)", res.S)
	}
}

func TestAbortThresholdMargin(t *testing.T) {
	// A higher abort threshold rejects mildly noisy channels a lax one
	// accepts.
	cfg := DefaultConfig()
	cfg.Visibility = 0.85 // S ≈ 2.40
	cfg.Seed = 6
	lax := Run(cfg)
	if lax.Aborted {
		t.Fatalf("V=0.85 should pass at threshold 2 (S=%v)", lax.S)
	}
	cfg.AbortS = 2.5
	strict := Run(cfg)
	if !strict.Aborted {
		t.Fatalf("V=0.85 should fail at threshold 2.5 (S=%v)", strict.S)
	}
}

func TestKeyBitsBalanced(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 7
	res := Run(cfg)
	ones := 0
	for _, b := range res.Key {
		ones += int(b)
	}
	rate := float64(ones) / float64(len(res.Key))
	if math.Abs(rate-0.5) > 0.03 {
		t.Fatalf("key bit bias %v — key material must be uniform", rate)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rounds = 5000
	a := Run(cfg)
	b := Run(cfg)
	if a.S != b.S || len(a.Key) != len(b.Key) {
		t.Fatal("same seed must reproduce the session")
	}
}

func TestConfigValidation(t *testing.T) {
	for _, f := range []func(){
		func() { Run(Config{Rounds: 0, Visibility: 1}) },
		func() { Run(Config{Rounds: 10, Visibility: 1.5}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestResultString(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rounds = 2000
	if Run(cfg).String() == "" {
		t.Fatal("empty summary")
	}
}

func BenchmarkQKDRound(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Rounds = 100
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		Run(cfg)
	}
}
