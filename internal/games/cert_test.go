package games

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

func TestCertifyQuantumSampler(t *testing.T) {
	rng := xrand.New(80, 1)
	g := NewCHSH()
	s := g.QuantumValue(rng).QuantumSampler(1.0)
	cert := CertifyCHSH(s, 30000, rng)
	if !cert.ViolatesClassicalBound(3) {
		t.Fatalf("perfect quantum boxes not certified: S=%v ± %v", cert.S, cert.SE)
	}
	if !cert.WithinTsirelson(3) {
		t.Fatalf("S=%v exceeds the Tsirelson bound", cert.S)
	}
	if math.Abs(cert.S-TsirelsonBound) > 0.05 {
		t.Fatalf("S=%v, want ≈ 2√2=%v", cert.S, TsirelsonBound)
	}
}

func TestCertifyClassicalSamplerFails(t *testing.T) {
	rng := xrand.New(81, 1)
	s := NewCHSH().BestClassicalSampler()
	cert := CertifyCHSH(s, 30000, rng)
	if cert.ViolatesClassicalBound(3) {
		t.Fatalf("classical boxes certified as quantum: S=%v", cert.S)
	}
	// The optimal classical strategy sits exactly at the bound S=2.
	if math.Abs(cert.S-2) > 0.05 {
		t.Fatalf("optimal classical S=%v, want 2", cert.S)
	}
}

func TestCertifyNoisySampler(t *testing.T) {
	rng := xrand.New(82, 1)
	g := NewCHSH()
	q := g.QuantumValue(rng)
	for _, vis := range []float64{0.95, 0.9, 0.8} {
		s := q.QuantumSampler(vis)
		cert := CertifyCHSH(s, 40000, rng)
		want := ExpectedS(vis)
		if math.Abs(cert.S-want) > 0.05 {
			t.Fatalf("V=%v: S=%v, want %v", vis, cert.S, want)
		}
		// Visibility recovered from S.
		if math.Abs(VisibilityFromS(cert.S)-vis) > 0.02 {
			t.Fatalf("recovered visibility %v, want %v", VisibilityFromS(cert.S), vis)
		}
		// Above critical visibility the violation is still certifiable,
		// and never super-quantum.
		if !cert.ViolatesClassicalBound(3) || !cert.WithinTsirelson(3) {
			t.Fatalf("V=%v: S=%v ± %v should certify within 2√2", vis, cert.S, cert.SE)
		}
	}
}

func TestCertifySubClassicalVisibility(t *testing.T) {
	// At V = 1/√2, S = 2 exactly: certification must NOT claim a violation.
	rng := xrand.New(83, 1)
	s := NewCHSH().QuantumValue(rng).QuantumSampler(1 / math.Sqrt2)
	cert := CertifyCHSH(s, 40000, rng)
	if cert.ViolatesClassicalBound(3) {
		t.Fatalf("critical-visibility boxes certified: S=%v ± %v", cert.S, cert.SE)
	}
}

func TestCertificateAccounting(t *testing.T) {
	rng := xrand.New(84, 1)
	s := NewCHSH().BestClassicalSampler()
	cert := CertifyCHSH(s, 100, rng)
	if cert.RoundsPerSetting != 100 {
		t.Fatal("rounds not recorded")
	}
	for x := 0; x < 2; x++ {
		for y := 0; y < 2; y++ {
			if cert.Correlators[x][y].Count() != 100 {
				t.Fatalf("setting (%d,%d) has %d rounds", x, y, cert.Correlators[x][y].Count())
			}
		}
	}
	if cert.SE < 0 {
		t.Fatal("negative standard error")
	}
}

func TestExpectedSRoundTrip(t *testing.T) {
	for _, v := range []float64{0.5, 0.8, 1} {
		if math.Abs(VisibilityFromS(ExpectedS(v))-v) > 1e-12 {
			t.Fatal("S/visibility round trip failed")
		}
	}
}

func BenchmarkCertifyCHSH(b *testing.B) {
	rng := xrand.New(1, 21)
	s := NewCHSH().QuantumValue(rng).QuantumSampler(0.95)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CertifyCHSH(s, 200, rng)
	}
}
