package ftlq

// Cross-module integration tests: each test exercises a full pipeline the
// way the cmd/ binaries do, at reduced scale, asserting the end-to-end
// invariants that individual package tests cannot see.

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ecmp"
	"repro/internal/entangle"
	"repro/internal/games"
	"repro/internal/loadbalance"
	"repro/internal/netsim"
	"repro/internal/qsim"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// TestIntegrationSourceToSessionToGame wires the whole Figure 1 stack:
// SPDC source → DES distribution → QNIC pool → Session → game rounds, and
// checks the measured win rate against the session's own prediction.
func TestIntegrationSourceToSessionToGame(t *testing.T) {
	var engine netsim.Engine
	rng := xrand.New(200, 1)
	src := entangle.DefaultSource()
	pool := entangle.NewPool(entangle.DefaultQNIC(), 0)
	svc := entangle.StartService(&engine, src, pool, rng)

	session, err := core.NewSession(core.Config{
		Game:     games.NewColocationCHSH(),
		Supplier: pool,
		QNIC:     entangle.DefaultQNIC(),
		Seed:     200,
	})
	if err != nil {
		t.Fatal(err)
	}

	gameRng := xrand.New(201, 1)
	const rounds = 30000
	step := 20 * time.Microsecond // 5e4 req/s vs 1e5 pairs/s: well supplied
	now := time.Duration(0)
	for i := 0; i < rounds; i++ {
		now += step
		engine.RunUntil(now)
		x, y := games.NewColocationCHSH().SampleInput(gameRng)
		session.Round(engine.Now(), x, y)
	}
	svc.Stop()

	st := session.Stats()
	if st.QuantumRounds < int64(0.9*rounds) {
		t.Fatalf("only %d/%d rounds quantum despite oversupply", st.QuantumRounds, rounds)
	}
	frac := float64(st.QuantumRounds) / float64(st.Rounds)
	predicted := session.ExpectedWinRate(frac, st.Visibility.Mean())
	if math.Abs(st.Wins.Rate()-predicted) > 0.01 {
		t.Fatalf("measured win rate %v vs predicted %v", st.Wins.Rate(), predicted)
	}
	// Pool accounting is conservative: every quantum round consumed a pair,
	// and a few consumed pairs were rejected as sub-critical (measured and
	// discarded), so Consumed ≥ QuantumRounds.
	ps := pool.Stats()
	if ps.Consumed < st.QuantumRounds {
		t.Fatalf("pool consumed %d, session used %d", ps.Consumed, st.QuantumRounds)
	}
	if ps.Added < ps.Consumed {
		t.Fatal("consumed more pairs than were delivered")
	}
}

// TestIntegrationGameSolversAgree cross-validates every solver in the
// repository on the same random games: Burer–Monteiro SDP, rank-2 planar
// realization scored by the exact Born rule, and the see-saw iteration.
func TestIntegrationGameSolversAgree(t *testing.T) {
	rng := xrand.New(202, 1)
	for trial := 0; trial < 4; trial++ {
		g := games.RandomGraphXORGame(4, 0.5, rng)
		full := g.QuantumValue(rng).Value
		pr, q2 := g.PlanarRealize(rng)
		phys := g.ValueOn(qsim.Werner(1.0), games.CHSHAngles{ThetaA: pr.AnglesA, ThetaB: pr.AnglesB})
		seesaw := g.SeeSawOnState(qsim.DensityFromPure(qsim.Bell()), rng).Value

		if math.Abs(phys-q2.Value) > 1e-9 {
			t.Fatalf("planar physics %v != rank-2 vectors %v", phys, q2.Value)
		}
		// See-saw lives on a Bell pair (rank ≤ 2 correlations): it should
		// match the rank-2 value and never beat the full SDP.
		if math.Abs(seesaw-q2.Value) > 1e-4 {
			t.Fatalf("see-saw %v vs rank-2 %v", seesaw, q2.Value)
		}
		if seesaw > full+1e-6 {
			t.Fatalf("see-saw %v exceeds SDP %v", seesaw, full)
		}
	}
}

// TestIntegrationRepeaterFedLoadBalancing: pairs delivered over a repeater
// chain carry compounded visibility; the load balancer's colocation rate
// must match the closed form for that visibility.
func TestIntegrationRepeaterFedLoadBalancing(t *testing.T) {
	chain := entangle.RepeaterChain{
		Segments:   4,
		Source:     entangle.DefaultSource(),
		BSMSuccess: 0.5,
	}
	vis := chain.EndToEndVisibility() // 0.98^4 ≈ 0.922
	rng := xrand.New(203, 1)
	cfg := loadbalance.Config{
		NumBalancers: 40, NumServers: 40,
		Warmup: 200, Slots: 4000,
		Discipline: loadbalance.BatchCFirst,
		Workload:   workload.Bernoulli{PC: 0.5},
		Seed:       203,
	}
	s := loadbalance.NewQuantumPairedStrategy(vis, rng)
	loadbalance.Run(cfg, s)
	want := vis*0.8535533905932737 + (1-vis)/2
	if math.Abs(s.ColocationStats().Rate()-want) > 0.015 {
		t.Fatalf("colocation %v, closed form %v at chain visibility %v",
			s.ColocationStats().Rate(), want, vis)
	}
}

// TestIntegrationCertifyThenDeploy models the operational workflow: certify
// the hardware, recover its visibility from S, and use that estimate to
// predict load-balancer behavior.
func TestIntegrationCertifyThenDeploy(t *testing.T) {
	rng := xrand.New(204, 1)
	trueVis := 0.9
	g := games.NewCHSH()
	device := g.QuantumValue(rng).QuantumSampler(trueVis)

	cert := games.CertifyCHSH(device, 60000, rng)
	if !cert.ViolatesClassicalBound(3) {
		t.Fatal("device failed certification")
	}
	estVis := cert.S / games.TsirelsonBound
	if math.Abs(estVis-trueVis) > 0.02 {
		t.Fatalf("estimated visibility %v, true %v", estVis, trueVis)
	}
	// Predict and verify the colocation rate at the estimated visibility.
	cfg := loadbalance.Config{
		NumBalancers: 40, NumServers: 40,
		Warmup: 100, Slots: 3000,
		Discipline: loadbalance.BatchCFirst,
		Workload:   workload.Bernoulli{PC: 0.5},
		Seed:       204,
	}
	s := loadbalance.NewQuantumPairedStrategy(trueVis, rng)
	loadbalance.Run(cfg, s)
	predicted := estVis*0.8535533905932737 + (1-estVis)/2
	if math.Abs(s.ColocationStats().Rate()-predicted) > 0.02 {
		t.Fatalf("colocation %v, certification-predicted %v", s.ColocationStats().Rate(), predicted)
	}
}

// TestIntegrationECMPVsLoadBalancingContrast is the paper's "lesson
// learned" as an executable assertion: the SAME entanglement resource that
// shifts the load-balancing knee gives exactly nothing for ECMP.
func TestIntegrationECMPVsLoadBalancingContrast(t *testing.T) {
	rng := xrand.New(205, 1)

	// Load balancing: quantum strictly beats the classical optimum (both
	// exactly computed).
	g := games.NewColocationCHSH()
	c := g.ClassicalValue()
	q := g.QuantumValue(rng)
	if q.Value-c.Value < 0.1 {
		t.Fatalf("load-balancing gap %v missing", q.Value-c.Value)
	}

	// ECMP: the quantum pairing exactly ties the classical pairing, and the
	// classical optimum binds both.
	cfg := ecmp.Config{NumSwitches: 6, NumPaths: 2, ActiveK: 2, Rounds: 60000, Seed: 205}
	bell := ecmp.Run(cfg, ecmp.PairwiseAntiCorrelated{Visibility: 1})
	bound := ecmp.ExactBestClassical(6, 2, 2)
	if bell.Collisions.Mean() < bound-3*bell.Collisions.CI95() {
		t.Fatalf("ECMP quantum pairing %v below classical optimum %v — impossible",
			bell.Collisions.Mean(), bound)
	}
}
