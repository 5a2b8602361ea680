package ftlq

import (
	"math"
	"testing"
	"time"

	"repro/internal/ecmp"
	"repro/internal/loadbalance"
	"repro/internal/workload"
)

func TestFacadeSessionEndToEnd(t *testing.T) {
	session, err := NewSession(SessionConfig{
		Game:     NewColocationCHSH(),
		Supplier: PerfectSupplier{Visibility: 0.98},
		QNIC:     DefaultQNIC(),
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := session.PlayReferee(50000, 0, time.Microsecond)
	lo, _ := st.Wins.Wilson95()
	if lo <= session.ClassicalValue() {
		t.Fatalf("facade session win rate %v does not beat classical %v",
			st.Wins.Rate(), session.ClassicalValue())
	}
}

func TestFacadeGameConstructors(t *testing.T) {
	if NewCHSH().Name != "CHSH" || NewColocationCHSH().Name != "colocation-CHSH" {
		t.Fatal("constructors returned wrong games")
	}
}

func TestFacadeCriticalVisibility(t *testing.T) {
	v := CriticalVisibility(0.75, 0.8535533905932737)
	if math.Abs(v-1/math.Sqrt2) > 1e-9 {
		t.Fatalf("critical visibility %v", v)
	}
}

func TestFacadeLoadBalance(t *testing.T) {
	cfg := LBConfig{
		NumBalancers: 30, NumServers: 28,
		Warmup: 200, Slots: 1500,
		Discipline: loadbalance.BatchCFirst,
		Workload:   workload.Bernoulli{PC: 0.5},
		Seed:       2,
	}
	rc := RunLB(cfg, NewRandomLB())
	rq := RunLB(cfg, NewQuantumLB(1.0, 3))
	if rc.Served == 0 || rq.Served == 0 {
		t.Fatal("simulations did not serve tasks")
	}
	if rq.QueueLen.Mean() >= rc.QueueLen.Mean() {
		t.Fatalf("quantum %v not below random %v near the knee",
			rq.QueueLen.Mean(), rc.QueueLen.Mean())
	}
}

func TestFacadeECMP(t *testing.T) {
	cfg := ECMPConfig{NumSwitches: 4, NumPaths: 2, ActiveK: 2, Rounds: 20000, Seed: 4}
	r := RunECMP(cfg, ecmp.SharedPermutation{})
	best := ECMPBestClassical(4, 2, 2)
	if r.Collisions.Mean() < best-3*r.Collisions.CI95() {
		t.Fatalf("ECMP result %v below the proved optimum %v", r.Collisions.Mean(), best)
	}
}

func TestFacadeRandDeterminism(t *testing.T) {
	a, b := Rand(9), Rand(9)
	for i := 0; i < 16; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Rand not deterministic in seed")
		}
	}
}
