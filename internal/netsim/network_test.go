package netsim

import (
	"math"
	"testing"
	"time"
)

func TestPropagationDelay(t *testing.T) {
	// 100 km of fiber at 2×10⁸ m/s is 500 µs — the Figure 2 scale.
	d := PropagationDelay(100_000)
	if math.Abs(float64(d-500*time.Microsecond)) > float64(time.Nanosecond) {
		t.Fatalf("100 km delay = %v, want 500µs", d)
	}
	if PropagationDelay(0) != 0 {
		t.Fatal("zero distance should be zero delay")
	}
}

func TestPropagationDelayNegativePanics(t *testing.T) {
	for _, d := range []float64{-1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("PropagationDelay(%v): expected panic", d)
				}
			}()
			PropagationDelay(d)
		}()
	}
}

func TestSendDeliversAfterLinkDelay(t *testing.T) {
	var e Engine
	n := NewNetwork(&e)
	var got Message
	n.AddNode(1, func(_ *Network, m Message) { got = m })
	n.AddNode(2, nil)
	n.Connect(1, 2, 250*time.Microsecond)

	e.Schedule(time.Millisecond, func() { n.Send(2, 1, "ping") })
	e.Run(0)

	if got.Payload != "ping" || got.From != 2 || got.To != 1 {
		t.Fatalf("message %+v", got)
	}
	if got.SentAt != time.Millisecond {
		t.Fatalf("SentAt %v", got.SentAt)
	}
	if got.DeliveredAt != time.Millisecond+250*time.Microsecond {
		t.Fatalf("DeliveredAt %v", got.DeliveredAt)
	}
}

func TestLinkIsBidirectional(t *testing.T) {
	var e Engine
	n := NewNetwork(&e)
	hits := 0
	n.AddNode(1, func(_ *Network, m Message) { hits++ })
	n.AddNode(2, func(_ *Network, m Message) { hits++ })
	n.Connect(1, 2, time.Microsecond)
	n.Send(1, 2, nil)
	n.Send(2, 1, nil)
	e.Run(0)
	if hits != 2 {
		t.Fatalf("hits = %d", hits)
	}
}

func TestSendUnconnectedPanics(t *testing.T) {
	var e Engine
	n := NewNetwork(&e)
	n.AddNode(1, nil)
	n.AddNode(2, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.Send(1, 2, nil)
}

func TestDuplicateNodePanics(t *testing.T) {
	var e Engine
	n := NewNetwork(&e)
	n.AddNode(1, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.AddNode(1, nil)
}

// TestLinkDelayLookup: a link installed from a fiber distance is found in
// either direction and delays delivery by the distance's propagation time.
func TestLinkDelayLookup(t *testing.T) {
	var e Engine
	n := NewNetwork(&e)
	var got Message
	n.AddNode(1, func(_ *Network, m Message) { got = m })
	n.AddNode(2, nil)
	n.ConnectDistance(1, 2, 100_000)
	n.Send(2, 1, "ping") // either direction
	e.Run(0)
	if got.DeliveredAt-got.SentAt != 500*time.Microsecond {
		t.Fatalf("100 km link delivered after %v, want 500µs", got.DeliveredAt-got.SentAt)
	}
}

// TestRequestResponseRTT models the Figure 2 comparison: a classical
// coordination exchange costs a full round trip before the decision, while
// the entangled path decides locally at t=0.
func TestRequestResponseRTT(t *testing.T) {
	var e Engine
	n := NewNetwork(&e)
	oneWay := 500 * time.Microsecond
	var decisionAt time.Duration

	n.AddNode(1, func(net *Network, m Message) {
		if m.Payload == "response" {
			decisionAt = net.Engine.Now()
		}
	})
	n.AddNode(2, func(net *Network, m Message) {
		if m.Payload == "request" {
			net.Send(2, 1, "response")
		}
	})
	n.Connect(1, 2, oneWay)

	n.Send(1, 2, "request")
	e.Run(0)

	if decisionAt != 2*oneWay {
		t.Fatalf("classical decision at %v, want RTT %v", decisionAt, 2*oneWay)
	}
}
