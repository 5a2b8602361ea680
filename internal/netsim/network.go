package netsim

import (
	"fmt"
	"time"
)

// SpeedOfLightFiber is the propagation speed in optical fiber (~2/3 c),
// the figure that makes "faster-than-light correlation" a concrete win:
// a 100 km fiber hop costs ~500 µs one way.
const SpeedOfLightFiber = 2.0e8 // meters per second

// PropagationDelay converts a fiber distance to a one-way delay.
func PropagationDelay(distanceMeters float64) time.Duration {
	if !(distanceMeters >= 0) {
		panic("netsim: negative or NaN distance")
	}
	return time.Duration(distanceMeters / SpeedOfLightFiber * float64(time.Second))
}

// NodeID identifies a node in a Network.
type NodeID int

// Message is a classical message in flight between nodes.
type Message struct {
	From, To    NodeID
	Payload     any
	SentAt      time.Duration
	DeliveredAt time.Duration
}

// Handler consumes a delivered message at a node.
type Handler func(net *Network, msg Message)

// Network is a set of nodes joined by fixed-delay links on one Engine.
type Network struct {
	Engine *Engine

	handlers map[NodeID]Handler
	delays   map[[2]NodeID]time.Duration
}

// NewNetwork creates an empty network on the engine.
func NewNetwork(e *Engine) *Network {
	return &Network{
		Engine:   e,
		handlers: make(map[NodeID]Handler),
		delays:   make(map[[2]NodeID]time.Duration),
	}
}

// AddNode registers a node and its message handler.
func (n *Network) AddNode(id NodeID, h Handler) {
	if _, dup := n.handlers[id]; dup {
		panic(fmt.Sprintf("netsim: duplicate node %d", id))
	}
	n.handlers[id] = h
}

// Connect installs a bidirectional link with the given one-way delay.
func (n *Network) Connect(a, b NodeID, delay time.Duration) {
	if delay < 0 {
		panic("netsim: negative link delay")
	}
	n.delays[linkKey(a, b)] = delay
}

// ConnectDistance installs a link with delay derived from fiber distance.
func (n *Network) ConnectDistance(a, b NodeID, meters float64) {
	n.Connect(a, b, PropagationDelay(meters))
}

// LinkDelay returns the one-way delay between two connected nodes.
func (n *Network) LinkDelay(a, b NodeID) (time.Duration, bool) {
	d, ok := n.delays[linkKey(a, b)]
	return d, ok
}

// Send schedules delivery of a message across the link; the destination
// handler runs after exactly the link's propagation delay. It panics if the
// nodes are not connected — silent drops would corrupt timing experiments.
func (n *Network) Send(from, to NodeID, payload any) {
	d, ok := n.delays[linkKey(from, to)]
	if !ok {
		panic(fmt.Sprintf("netsim: no link %d–%d", from, to))
	}
	h, ok := n.handlers[to]
	if !ok {
		panic(fmt.Sprintf("netsim: unknown destination node %d", to))
	}
	msg := Message{From: from, To: to, Payload: payload, SentAt: n.Engine.Now()}
	n.Engine.Schedule(d, func() {
		msg.DeliveredAt = n.Engine.Now()
		h(n, msg)
	})
}

func linkKey(a, b NodeID) [2]NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]NodeID{a, b}
}
