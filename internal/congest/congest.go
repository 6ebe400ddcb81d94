// Package congest simulates the CONGEST model of distributed computing
// [Pel00], the model the paper's algorithms are stated in: the network is an
// n-node graph with one processor per node; computation proceeds in
// synchronous rounds; per round, each processor may send one O(log n)-bit
// message over each of its incident edges.
//
// The simulator enforces the bandwidth constraint (at most one Message per
// directed edge per round; Message payloads are a fixed small number of
// machine words) and counts the two quantities the paper's theorems bound:
// rounds and total messages.
//
// The Engine (see NewEngine and Options) executes Program semantics in
// lock-step on one goroutine over flat per-arc buffers. Because CONGEST
// permits at most one message per directed arc per round, delivery is a
// direct write into a per-arc slot (slot graph.ArcReverse(a) for a send on
// arc a) guarded by an occupancy byte: no sorting, no per-delivery
// allocation, and inbox iteration in CSR port order — deterministic by
// construction.
package congest

import (
	"errors"

	"repro/internal/graph"
	"repro/internal/reproerr"
)

// Message is the unit of communication: a kind tag plus three integer words.
// With IDs and distances bounded by poly(n), this is O(log n) bits, matching
// the CONGEST bandwidth budget.
type Message struct {
	Kind uint8
	A    int64
	B    int64
	C    int64
}

// Inbound is a message delivered to a node, tagged with the local port it
// arrived on and the sender's ID.
type Inbound struct {
	Port int // local port index at the receiver
	From graph.NodeID
	Msg  Message
}

// View is a node's local view of the network: its own ID and its incident
// ports. Programs must interact with the topology only through a View — this
// is what keeps simulated algorithms honest about locality.
type View struct {
	g  *graph.Graph
	id graph.NodeID
	lo int32
	n  int64 // number of nodes; CONGEST algorithms commonly assume knowledge of n
}

// ID returns this node's identifier.
func (v *View) ID() graph.NodeID { return v.id }

// NumNodes returns n. Knowledge of n (or a polynomial bound on it) is a
// standard CONGEST assumption used for message encodings.
func (v *View) NumNodes() int64 { return v.n }

// Degree returns the number of incident edges.
func (v *View) Degree() int { return v.g.Degree(v.id) }

// Neighbor returns the ID of the neighbor on local port p. Knowing neighbor
// IDs is the standard KT1 assumption.
func (v *View) Neighbor(p int) graph.NodeID { return v.g.ArcTarget(v.lo + int32(p)) }

// Edge returns the global undirected EdgeID behind port p. The simulator
// exposes it for bookkeeping (congestion counters); programs may use it as an
// opaque port label.
func (v *View) Edge(p int) graph.EdgeID { return v.g.ArcEdge(v.lo + int32(p)) }

// Outbox stages the messages a node sends during one round. Sending twice on
// the same port within a round violates the CONGEST bandwidth constraint and
// causes the engine to abort with ErrBandwidth.
//
// Send writes straight into the engine's next-round arc slot at the receiver
// (slot ArcReverse(arc) for the sender's arc): because each directed arc has
// exactly one sender, the slot's occupancy byte doubles as the duplicate-send
// check, and no staging buffer or per-message allocation exists at all.
type Outbox struct {
	node   graph.NodeID
	lo, hi int32 // arc range of the current node
	rev    []int32
	msgs   []Message // next-round slot buffer, indexed by receiver-side arc
	occ    []uint8   // occupancy of msgs
	sent   int64
	err    error
}

// ErrBandwidth is reported when a program sends two messages over one edge in
// a single round.
var ErrBandwidth = errors.New("congest: two messages on one port in one round")

// Send stages a message on local port p.
func (o *Outbox) Send(p int, m Message) {
	if p < 0 || p >= int(o.hi-o.lo) {
		if o.err == nil {
			o.err = reproerr.Invalid("congest", "node %d sent on invalid port %d", o.node, p)
		}
		return
	}
	a := o.lo + int32(p)
	back := o.rev[a]
	if o.occ[back] != 0 {
		if o.err == nil {
			o.err = reproerr.Errorf("", reproerr.KindBandwidth, "%w (port %d)", ErrBandwidth, p)
		}
		return
	}
	o.occ[back] = 1
	o.msgs[back] = m
	o.sent++
}

// Broadcast stages the same message on every port of the node.
func (o *Outbox) Broadcast(v *View, m Message) {
	for p := 0; p < v.Degree(); p++ {
		o.Send(p, m)
	}
}

// bind points the outbox at one node for the current round.
func (o *Outbox) bind(node graph.NodeID, lo, hi int32) {
	o.node, o.lo, o.hi = node, lo, hi
}

// Program is the behavior of one node. The engine calls Init once (round 0,
// may send), then Round for every subsequent round with that round's
// deliveries. A run terminates when every program reports Done and no
// messages are in flight.
type Program interface {
	Init(v *View, out *Outbox)
	Round(round int, v *View, in []Inbound, out *Outbox)
	Done() bool
}

// Factory creates the program for one node. It is invoked once per node
// before the run starts.
type Factory func(v *View) Program

// Stats aggregates a run's costs.
type Stats struct {
	Rounds   int
	Messages int64
}

// Add accumulates another phase's stats (used when composing multi-phase
// algorithms; rounds and messages both add).
func (s *Stats) Add(other Stats) {
	s.Rounds += other.Rounds
	s.Messages += other.Messages
}

// ErrMaxRounds is returned when a run fails to terminate within the allowed
// number of rounds.
var ErrMaxRounds = errors.New("congest: exceeded max rounds")
