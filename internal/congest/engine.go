package congest

import (
	"context"

	"repro/internal/graph"
	"repro/internal/reproerr"
)

// Options configures an Engine.
type Options struct {
	// MaxRounds aborts a run with ErrMaxRounds when a round beyond it would
	// be needed. 0 selects a generous default (1<<30).
	MaxRounds int
	// Ctx, when non-nil, is checked at every round barrier: a canceled or
	// expired context aborts the run within one round with a
	// reproerr.KindCanceled/KindDeadline error wrapping ctx.Err(). The
	// check is one poll of a prefetched Done channel — it allocates nothing
	// and costs nothing measurable on the round loop (nil Ctx, like
	// context.Background, skips it entirely). The public facade's
	// context-first entry points thread their context here.
	Ctx context.Context
}

// done returns the context's Done channel, or nil when no cancellable
// context was supplied (Background and TODO report a nil Done too).
func (o Options) done() <-chan struct{} {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Done()
}

// ctxErr wraps the context failure as the taxonomy error the engine returns.
func (o Options) ctxErr() error {
	return reproerr.FromContext("congest", o.Ctx.Err())
}

// Engine executes CONGEST Programs over a graph, every node on the calling
// goroutine in lock-step. An Engine holds only its Options, so it is safe
// for concurrent use; per-run state lives on the Run stack.
type Engine struct{ opts Options }

// NewEngine returns an engine configured by opts.
func NewEngine(opts Options) Engine { return Engine{opts} }

// Run is shorthand for NewEngine(opts).Run(g, factory).
func Run(g *graph.Graph, factory Factory, opts Options) (Stats, []Program, error) {
	return NewEngine(opts).Run(g, factory)
}

// flatState is the arc-indexed run state of one Run.
//
// Message delivery exploits the CONGEST bandwidth constraint: at most one
// message crosses each directed arc per round, so the in-flight messages of
// a round fit exactly in one slot per arc. A send on arc a is written into
// slot ArcReverse(a) — the same arc index the receiver iterates when walking
// its own CSR arc range — under a double buffer: programs read the "cur"
// buffer while their sends land in "next", and Run swaps the two at the
// round barrier. Receivers zero the occupancy bytes of their own
// range as they consume, so no global clear is ever needed. Inboxes are
// materialized in CSR port order, so delivery order (and therefore every
// deterministic Program's output) is a function of the graph alone.
type flatState struct {
	g        *graph.Graph
	views    []View
	programs []Program

	curMsgs, nextMsgs []Message
	curOcc, nextOcc   []uint8
}

func newFlatState(g *graph.Graph, factory Factory) *flatState {
	n := g.NumNodes()
	arcs := g.NumArcs()
	st := &flatState{
		g:        g,
		views:    make([]View, n),
		programs: make([]Program, n),
		curMsgs:  make([]Message, arcs),
		nextMsgs: make([]Message, arcs),
		curOcc:   make([]uint8, arcs),
		nextOcc:  make([]uint8, arcs),
	}
	for u := 0; u < n; u++ {
		lo, _ := g.ArcRange(graph.NodeID(u))
		st.views[u] = View{g: g, id: graph.NodeID(u), lo: lo, n: int64(n)}
		st.programs[u] = factory(&st.views[u])
	}
	return st
}

// swap flips the double buffer at the round barrier.
func (st *flatState) swap() {
	st.curMsgs, st.nextMsgs = st.nextMsgs, st.curMsgs
	st.curOcc, st.nextOcc = st.nextOcc, st.curOcc
}

// step advances every node through round `round` (0 = Init), reading
// inboxes from the cur buffer and staging sends into next via out. *in is a
// reusable scratch buffer that amortizes to zero allocations once grown to
// the largest inbox. Returns the messages sent, whether every program is
// Done, and the first error in node order.
func (st *flatState) step(round int, out *Outbox, in *[]Inbound) (sent int64, allDone bool, err error) {
	g := st.g
	allDone = true
	out.sent = 0
	for u := graph.NodeID(0); u < graph.NodeID(len(st.programs)); u++ {
		lo, hi := g.ArcRange(u)
		prog := st.programs[u]
		if round == 0 {
			out.bind(u, lo, hi)
			prog.Init(&st.views[u], out)
		} else {
			inbox := (*in)[:0]
			for a := lo; a < hi; a++ {
				if st.curOcc[a] != 0 {
					st.curOcc[a] = 0
					inbox = append(inbox, Inbound{Port: int(a - lo), From: g.ArcTarget(a), Msg: st.curMsgs[a]})
				}
			}
			*in = inbox
			if len(inbox) == 0 && prog.Done() {
				continue
			}
			out.bind(u, lo, hi)
			prog.Round(round, &st.views[u], inbox, out)
		}
		if out.err != nil {
			return out.sent, false, out.err
		}
		if !prog.Done() {
			allDone = false
		}
	}
	return out.sent, allDone, nil
}

// Run instantiates one Program per node via factory and executes rounds
// until quiescence (no messages in flight and every program Done), then
// returns the run stats and the final per-node programs so callers can
// extract each node's local output.
func (e Engine) Run(g *graph.Graph, factory Factory) (Stats, []Program, error) {
	maxRounds := e.opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 1 << 30
	}
	st := newFlatState(g, factory)
	out := &Outbox{rev: g.ArcReverses(), msgs: st.nextMsgs, occ: st.nextOcc}
	var in []Inbound
	var stats Stats
	done := e.opts.done()

	sent, allDone, err := st.step(0, out, &in)
	stats.Messages += sent
	if err != nil {
		return stats, st.programs, err
	}
	for round := 1; ; round++ {
		if sent == 0 && allDone {
			stats.Rounds = round - 1
			return stats, st.programs, nil
		}
		if round > maxRounds {
			return stats, st.programs, reproerr.Errorf("", reproerr.KindBudgetExceeded, "%w (%d)", ErrMaxRounds, maxRounds)
		}
		if done != nil {
			select {
			case <-done:
				return stats, st.programs, e.opts.ctxErr()
			default:
			}
		}
		st.swap()
		out.msgs, out.occ = st.nextMsgs, st.nextOcc
		sent, allDone, err = st.step(round, out, &in)
		stats.Messages += sent
		if err != nil {
			return stats, st.programs, err
		}
	}
}
