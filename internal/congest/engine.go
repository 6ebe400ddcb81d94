package congest

import (
	"context"
	"runtime"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/reproerr"
)

// Options configures an Engine.
type Options struct {
	// Workers selects the execution mode. 0 or 1 runs every node on a single
	// goroutine in lock-step; k > 1 runs a pool of k workers over contiguous
	// arc-balanced node ranges with a barrier between rounds; any negative
	// value selects runtime.GOMAXPROCS(0) workers. Every setting produces
	// bit-for-bit identical program outputs and Stats on runs that complete
	// without error. (On an error-aborted run the same error is reported,
	// but the accompanying Stats and program states are best-effort and may
	// differ across modes: the sequential engine stops at the erroring node,
	// while other shards of the pool finish their round.)
	Workers int
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

// ctxErr wraps the context failure as the taxonomy error the engines return.
func (o Options) ctxErr() error {
	return reproerr.FromContext("congest", o.Ctx.Err())
}

// Engine executes CONGEST Programs over a graph. Engines are stateless and
// safe for concurrent use; per-run state lives on the Run stack.
type Engine interface {
	// Run instantiates one Program per node via factory and executes rounds
	// until quiescence (no messages in flight and every program Done), then
	// returns the run stats and the final per-node programs so callers can
	// extract each node's local output.
	Run(g *graph.Graph, factory Factory) (Stats, []Program, error)
}

// NewEngine returns the engine selected by opts.
func NewEngine(opts Options) Engine {
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = 1 << 30
	}
	if opts.Workers < 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Workers <= 1 {
		return &seqEngine{opts}
	}
	return &poolEngine{opts}
}

// Run is shorthand for NewEngine(opts).Run(g, factory).
func Run(g *graph.Graph, factory Factory, opts Options) (Stats, []Program, error) {
	return NewEngine(opts).Run(g, factory)
}

// flatState is the arc-indexed run state shared by both execution modes.
//
// Message delivery exploits the CONGEST bandwidth constraint: at most one
// message crosses each directed arc per round, so the in-flight messages of
// a round fit exactly in one slot per arc. A send on arc a is written into
// slot ArcReverse(a) — the same arc index the receiver iterates when walking
// its own CSR arc range — under a double buffer: programs read the "cur"
// buffer while their sends land in "next", and the coordinator swaps the two
// at the round barrier. Receivers zero the occupancy bytes of their own
// range as they consume, so no global clear is ever needed. Inboxes are
// materialized in CSR port order, which makes delivery order (and therefore
// every deterministic Program) independent of execution mode, worker count,
// and scheduling.
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

// stepRange advances nodes [from, to) through round `round` (0 = Init),
// reading inboxes from the cur buffer and staging sends into next via out.
// *in is a reusable scratch buffer that amortizes to zero allocations once
// grown to the range's maximum inbox size. Returns the messages sent,
// whether every program in the range is Done, and the first error in node
// order.
func (st *flatState) stepRange(round int, from, to graph.NodeID, out *Outbox, in *[]Inbound) (sent int64, allDone bool, err error) {
	g := st.g
	allDone = true
	out.sent = 0
	for u := from; u < to; u++ {
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

// seqEngine runs every node on the calling goroutine in lock-step.
type seqEngine struct{ opts Options }

func (e *seqEngine) Run(g *graph.Graph, factory Factory) (Stats, []Program, error) {
	st := newFlatState(g, factory)
	n := graph.NodeID(g.NumNodes())
	out := &Outbox{rev: g.ArcReverses(), msgs: st.nextMsgs, occ: st.nextOcc}
	var in []Inbound
	var stats Stats
	done := e.opts.done()

	sent, allDone, err := st.stepRange(0, 0, n, out, &in)
	stats.Messages += sent
	if err != nil {
		return stats, st.programs, err
	}
	for round := 1; ; round++ {
		if sent == 0 && allDone {
			stats.Rounds = round - 1
			return stats, st.programs, nil
		}
		if round > e.opts.MaxRounds {
			return stats, st.programs, reproerr.Errorf("", reproerr.KindBudgetExceeded, "%w (%d)", ErrMaxRounds, e.opts.MaxRounds)
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
		sent, allDone, err = st.stepRange(round, 0, n, out, &in)
		stats.Messages += sent
		if err != nil {
			return stats, st.programs, err
		}
	}
}

// poolEngine runs nodes on P persistent workers over contiguous node shards
// with a barrier between rounds. Shard boundaries are chosen to balance arc
// counts, so dense regions do not serialize on one worker. Determinism needs
// no locks: each directed arc has exactly one sender, so workers write
// disjoint slots of the next buffer, and receivers consume slots of their
// own shard only.
type poolEngine struct{ opts Options }

// shardResult is one worker's per-round report to the coordinator.
type shardResult struct {
	sent    int64
	allDone bool
	err     error
}

func (e *poolEngine) Run(g *graph.Graph, factory Factory) (Stats, []Program, error) {
	n := g.NumNodes()
	p := e.opts.Workers
	if p > n {
		p = n
	}
	if p <= 1 {
		return (&seqEngine{e.opts}).Run(g, factory)
	}
	st := newFlatState(g, factory)
	bounds := shardBounds(g, p)
	rev := g.ArcReverses()

	wake := make([]chan int, p)
	results := make([]shardResult, p)
	var barrier sync.WaitGroup
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wake[w] = make(chan int, 1)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := &Outbox{rev: rev}
			var in []Inbound
			for round := range wake[w] {
				out.msgs, out.occ = st.nextMsgs, st.nextOcc
				sent, allDone, err := st.stepRange(round, bounds[w], bounds[w+1], out, &in)
				results[w] = shardResult{sent: sent, allDone: allDone, err: err}
				barrier.Done()
			}
		}(w)
	}
	stop := func() {
		for _, c := range wake {
			close(c)
		}
		wg.Wait()
	}

	var stats Stats
	runRound := func(round int) (sent int64, allDone bool, err error) {
		barrier.Add(p)
		for _, c := range wake {
			c <- round
		}
		barrier.Wait()
		allDone = true
		for w := 0; w < p; w++ {
			sent += results[w].sent
			allDone = allDone && results[w].allDone
			if err == nil && results[w].err != nil {
				err = results[w].err // first in shard (= node) order
			}
		}
		stats.Messages += sent
		return sent, allDone, err
	}

	done := e.opts.done()
	sent, allDone, err := runRound(0)
	if err != nil {
		stop()
		return stats, st.programs, err
	}
	for round := 1; ; round++ {
		if sent == 0 && allDone {
			stats.Rounds = round - 1
			stop()
			return stats, st.programs, nil
		}
		if round > e.opts.MaxRounds {
			stop()
			return stats, st.programs, reproerr.Errorf("", reproerr.KindBudgetExceeded, "%w (%d)", ErrMaxRounds, e.opts.MaxRounds)
		}
		if done != nil {
			select {
			case <-done:
				stop()
				return stats, st.programs, e.opts.ctxErr()
			default:
			}
		}
		st.swap()
		sent, allDone, err = runRound(round)
		if err != nil {
			stop()
			return stats, st.programs, err
		}
	}
}

// shardBounds splits [0, n) into p contiguous ranges of roughly equal total
// arc count (CSR offsets make the split a binary search per boundary).
func shardBounds(g *graph.Graph, p int) []graph.NodeID {
	n := g.NumNodes()
	arcs := g.NumArcs()
	bounds := make([]graph.NodeID, p+1)
	bounds[p] = graph.NodeID(n)
	for w := 1; w < p; w++ {
		target := int32(int64(arcs) * int64(w) / int64(p))
		u := sort.Search(n, func(u int) bool {
			lo, _ := g.ArcRange(graph.NodeID(u))
			return lo >= target
		})
		bounds[w] = graph.NodeID(u)
	}
	// Guard against empty graphs / degenerate splits: bounds must be
	// nondecreasing, which Search guarantees since offsets are monotone.
	return bounds
}
