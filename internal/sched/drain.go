package sched

import (
	"repro/internal/graph"
	"repro/internal/reproerr"
)

// The deterministic drain.
//
// One scheduler round pops the head token of every active arc and delivers
// it to the arc's head node; deliveries mutate per-task state at the
// receiver and push follow-up tokens onto the receiver's outgoing arcs. The
// worklist of active arcs is ordered — an arc enters it when a push finds
// its queue empty — and that order is observable: when two same-round
// tokens of one task race for an unvisited node, the earlier-listed arc
// wins the Dist/Parent slot. The drain fixes that order:
//
//   - Pops come first (one per active arc), so tokens pushed in round r are
//     never delivered in round r.
//   - Deliveries then run in worklist (snapshot) order, so each receiver
//     sees its tokens in snapshot-position order.
//   - The next round's worklist is arcs still non-empty after their pop, in
//     snapshot order, then arcs activated by the round's deliveries, in
//     push order.
//
// The seed scheduler's sequential drain realizes the same order, so
// outcomes and Stats match it bit for bit (pinned by
// TestFlatSchedulerMatchesSeed).

// handler is the per-execution behavior plugged into a drainer: task starts
// (run between rounds) and token deliveries.
type handler[T any] interface {
	start(task int32)
	deliver(arc int32, tk T)
}

// drainer owns the round machinery for one token type. All slices are
// reused across runs.
type drainer[T any] struct {
	g     *graph.Graph
	epoch uint32
	arcs  []arcQueue[T]
	arena ringArena[T]
	h     handler[T]

	active   []int32 // ordered worklist of non-empty arcs
	snapshot []int32
	popped   []T
}

// prepare binds the drainer to g, resetting all reused state.
func (d *drainer[T]) prepare(g *graph.Graph) {
	d.g = g
	if len(d.arcs) != g.NumArcs() {
		d.arcs = make([]arcQueue[T], g.NumArcs())
		d.epoch = 0
	}
	d.epoch++
	if d.epoch == 0 { // tag wrap: clear once, then restart at 1
		for i := range d.arcs {
			d.arcs[i] = arcQueue[T]{}
		}
		d.epoch = 1
	}
	d.arena.reset()
	d.active = d.active[:0]
	d.snapshot = d.snapshot[:0]
}

// send pushes a token onto arc's queue, appending the arc to the worklist
// when the push finds its queue empty.
func (d *drainer[T]) send(arc int32, tk T) {
	if push(d.arcs, d.epoch, &d.arena, arc, tk) {
		d.active = append(d.active, arc)
	}
}

// drive runs the round loop to quiescence: starts due this round, then one
// pop-and-deliver sweep of the active worklist. On ErrMaxRounds the
// accumulated message count is reported but Rounds/MaxArcLoad/MaxQueue stay
// zero, mirroring the seed scheduler's abort behavior. A cancellable
// opts.Ctx is polled once per round (a prefetched-channel select, no
// allocation), so cancellation aborts within one drain step with the same
// partial-stats shape as a budget overrun.
func (d *drainer[T]) drive(sp *startPlan, maxRounds int, opts Options) (Stats, error) {
	var stats Stats
	done := opts.done()
	round := 0
	for {
		for sp.next < len(sp.order) && sp.delay[sp.order[sp.next]] == int32(round) {
			d.h.start(sp.order[sp.next])
			sp.next++
		}
		if len(d.active) == 0 && !sp.pending() {
			break
		}
		if round >= maxRounds {
			return stats, reproerr.Errorf("", reproerr.KindBudgetExceeded, "%w (%d)", ErrMaxRounds, maxRounds)
		}
		if done != nil {
			select {
			case <-done:
				return stats, reproerr.FromContext("sched", opts.Ctx.Err())
			default:
			}
		}
		stats.Messages += int64(d.round())
		round++
	}
	stats.Rounds = round
	stats.MaxArcLoad = d.maxLoad()
	stats.MaxQueue = int(d.arena.maxQ)
	return stats, nil
}

// round executes one pop-and-deliver sweep and returns the tokens delivered.
func (d *drainer[T]) round() int {
	d.snapshot, d.active = d.active, d.snapshot[:0]
	d.popped = resize(d.popped, len(d.snapshot))
	for i, arc := range d.snapshot {
		d.popped[i] = pop(d.arcs, &d.arena, arc)
		if d.arcs[arc].qlen > 0 {
			d.active = append(d.active, arc)
		}
	}
	for i, arc := range d.snapshot {
		d.h.deliver(arc, d.popped[i])
	}
	return len(d.snapshot)
}

// maxLoad returns the largest realized per-arc token count of this run.
func (d *drainer[T]) maxLoad() int {
	var m int32
	for i := range d.arcs {
		if q := &d.arcs[i]; q.epoch == d.epoch && q.load > m {
			m = q.load
		}
	}
	return int(m)
}
