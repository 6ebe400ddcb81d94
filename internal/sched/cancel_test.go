package sched

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/reproerr"
	"repro/internal/testx"
)

// TestParallelBFSCancelMidDrain cancels the context from inside a task's
// arc filter — i.e. mid-delivery, deep inside the drain — and asserts the
// execution aborts at the next round boundary with an error satisfying
// errors.Is(err, context.Canceled) and reproerr.KindCanceled, without
// leaking goroutines.
func TestParallelBFSCancelMidDrain(t *testing.T) {
	g := gen.ErdosRenyi(400, 0.03, rand.New(rand.NewSource(3)))
	defer testx.LeakCheck(t.Errorf)()
	ctx, cancel := context.WithCancel(context.Background())
	deliveries := 0
	task := BFSTask{
		Root: 0,
		Allowed: func(_ int32, _, _ graph.NodeID, _ graph.EdgeID) bool {
			if deliveries++; deliveries == 25 {
				cancel() // mid-drain: the round in flight completes
			}
			return true
		},
		DepthLimit: -1,
	}
	_, stats, err := ParallelBFS(g, []BFSTask{task, task, task}, Options{Ctx: ctx})
	cancel()
	if err == nil {
		t.Fatal("drain completed despite cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false for %v", err)
	}
	var re *reproerr.Error
	if !errors.As(err, &re) || re.Kind != reproerr.KindCanceled {
		t.Errorf("want KindCanceled, got %v", err)
	}
	// Abort happened within one drain step of the trigger: far fewer
	// messages than the full 3-task expansion of the graph.
	if full := int64(3 * g.NumArcs()); stats.Messages >= full {
		t.Errorf("%d messages, drain ran to completion (%d)", stats.Messages, full)
	}
}

// TestParallelBFSPrecanceled asserts an already-canceled context aborts
// before any tokens move, and that the same Runner stays usable for the
// next (uncanceled) execution — buffers reset cleanly after an abort.
func TestParallelBFSPrecanceled(t *testing.T) {
	g := gen.Path(50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var r Runner
	tasks := []BFSTask{{Root: 0, DepthLimit: -1}}
	_, stats, err := r.ParallelBFS(g, tasks, Options{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled: got %v", err)
	}
	if stats.Messages != 0 {
		t.Errorf("pre-canceled run moved %d messages", stats.Messages)
	}
	out, _, err := r.ParallelBFS(g, tasks, Options{})
	if err != nil {
		t.Fatalf("runner unusable after canceled run: %v", err)
	}
	if out.Outcome(0).Len() != g.NumNodes() {
		t.Errorf("post-cancel run visited %d of %d nodes", out.Outcome(0).Len(), g.NumNodes())
	}
}

// TestParallelMinAggregateCanceled covers the aggregate drain's context
// path with a pre-canceled context.
func TestParallelMinAggregateCanceled(t *testing.T) {
	g := gen.Path(30)
	out, _, err := ParallelBFS(g, []BFSTask{{Root: 0, DepthLimit: -1}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	o := out.Outcome(0)
	local := make([]AggValue, o.Len())
	for i := range local {
		local[i] = AggValue{Weight: float64(i), Edge: 0, Valid: true}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = ParallelMinAggregate(g, []AggTask{{Root: 0, Tree: o, Local: local}}, Options{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled aggregate: got %v", err)
	}
	if reproerr.KindOf(err) != reproerr.KindCanceled {
		t.Fatalf("want KindCanceled, got %v", err)
	}
}
