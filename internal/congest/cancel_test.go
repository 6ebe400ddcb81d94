package congest

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/reproerr"
	"repro/internal/testx"
)

// time0 is a deadline that has always already passed.
func time0() time.Time { return time.Unix(1, 0) }

// chatterNode keeps one message bouncing on every port forever, so a run
// never quiesces on its own — the cancellation tests' workload. At round
// trigger (when set) node 0 cancels the run's context, mid-execution.
type chatterNode struct {
	trigger int
	cancel  context.CancelFunc
}

func (c *chatterNode) Init(v *View, out *Outbox) {
	out.Broadcast(v, Message{Kind: 1})
}

func (c *chatterNode) Round(round int, v *View, in []Inbound, out *Outbox) {
	if c.cancel != nil && v.ID() == 0 && round == c.trigger {
		c.cancel()
	}
	out.Broadcast(v, Message{Kind: 1})
}

func (c *chatterNode) Done() bool { return true }

func cancelTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.ClusterChain(600, 5, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestEngineCancelMidRun cancels the context from inside a program round
// and asserts: the run aborts with an error satisfying
// errors.Is(err, context.Canceled) and carrying reproerr.KindCanceled, it
// aborts within one round of the trigger, and no goroutine leaks.
func TestEngineCancelMidRun(t *testing.T) {
	g := cancelTestGraph(t)
	defer testx.LeakCheck(t.Errorf)()
	ctx, cancel := context.WithCancel(context.Background())
	const trigger = 5
	factory := func(*View) Program { return &chatterNode{trigger: trigger, cancel: cancel} }
	stats, _, err := Run(g, factory, Options{Ctx: ctx})
	cancel()
	if err == nil {
		t.Fatal("run completed despite cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false for %v", err)
	}
	var re *reproerr.Error
	if !errors.As(err, &re) || re.Kind != reproerr.KindCanceled {
		t.Errorf("want *reproerr.Error with KindCanceled, got %v", err)
	}
	// The engine checks at the round barrier: the abort must come at the
	// barrier right after the triggering round.
	if stats.Messages > int64(trigger+2)*int64(g.NumArcs()) {
		t.Errorf("run kept going after cancellation: %d messages", stats.Messages)
	}
}

// TestEngineDeadline asserts an already-expired deadline aborts the run
// with KindDeadline and errors.Is(err, context.DeadlineExceeded).
func TestEngineDeadline(t *testing.T) {
	g := cancelTestGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // pre-canceled: first barrier check fires
	_, _, err := Run(g, func(*View) Program { return &chatterNode{} }, Options{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled context: got %v", err)
	}

	dctx, dcancel := context.WithDeadline(context.Background(), time0())
	defer dcancel()
	_, _, err = Run(g, func(*View) Program { return &chatterNode{} }, Options{Ctx: dctx})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: got %v", err)
	}
	var re *reproerr.Error
	if !errors.As(err, &re) || re.Kind != reproerr.KindDeadline {
		t.Fatalf("want KindDeadline, got %v", err)
	}
}

// TestContextCheckCostsNothing pins the hot-path promise: running with a
// live cancellable context allocates exactly as much as running with none —
// the per-round check is one poll of a prefetched channel.
func TestContextCheckCostsNothing(t *testing.T) {
	g := cancelTestGraph(t)
	run := func(ctx context.Context) {
		factory := func(*View) Program { return &boundedChatter{rounds: 50} }
		if _, _, err := Run(g, factory, Options{Ctx: ctx}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx.Done() // materialize the channel outside the measurement
	without := testing.AllocsPerRun(3, func() { run(nil) })
	with := testing.AllocsPerRun(3, func() { run(ctx) })
	if with > without {
		t.Errorf("context check allocates: %v allocs/run with ctx vs %v without", with, without)
	}
}

// boundedChatter broadcasts for a fixed number of rounds, then stops.
type boundedChatter struct{ rounds int }

func (b *boundedChatter) Init(v *View, out *Outbox) { out.Broadcast(v, Message{Kind: 1}) }

func (b *boundedChatter) Round(round int, v *View, in []Inbound, out *Outbox) {
	if round < b.rounds {
		out.Broadcast(v, Message{Kind: 1})
	}
}

func (b *boundedChatter) Done() bool { return true }
