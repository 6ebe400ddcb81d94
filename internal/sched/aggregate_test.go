package sched

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestAggregateRejectsMisalignedLocal(t *testing.T) {
	g := gen.Path(6)
	out, _, err := ParallelBFS(g, []BFSTask{{Root: 0, DepthLimit: -1}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	task := AggTask{Root: 0, Tree: out.Outcome(0), Local: make([]AggValue, 2)}
	if _, _, err := ParallelMinAggregate(g, []AggTask{task}, Options{}); err == nil {
		t.Error("misaligned Local accepted")
	}
}

func TestAggregateMaxRounds(t *testing.T) {
	g := gen.Path(6)
	task := buildAggTask(t, g, 0, func(v graph.NodeID) AggValue {
		return AggValue{Weight: float64(v), Valid: true}
	})
	_, _, err := ParallelMinAggregate(g, []AggTask{task}, Options{MaxRounds: 1})
	if !errors.Is(err, ErrMaxRounds) {
		t.Errorf("err = %v, want ErrMaxRounds", err)
	}
}

func TestAggregateRequiresRngWithDelay(t *testing.T) {
	g := gen.Path(3)
	_, _, err := ParallelMinAggregate(g, nil, Options{MaxDelay: 3})
	if err == nil {
		t.Error("MaxDelay without Rng accepted")
	}
}

func TestAggregateDeterministicWithSeed(t *testing.T) {
	g := gen.Star(12)
	task := buildAggTask(t, g, 0, func(v graph.NodeID) AggValue {
		return AggValue{Weight: float64(12 - v), Edge: graph.EdgeID(v), Valid: true}
	})
	r1, s1, err := ParallelMinAggregate(g, []AggTask{task}, Options{MaxDelay: 4, Rng: rand.New(rand.NewSource(9))})
	if err != nil {
		t.Fatal(err)
	}
	r2, s2, err := ParallelMinAggregate(g, []AggTask{task}, Options{MaxDelay: 4, Rng: rand.New(rand.NewSource(9))})
	if err != nil {
		t.Fatal(err)
	}
	if r1[0] != r2[0] || s1 != s2 {
		t.Error("seeded runs differ")
	}
	if r1[0].Weight != 1 {
		t.Errorf("min weight = %f, want 1", r1[0].Weight)
	}
}
