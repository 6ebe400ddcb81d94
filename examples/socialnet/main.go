// Socialnet: distributed MST on a six-degrees-style network — the workload
// motivating the paper's introduction. Compares the shortcut-powered
// Borůvka (Corollary 1.2, ˜O(kD) rounds) against the generic
// Ghaffari–Haeupler O(D+√n) baseline, and verifies both against Kruskal.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"

	"repro"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	rng := rand.New(rand.NewSource(7))
	const (
		n        = 3000
		diameter = 6 // six degrees of separation
	)
	g, err := repro.ClusterChain(n, diameter, rng)
	if err != nil {
		return err
	}
	w := repro.UniformWeights(g, rng)
	fmt.Printf("social network: %v, diameter %d\n", g, diameter)
	fmt.Printf("theory scale  : kD = %.1f vs sqrt(n) = %.1f\n",
		repro.KD(g.NumNodes(), diameter), math.Sqrt(float64(g.NumNodes())))

	exact, err := repro.MST(g, w)
	if err != nil {
		return err
	}
	exactWeight := w.Total(exact)

	ctx := context.Background()
	ours, err := repro.MSTDistributedCtx(ctx, g, w,
		repro.WithSeed(7), repro.WithDiameter(diameter), repro.WithSamplingBoost(0.3))
	if err != nil {
		return err
	}
	baseline, err := repro.MSTDistributedCtx(ctx, g, w,
		repro.WithSeed(7), repro.WithDiameter(diameter), repro.WithBaseline(true))
	if err != nil {
		return err
	}

	fmt.Printf("Kruskal weight        : %.3f\n", exactWeight)
	fmt.Printf("shortcut MST          : weight %.3f, %d phases, %d rounds, %d messages\n",
		ours.Weight, ours.Phases, ours.Rounds, ours.Messages)
	fmt.Printf("GH16-baseline MST     : weight %.3f, %d phases, %d rounds, %d messages\n",
		baseline.Weight, baseline.Phases, baseline.Rounds, baseline.Messages)
	if math.Abs(ours.Weight-exactWeight) > 1e-6 || math.Abs(baseline.Weight-exactWeight) > 1e-6 {
		return fmt.Errorf("distributed MST weight mismatch")
	}
	fmt.Printf("round ratio (ours/GH) : %.2f\n", float64(ours.Rounds)/float64(baseline.Rounds))
	return nil
}
