// Hardinstance: the full distributed pipeline of Theorem 1.1 on an
// Elkin/Lotker-style lower-bound-shaped graph — the instance family where
// generic O(√n)-quality shortcuts are wasteful and the paper's
// ˜O(n^((D-2)/(2D-2))) construction shines. Runs the CONGEST-simulated
// construction (with diameter guessing) and reports rounds, messages, and
// the verified quality, against the GH16 baseline.
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
	rng := rand.New(rand.NewSource(3))
	const diameter = 4
	hi, err := repro.NewHardInstance(2000, diameter, rng)
	if err != nil {
		return err
	}
	g := hi.G
	p, err := repro.NewPartition(g, hi.Paths)
	if err != nil {
		return err
	}
	fmt.Printf("hard instance : %v, diameter %d, %d paths of length %d\n",
		g, diameter, len(hi.Paths), hi.PathLen)
	fmt.Printf("theory scale  : kD = %.1f, sqrt(n) = %.1f\n",
		repro.KD(g.NumNodes(), diameter), math.Sqrt(float64(g.NumNodes())))

	// The fully simulated distributed construction, including the
	// diameter-guessing loop (nodes only know a 2-approximation).
	res, err := repro.BuildShortcutsDistributedCtx(context.Background(), g, p,
		repro.WithSeed(3), repro.WithSamplingBoost(0.3))
	if err != nil {
		return err
	}
	q, err := res.S.Dilation(0)
	if err != nil {
		return err
	}
	fmt.Printf("distributed   : %d rounds, %d messages, %d guesses (accepted D=%d)\n",
		res.Rounds, res.Messages, res.Guesses, res.Diameter)
	fmt.Printf("quality       : %v  (c+d = %d)\n", q, q.Sum())

	gh := repro.GhaffariHaeuplerShortcuts(p, 0)
	ghQ, err := gh.Dilation(0)
	if err != nil {
		return err
	}
	fmt.Printf("GH16 baseline : %v  (c+d = %d)\n", ghQ, ghQ.Sum())
	fmt.Printf("improvement   : %.2fx better quality\n", float64(ghQ.Sum())/float64(q.Sum()))
	return nil
}
