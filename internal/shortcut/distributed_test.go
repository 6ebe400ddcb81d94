package shortcut

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestBuildDistributedRequiresRng(t *testing.T) {
	g := gen.Path(4)
	p := mustPartition(t, g, [][]graph.NodeID{{0, 1}})
	if _, err := BuildDistributed(g, p, DistOptions{}); err == nil {
		t.Error("missing Rng accepted")
	}
}

func TestBuildDistributedHardInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	hi, err := gen.NewHardInstance(1200, 4, 0, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	p := mustPartition(t, hi.G, hi.Paths)
	res, err := BuildDistributed(hi.G, p, DistOptions{Rng: rng, KnownDiameter: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.S == nil {
		t.Fatal("no shortcuts returned")
	}
	if res.Guesses != 1 {
		t.Errorf("guesses = %d, want 1 (known diameter)", res.Guesses)
	}
	// The verified construction must actually have bounded dilation.
	q, err := res.S.Dilation(0)
	if err != nil {
		t.Fatal(err)
	}
	n := float64(hi.G.NumNodes())
	kd := res.S.Params.KD
	depthLimit := 2 * kd * math.Log2(n)
	if float64(q.DilationHi) > 2*depthLimit {
		t.Errorf("dilation %d exceeds twice the verified depth bound %f", q.DilationHi, depthLimit)
	}
	if res.Rounds <= 0 || res.Messages <= 0 {
		t.Errorf("stats missing: %d rounds, %d messages", res.Rounds, res.Messages)
	}
	// Theorem 1.1 shape: rounds should be ˜O(kD); allow polylog slack.
	logn := math.Log2(n)
	if float64(res.Rounds) > 40*kd*logn*logn {
		t.Errorf("rounds %d far above ˜O(kD)=˜O(%f)", res.Rounds, kd)
	}
}

func TestBuildDistributedGuessingLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	hi, err := gen.NewHardInstance(900, 4, 0, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	p := mustPartition(t, hi.G, hi.Paths)
	res, err := BuildDistributed(hi.G, p, DistOptions{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if res.Guesses < 1 {
		t.Errorf("guesses = %d", res.Guesses)
	}
	// The successful guess must be within the 2-approximation window.
	if res.Diameter < int(res.EccApprox) || res.Diameter > 2*int(res.EccApprox) {
		t.Errorf("diameter guess %d outside [%d, %d]", res.Diameter, res.EccApprox, 2*res.EccApprox)
	}
	if _, err := res.S.Dilation(0); err != nil {
		t.Errorf("resulting shortcuts invalid: %v", err)
	}
}

func TestBuildDistributedSmallPartsOnly(t *testing.T) {
	// Parts all below kD: the pipeline must succeed trivially with empty H.
	rng := rand.New(rand.NewSource(3))
	g, err := gen.ClusterChain(300, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := gen.VoronoiParts(g, 100, rng) // many tiny parts
	if err != nil {
		t.Fatal(err)
	}
	p := mustPartition(t, g, parts)
	res, err := BuildDistributed(g, p, DistOptions{Rng: rng, KnownDiameter: 4})
	if err != nil {
		t.Fatal(err)
	}
	total := res.S.TotalShortcutEdges()
	// Some parts may still be large; but if none were, H must be empty.
	if len(p.LargeParts(int(res.S.Params.KD))) == 0 && total != 0 {
		t.Errorf("no large parts but %d shortcut edges", total)
	}
}

func TestBuildDistributedMatchesCentralizedQualityShape(t *testing.T) {
	// Both constructions on the same instance should land in the same
	// quality regime (within a small factor).
	seed := int64(4)
	hi, err := gen.NewHardInstance(1000, 4, 0, 0, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	p := mustPartition(t, hi.G, hi.Paths)

	cs, err := Build(hi.G, p, Options{Diameter: 4, Rng: rand.New(rand.NewSource(seed))})
	if err != nil {
		t.Fatal(err)
	}
	cq, err := cs.Dilation(0)
	if err != nil {
		t.Fatal(err)
	}

	dres, err := BuildDistributed(hi.G, p, DistOptions{Rng: rand.New(rand.NewSource(seed)), KnownDiameter: 4})
	if err != nil {
		t.Fatal(err)
	}
	dq, err := dres.S.Dilation(0)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(dq.Sum()) / float64(cq.Sum())
	if ratio > 4 || ratio < 0.25 {
		t.Errorf("distributed quality %d vs centralized %d: ratio %f out of range", dq.Sum(), cq.Sum(), ratio)
	}
}

// TestBuildDistributedGoroutineEngine builds with a known diameter on a
// hard instance and checks the shortcuts are valid.
func TestBuildDistributedGoroutineEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	hi, err := gen.NewHardInstance(500, 3, 0, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	p := mustPartition(t, hi.G, hi.Paths)
	res, err := BuildDistributed(hi.G, p, DistOptions{
		Rng:           rng,
		KnownDiameter: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.S.Dilation(0); err != nil {
		t.Errorf("shortcuts invalid: %v", err)
	}
}
