package shortcut

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
)

// TestCongestionProfileConsistency: the profile histogram's largest nonzero
// index must equal Congestion(), and the histogram must sum to m.
func TestCongestionProfileConsistency(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyi(60, 0.08, rng)
		parts, err := gen.VoronoiParts(g, 1+rng.Intn(8), rng)
		if err != nil {
			return true
		}
		p, err := NewPartition(g, parts)
		if err != nil {
			return false
		}
		s, err := Build(g, p, Options{Diameter: 3, LogFactor: 0.3, Rng: rng})
		if err != nil {
			return false
		}
		hist := s.CongestionProfile()
		total := 0
		for _, h := range hist {
			total += h
		}
		if total != g.NumEdges() {
			return false
		}
		top := len(hist) - 1
		for top > 0 && hist[top] == 0 {
			top--
		}
		return top == s.Congestion()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestTrivialCongestionAtMostOne: with no shortcuts, an edge is in at most
// one induced subgraph (parts are disjoint).
func TestTrivialCongestionAtMostOne(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyi(40, 0.1, rng)
		parts, err := gen.VoronoiParts(g, 1+rng.Intn(10), rng)
		if err != nil {
			return true
		}
		p, err := NewPartition(g, parts)
		if err != nil {
			return false
		}
		return Trivial(p).Congestion() <= 1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestDilationNeverWorseThanTrivial: adding shortcut edges can only shrink
// distances inside the augmented subgraph.
func TestDilationNeverWorseThanTrivial(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5; trial++ {
		hi, err := gen.NewHardInstance(800, 4, 0, 0, rng)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPartition(hi.G, hi.Paths)
		if err != nil {
			t.Fatal(err)
		}
		trivial, err := Trivial(p).Dilation(0)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Build(hi.G, p, Options{Diameter: 4, LogFactor: 0.3, Rng: rng})
		if err != nil {
			t.Fatal(err)
		}
		q, err := s.Dilation(0)
		if err != nil {
			t.Fatal(err)
		}
		if q.DilationHi > trivial.DilationHi {
			t.Errorf("trial %d: dilation %d worse than trivial %d", trial, q.DilationHi, trivial.DilationHi)
		}
	}
}

// TestPartitionLeaderIsMember ensures leaders are always members of their
// own parts (max-ID convention).
func TestPartitionLeaderIsMember(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyi(50, 0.08, rng)
		parts, err := gen.VoronoiParts(g, 1+rng.Intn(7), rng)
		if err != nil {
			return true
		}
		p, err := NewPartition(g, parts)
		if err != nil {
			return false
		}
		for i := 0; i < p.NumParts(); i++ {
			part := p.Part(i)
			found := false
			for _, v := range part.Nodes {
				if v > part.Leader {
					return false // leader not maximal
				}
				if v == part.Leader {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
