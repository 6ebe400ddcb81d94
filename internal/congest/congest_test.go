package congest

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// seq returns the lock-step engine with a round budget.
func seq(maxRounds int) Engine { return NewEngine(Options{MaxRounds: maxRounds}) }

// engines lists the engines every primitive test runs under, by subtest
// name: the lock-step engine is the only one.
func engines(maxRounds int) []struct {
	name string
	eng  Engine
} {
	return []struct {
		name string
		eng  Engine
	}{
		{"sequential", seq(maxRounds)},
	}
}

func TestRunBFSMatchesCentralized(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := gen.ErdosRenyi(80, 0.05, rng)
	want := graph.BFS(g, 3)
	for _, r := range engines(1000) {
		t.Run(r.name, func(t *testing.T) {
			tree, stats, err := RunBFS(g, 3, r.eng)
			if err != nil {
				t.Fatal(err)
			}
			for v := 0; v < g.NumNodes(); v++ {
				if tree.Dist[v] != want.Dist[v] {
					t.Errorf("Dist[%d] = %d, want %d", v, tree.Dist[v], want.Dist[v])
				}
			}
			// BFS completes in ecc+O(1) rounds.
			ecc := int(want.MaxDist())
			if stats.Rounds < ecc || stats.Rounds > ecc+3 {
				t.Errorf("rounds = %d, want about %d", stats.Rounds, ecc)
			}
			if stats.Messages == 0 {
				t.Error("no messages counted")
			}
		})
	}
}

func TestRunBFSChildPortsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := gen.ErdosRenyi(50, 0.08, rng)
	tree, _, err := RunBFS(g, 0, seq(1000))
	if err != nil {
		t.Fatal(err)
	}
	// Every node's parent must list it as a child, and vice versa.
	childCount := 0
	for v := 0; v < g.NumNodes(); v++ {
		childCount += len(tree.ChildPorts[v])
	}
	inTree := 0
	for v := 0; v < g.NumNodes(); v++ {
		if tree.InTree(graph.NodeID(v)) {
			inTree++
		}
	}
	if childCount != inTree-1 {
		t.Errorf("child links = %d, want %d (tree edges)", childCount, inTree-1)
	}
}

func TestRunMaxFlood(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := gen.ErdosRenyi(60, 0.06, rng)
	for _, r := range engines(1000) {
		t.Run(r.name, func(t *testing.T) {
			res, _, err := RunMaxFlood(g, r.eng)
			if err != nil {
				t.Fatal(err)
			}
			if res.Leader != graph.NodeID(g.NumNodes()-1) {
				t.Errorf("leader = %d, want %d", res.Leader, g.NumNodes()-1)
			}
			want := graph.BFS(g, res.Leader)
			for v := 0; v < g.NumNodes(); v++ {
				if res.Dist[v] != want.Dist[v] {
					t.Errorf("Dist[%d] = %d, want %d", v, res.Dist[v], want.Dist[v])
				}
			}
			ecc := res.EccApprox()
			diam := graph.Diameter(g)
			if ecc > diam || 2*ecc < diam {
				t.Errorf("ecc approx %d outside [diam/2, diam] for diam %d", ecc, diam)
			}
		})
	}
}

func TestRunPartBFS(t *testing.T) {
	// Path of 12 nodes in 3 segments of 4; leaders are the max ID per part.
	g := gen.Path(12)
	leaderOf := make([]graph.NodeID, 12)
	for v := 0; v < 12; v++ {
		leaderOf[v] = graph.NodeID((v/4)*4 + 3)
	}
	for _, r := range engines(1000) {
		t.Run(r.name, func(t *testing.T) {
			forest, _, err := RunPartBFS(g, leaderOf, -1, r.eng)
			if err != nil {
				t.Fatal(err)
			}
			for v := 0; v < 12; v++ {
				wantDist := int32(int(leaderOf[v]) - v)
				if forest.Dist[v] != wantDist {
					t.Errorf("Dist[%d] = %d, want %d", v, forest.Dist[v], wantDist)
				}
			}
		})
	}
}

func TestRunPartBFSTruncation(t *testing.T) {
	g := gen.Path(10)
	leaderOf := make([]graph.NodeID, 10)
	for v := range leaderOf {
		leaderOf[v] = 9 // one part: whole path, rooted at the far end
	}
	forest, _, err := RunPartBFS(g, leaderOf, 3, seq(1000))
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 10; v++ {
		want := int32(9 - v)
		if want > 3 {
			want = graph.Unreached
		}
		if forest.Dist[v] != want {
			t.Errorf("Dist[%d] = %d, want %d", v, forest.Dist[v], want)
		}
	}
}

func TestRunEnumerate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := gen.ErdosRenyi(40, 0.1, rng)
	tree, _, err := RunBFS(g, 0, seq(1000))
	if err != nil {
		t.Fatal(err)
	}
	marked := make([]bool, 40)
	wantMarked := 0
	for v := range marked {
		if v%3 == 0 {
			marked[v] = true
			wantMarked++
		}
	}
	for _, r := range engines(1000) {
		t.Run(r.name, func(t *testing.T) {
			res, _, err := RunEnumerate(g, tree, marked, r.eng)
			if err != nil {
				t.Fatal(err)
			}
			if res.Total != int64(wantMarked) {
				t.Fatalf("Total = %d, want %d", res.Total, wantMarked)
			}
			seen := make(map[int64]bool)
			for v := 0; v < 40; v++ {
				idx := res.Index[v]
				if marked[v] {
					if idx < 0 || idx >= int64(wantMarked) {
						t.Errorf("Index[%d] = %d out of range", v, idx)
					}
					if seen[idx] {
						t.Errorf("Index %d assigned twice", idx)
					}
					seen[idx] = true
				} else if idx != -1 {
					t.Errorf("unmarked node %d got index %d", v, idx)
				}
			}
		})
	}
}

// doubleSender violates the CONGEST constraint by sending twice on port 0.
type doubleSender struct{}

func (doubleSender) Init(v *View, out *Outbox) {
	if v.ID() == 0 && v.Degree() > 0 {
		out.Send(0, Message{Kind: 99})
		out.Send(0, Message{Kind: 99})
	}
}
func (doubleSender) Round(int, *View, []Inbound, *Outbox) {}
func (doubleSender) Done() bool                           { return true }

func TestBandwidthViolationDetected(t *testing.T) {
	g := gen.Path(3)
	for _, r := range engines(10) {
		t.Run(r.name, func(t *testing.T) {
			_, _, err := r.eng.Run(g, func(*View) Program { return doubleSender{} })
			if !errors.Is(err, ErrBandwidth) {
				t.Errorf("err = %v, want ErrBandwidth", err)
			}
		})
	}
}

// chatterbox never terminates: it broadcasts every round.
type chatterbox struct{}

func (chatterbox) Init(v *View, out *Outbox) { out.Broadcast(v, Message{Kind: 1}) }
func (chatterbox) Round(_ int, v *View, _ []Inbound, out *Outbox) {
	out.Broadcast(v, Message{Kind: 1})
}
func (chatterbox) Done() bool { return true }

func TestMaxRoundsEnforced(t *testing.T) {
	g := gen.Cycle(4)
	for _, r := range engines(20) {
		t.Run(r.name, func(t *testing.T) {
			_, _, err := r.eng.Run(g, func(*View) Program { return chatterbox{} })
			if !errors.Is(err, ErrMaxRounds) {
				t.Errorf("err = %v, want ErrMaxRounds", err)
			}
		})
	}
}

func TestViewLocality(t *testing.T) {
	g := gen.Cycle(5)
	var captured *View
	factory := func(v *View) Program {
		if v.ID() == 2 {
			captured = v
		}
		return &bfsNode{root: 0, tag: -1, maxDepth: -1}
	}
	if _, _, err := seq(100).Run(g, factory); err != nil {
		t.Fatal(err)
	}
	if captured.Degree() != 2 {
		t.Errorf("Degree = %d, want 2", captured.Degree())
	}
	if captured.NumNodes() != 5 {
		t.Errorf("NumNodes = %d, want 5", captured.NumNodes())
	}
	n1, n2 := captured.Neighbor(0), captured.Neighbor(1)
	if !((n1 == 1 && n2 == 3) || (n1 == 3 && n2 == 1)) {
		t.Errorf("neighbors = %d,%d, want 1,3", n1, n2)
	}
}

func TestStatsAdd(t *testing.T) {
	s := Stats{Rounds: 3, Messages: 10}
	s.Add(Stats{Rounds: 2, Messages: 5})
	if s.Rounds != 5 || s.Messages != 15 {
		t.Errorf("Add: %+v", s)
	}
}
