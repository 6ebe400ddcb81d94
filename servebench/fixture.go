package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/twoecss"
)

// fixtureSeed pins the graph, weights and parts of every workload. The
// workload seed varies only what a client would vary (arrivals, roots,
// deltas), so run-to-run spread measures the system rather than how hard a
// particular random graph happens to be.
const fixtureSeed = 20_210_721

// serverSeed is the ServerOptions.Seed of every server the benchmark starts,
// including the reference servers the checker answers with: mincut answers
// depend on it, so both sides must agree.
const serverSeed = 1

// fixture is one workload's input graph: an Erdős–Rényi graph with edge
// probability 12/n, connected and bridge-free (the mixed workload asks
// twoecss queries), with uniform weights and min(64, n/64) Voronoi parts.
type fixture struct {
	n     int
	g     *graph.Graph
	w     graph.Weights
	parts [][]graph.NodeID
	// buildSeed seeds the snapshot build's Rng; the build replay reuses it.
	buildSeed int64
}

func newFixture(n int) (*fixture, error) {
	rng := rand.New(rand.NewSource(fixtureSeed + int64(n)))
	var g *graph.Graph
	for tries := 0; ; tries++ {
		if tries == 100 {
			return nil, fmt.Errorf("fixture: no connected bridge-free graph at n=%d after %d draws", n, tries)
		}
		g = gen.ErdosRenyi(n, 12/float64(n), rng)
		if graph.IsConnected(g) && len(twoecss.Bridges(g, allEdges(g))) == 0 {
			break
		}
	}
	w := graph.NewUniformWeights(g.NumEdges(), rng)
	parts, err := gen.VoronoiParts(g, max(4, min(64, n/64)), rng)
	if err != nil {
		return nil, fmt.Errorf("fixture: parts: %w", err)
	}
	return &fixture{n: n, g: g, w: w, parts: parts, buildSeed: rng.Int63()}, nil
}

func allEdges(g *graph.Graph) []graph.EdgeID {
	edges := make([]graph.EdgeID, g.NumEdges())
	for e := range edges {
		edges[e] = graph.EdgeID(e)
	}
	return edges
}

// build runs the snapshot construction every workload's set-up starts with.
func (fx *fixture) build() (*serve.Snapshot, error) {
	return serve.NewSnapshot(fx.g, fx.w, fx.parts, serve.SnapshotOptions{
		Rng: rand.New(rand.NewSource(fx.buildSeed)),
	})
}

// rowHash folds a distance row's IEEE-754 bits word by word. Each step is a
// bijection of the running state, so rows that differ in a single bit of a
// single distance always hash apart; it costs a few µs per row, cheap enough
// to run on every delivered answer.
func rowHash(row []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, d := range row {
		h ^= math.Float64bits(d)
		h *= 1099511628211
	}
	return h
}

// edgeHash is rowHash over an edge-id list (MST trees, 2-ECSS edge sets).
func edgeHash(edges []graph.EdgeID) uint64 {
	h := uint64(14695981039346656037)
	for _, e := range edges {
		h ^= uint64(uint32(e))
		h *= 1099511628211
	}
	return h
}

// queryKey names a query by kind and argument: the sssp root, the quality
// part, or the mincut eps bits.
func queryKey(q serve.Query) (serve.Kind, int64) {
	switch q := q.(type) {
	case serve.SSSPQuery:
		return serve.KindSSSP, int64(q.Source)
	case serve.MSTQuery:
		return serve.KindMST, 0
	case serve.MinCutQuery:
		return serve.KindMinCut, int64(math.Float64bits(q.Eps))
	case serve.TwoECSSQuery:
		return serve.KindTwoECSS, 0
	case serve.QualityQuery:
		return serve.KindQuality, int64(q.Part)
	}
	panic(fmt.Sprintf("servebench: unknown query type %T", q))
}

// queryOf is queryKey's inverse.
func queryOf(kind serve.Kind, arg int64) serve.Query {
	switch kind {
	case serve.KindSSSP:
		return serve.SSSPQuery{Source: graph.NodeID(arg)}
	case serve.KindMST:
		return serve.MSTQuery{}
	case serve.KindMinCut:
		return serve.MinCutQuery{Eps: math.Float64frombits(uint64(arg))}
	case serve.KindTwoECSS:
		return serve.TwoECSSQuery{}
	}
	return serve.QualityQuery{Part: int(arg)}
}

// numKinds is the number of query kinds (serve.KindSSSP .. KindQuality).
const numKinds = int(serve.KindQuality) + 1
