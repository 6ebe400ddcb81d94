package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/serve"
	"repro/internal/twoecss"
)

// smallSnapshot builds a bridge-free n-node fixture snapshot quickly.
func smallSnapshot(t *testing.T, n int) *serve.Snapshot {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var g *graph.Graph
	for {
		g = gen.ErdosRenyi(n, 12/float64(n), rng)
		if graph.IsConnected(g) && len(twoecss.Bridges(g, allEdges(g))) == 0 {
			break
		}
	}
	w := graph.NewUniformWeights(g.NumEdges(), rng)
	parts, err := gen.VoronoiParts(g, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := serve.NewSnapshot(g, w, parts, serve.SnapshotOptions{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000..1, unsorted on purpose
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500}, {0.99, 990}, {0.9, 900}} {
		got, err := quantile(append([]float64(nil), xs...), c.q)
		if err != nil || got != c.want {
			t.Errorf("quantile(%v) = %v, %v; want %v", c.q, got, err, c.want)
		}
	}
}

func TestQuantileRefusesThinTails(t *testing.T) {
	if _, err := quantile(make([]float64, 999), 0.99); err == nil {
		t.Error("p99 from 999 samples: want an error (fewer than ten samples beyond it)")
	}
	if _, err := quantile(make([]float64, 19), 0.5); err == nil {
		t.Error("p50 from 19 samples: want an error")
	}
	if _, err := quantile(make([]float64, 20), 0.5); err != nil {
		t.Errorf("p50 from 20 samples: %v", err)
	}
}

func TestCheckerFlagsOneBitFlip(t *testing.T) {
	snap := smallSnapshot(t, 200)
	srv := serve.NewServer(snap, serve.ServerOptions{Seed: serverSeed})
	a, err := srv.ServeSSSP(17)
	if err != nil {
		t.Fatal(err)
	}
	ck := newChecker([]*serve.Snapshot{snap})
	ok := observation{kind: serve.KindSSSP, arg: 17, hash: rowHash(a.Dist)}
	if gen, err := ck.attribute(ok); err != nil || gen != 0 {
		t.Fatalf("served row: attributed to %d (%v), want generation 0", gen, err)
	}
	for _, bit := range []uint{0, 31, 63} {
		row := append([]float64(nil), a.Dist...)
		row[42] = math.Float64frombits(math.Float64bits(row[42]) ^ 1<<bit)
		bad := observation{kind: serve.KindSSSP, arg: 17, hash: rowHash(row)}
		if gen, err := ck.attribute(bad); err != nil || gen != -1 {
			t.Errorf("row with bit %d of one distance flipped: attributed to %d (%v), want wrong", bit, gen, err)
		}
	}
}

func TestCheckerFlagsMinCutFromWrongGeneration(t *testing.T) {
	g0 := smallSnapshot(t, 120)
	// Make the lightest vertex heavy: its cut was the minimum, so the next
	// generation's minimum cut has another side.
	g, w := g0.Graph(), g0.Weights()
	light, lightW := graph.NodeID(0), math.Inf(1)
	deg := make([]float64, g.NumNodes())
	for e := 0; e < g.NumEdges(); e++ {
		u, v := g.EdgeEndpoints(graph.EdgeID(e))
		deg[u] += w[e]
		deg[v] += w[e]
	}
	for v, d := range deg {
		if d < lightW {
			light, lightW = graph.NodeID(v), d
		}
	}
	var delta graph.Delta
	for v := graph.NodeID(0); len(delta.Insert) < 3; v++ {
		if v != light && !g.HasEdge(light, v) {
			delta.Insert = append(delta.Insert, graph.DeltaEdge{U: min(light, v), V: max(light, v), W: 50})
		}
	}
	g1, err := serve.ApplyDelta(context.Background(), g0, delta, serve.DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	answer := func(sn *serve.Snapshot) *serve.MinCutAnswer {
		a, err := serve.NewServer(sn, serve.ServerOptions{Seed: serverSeed}).Serve(serve.MinCutQuery{})
		if err != nil {
			t.Fatal(err)
		}
		return a.(*serve.MinCutAnswer)
	}
	a0, a1 := answer(g0), answer(g1)
	if reflect.DeepEqual(a0.Side, a1.Side) {
		t.Fatal("fixture: both generations cut the same side; the test would prove nothing")
	}
	ck := newChecker([]*serve.Snapshot{g0, g1})
	obsOf := func(a *serve.MinCutAnswer, lo, hi int) observation {
		return observation{kind: serve.KindMinCut, arg: int64(math.Float64bits(0)), ans: a, lo: lo, hi: hi}
	}
	cases := []struct {
		name   string
		o      observation
		wantOK bool
	}{
		{"generation 1 answer, window [1,1]", obsOf(a1, 1, 1), true},
		{"generation 1 answer, window [0,1]", obsOf(a1, 0, 1), true},
		{"generation 0 side, window [1,1]", obsOf(a0, 1, 1), false},
		{"generation 0 side with generation 1 value", obsOf(&serve.MinCutAnswer{Value: a1.Value, Side: a0.Side, Trees: a1.Trees}, 0, 1), false},
	}
	for _, c := range cases {
		gen, err := ck.attribute(c.o)
		if err != nil {
			t.Fatal(err)
		}
		if (gen >= 0) != c.wantOK {
			t.Errorf("%s: attributed to %d, want ok=%v", c.name, gen, c.wantOK)
		}
	}
}

func TestGenWindow(t *testing.T) {
	ups := []update{
		{swapStart: 10 * time.Millisecond, swapEnd: 11 * time.Millisecond},
		{swapStart: 30 * time.Millisecond, swapEnd: 31 * time.Millisecond},
	}
	for _, c := range []struct {
		sent, done time.Duration
		lo, hi     int
	}{
		{0, 5 * time.Millisecond, 0, 0},
		{0, 10500 * time.Microsecond, 0, 1}, // swap 1 may or may not have landed
		{10500 * time.Microsecond, 20 * time.Millisecond, 0, 1},
		{12 * time.Millisecond, 20 * time.Millisecond, 1, 1},
		{12 * time.Millisecond, 40 * time.Millisecond, 1, 2},
	} {
		if lo, hi := genWindow(ups, c.sent, c.done); lo != c.lo || hi != c.hi {
			t.Errorf("genWindow(%v, %v) = [%d,%d], want [%d,%d]", c.sent, c.done, lo, hi, c.lo, c.hi)
		}
	}
}

// TestScheduleDeterminism: a seed fixes the arrivals whichever backend
// replays them — the wire backend's schedule is drawn against the persisted
// and reloaded snapshot, the library's against the built one — and the
// dispatcher records exactly those arrivals.
func TestScheduleDeterminism(t *testing.T) {
	built := smallSnapshot(t, 200)
	path := filepath.Join(t.TempDir(), "s.snap")
	if err := serve.WriteSnapshotFile(path, built); err != nil {
		t.Fatal(err)
	}
	loaded, err := serve.LoadSnapshot(path, serve.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	for _, params := range []func(int64, time.Duration) load.Params{wireParams, mixedParams} {
		a, err := load.BuildSchedule(params(5, 2*time.Second), built)
		if err != nil {
			t.Fatal(err)
		}
		b, err := load.BuildSchedule(params(5, 2*time.Second), loaded)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatal("same seed, built vs loaded snapshot: schedules differ")
		}
		c, err := load.BuildSchedule(params(6, 2*time.Second), built)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.Events, c.Events) {
			t.Fatal("seeds 5 and 6 drew identical arrivals")
		}
	}

	sched, err := load.BuildSchedule(wireParams(5, 100*time.Millisecond), built)
	if err != nil {
		t.Fatal(err)
	}
	replay := func() []request {
		o := &openLoop{events: sched.Events, call: func(context.Context, serve.Query) (load.Completion, serve.Answer, error) {
			return load.Completion{}, nil, nil
		}}
		reqs, _ := o.run(context.Background(), time.Now())
		return reqs
	}
	r1, r2 := replay(), replay()
	if len(r1) != len(sched.Events) || len(r1) == 0 {
		t.Fatalf("dispatched %d of %d arrivals", len(r1), len(sched.Events))
	}
	for i, ev := range sched.Events {
		kind, arg := queryKey(ev.Query)
		for _, r := range []request{r1[i], r2[i]} {
			if r.kind != kind || r.arg != arg || r.due != ev.At || r.outcome != outOK {
				t.Fatalf("arrival %d recorded as %+v, scheduled %v %d at %v", i, r, kind, arg, ev.At)
			}
			if r.sent < r.due {
				t.Fatalf("arrival %d sent %v before it was due at %v", i, r.sent, r.due)
			}
		}
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the printed metrics and the
// benchmark definition in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []unitMetric, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics here, %d in BENCHMARK.json", what, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: %v here, %v in BENCHMARK.json", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", e2eMetrics, def.EndToEnd)
	same("per_layer", layerMetrics, def.PerLayer)
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("%d workloads here, %d in BENCHMARK.json", len(workloads), len(def.Workloads))
	}
	for i, wl := range workloads {
		if def.Workloads[i].Name != wl.name {
			t.Errorf("workload %d: %q here, %q in BENCHMARK.json", i, wl.name, def.Workloads[i].Name)
		}
	}
}
