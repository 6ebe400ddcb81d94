package repro_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro"
	"repro/internal/gen"
)

// v2Fixture builds the shared graph/weights/partition the facade tests run
// over.
type v2Fixture struct {
	g     *repro.Graph
	w     repro.Weights
	parts [][]repro.NodeID
	p     *repro.Partition
}

func makeV2Fixture(t *testing.T) *v2Fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	g, err := repro.ClusterChain(600, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := repro.VoronoiParts(g, 12, rng)
	if err != nil {
		t.Fatal(err)
	}
	p, err := repro.NewPartition(g, parts)
	if err != nil {
		t.Fatal(err)
	}
	return &v2Fixture{g: g, w: repro.UniformWeights(g, rng), parts: parts, p: p}
}

func rngAt(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// makeTwoECSSGraph builds a guaranteed 2-edge-connected input (a cycle plus
// distance-2 chords) for the 2-ECSS entry points.
func makeTwoECSSGraph(t *testing.T) (*repro.Graph, repro.Weights) {
	t.Helper()
	const n = 120
	var edges [][2]repro.NodeID
	for i := 0; i < n; i++ {
		edges = append(edges, [2]repro.NodeID{repro.NodeID(i), repro.NodeID((i + 1) % n)})
		edges = append(edges, [2]repro.NodeID{repro.NodeID(i), repro.NodeID((i + 2) % n)})
	}
	g, err := repro.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g, repro.UniformWeights(g, rngAt(8))
}

// TestV2SeedDeterminism asserts WithSeed is a complete replacement for raw
// *rand.Rand plumbing: equal seeds give bit-identical results, different
// seeds (generically) different samplings, with no shared mutable state
// between calls.
func TestV2SeedDeterminism(t *testing.T) {
	fx := makeV2Fixture(t)
	ctx := context.Background()
	opts := func(seed uint64) []repro.Option {
		return []repro.Option{repro.WithDiameter(5), repro.WithSamplingBoost(0.3), repro.WithSeed(seed)}
	}
	a, err := repro.BuildShortcutsCtx(ctx, fx.g, fx.p, opts(42)...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := repro.BuildShortcutsCtx(ctx, fx.g, fx.p, opts(42)...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.H, b.H) {
		t.Fatal("same seed produced different shortcuts")
	}
	c, err := repro.BuildShortcutsCtx(ctx, fx.g, fx.p, opts(43)...)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.H, c.H) {
		t.Fatal("different seeds produced identical samplings (suspicious)")
	}

	m1, err := repro.MSTDistributedCtx(ctx, fx.g, fx.w, opts(42)...)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := repro.MSTDistributedCtx(ctx, fx.g, fx.w, opts(42)...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1.Tree, m2.Tree) || m1.Rounds != m2.Rounds {
		t.Fatal("same seed produced different MSTs")
	}
}

// TestV2ErrorTaxonomy asserts every validation failure across the facade
// satisfies errors.As(err, **repro.Error) with KindInvalidInput: the
// uniform randomness-requirement message, invalid option values (NaN
// included), a partition built over another graph, and a WithTree that is
// not a spanning tree.
func TestV2ErrorTaxonomy(t *testing.T) {
	fx := makeV2Fixture(t)
	ctx := context.Background()

	missingRng := map[string]func() error{
		"BuildShortcutsCtx": func() error {
			_, err := repro.BuildShortcutsCtx(ctx, fx.g, fx.p)
			return err
		},
		"BuildShortcutsDistributedCtx": func() error {
			_, err := repro.BuildShortcutsDistributedCtx(ctx, fx.g, fx.p)
			return err
		},
		"BuildShortcutsLocalCtx": func() error {
			_, err := repro.BuildShortcutsLocalCtx(ctx, fx.g, fx.p)
			return err
		},
		"MSTDistributedCtx": func() error {
			_, err := repro.MSTDistributedCtx(ctx, fx.g, fx.w)
			return err
		},
		"SSSPApproxCtx": func() error {
			_, err := repro.SSSPApproxCtx(ctx, fx.g, fx.w, 0)
			return err
		},
		"MinCutApproxCtx": func() error {
			_, err := repro.MinCutApproxCtx(ctx, fx.g, fx.w)
			return err
		},
		"TwoECSSCtx": func() error {
			_, err := repro.TwoECSSCtx(ctx, fx.g, fx.w)
			return err
		},
		"NewSnapshotCtx": func() error {
			_, err := repro.NewSnapshotCtx(ctx, fx.g, fx.w, fx.parts)
			return err
		},
	}
	var firstMsg string
	for name, call := range missingRng {
		err := call()
		if err == nil {
			t.Errorf("%s: no error without randomness", name)
			continue
		}
		var re *repro.Error
		if !errors.As(err, &re) {
			t.Errorf("%s: %v is not a *repro.Error", name, err)
			continue
		}
		if re.Kind != repro.KindInvalidInput {
			t.Errorf("%s: kind %v, want KindInvalidInput", name, re.Kind)
		}
		// Uniform message: every entry point shares one cause string.
		if firstMsg == "" {
			firstMsg = re.Err.Error()
		} else if re.Err.Error() != firstMsg {
			t.Errorf("%s: cause %q differs from %q", name, re.Err.Error(), firstMsg)
		}
	}

	// twoecss with a prebuilt tree needs no randomness — the deterministic
	// member of the family keeps working under the shared validation.
	tg, tw := makeTwoECSSGraph(t)
	mres, err := repro.MSTDistributedCtx(ctx, tg, tw, repro.WithSeed(1), repro.WithSamplingBoost(0.3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repro.TwoECSSCtx(ctx, tg, tw, repro.WithTree(mres.Tree)); err != nil {
		t.Errorf("TwoECSSCtx with prebuilt tree should not need randomness: %v", err)
	}

	// Invalid option values fail at config time with the same taxonomy; NaN
	// fails every float option exactly like a negative value, before it can
	// reach the sampling loop. An eps below mincut's floor, or +Inf, fails
	// too: the packed tree count is DefaultTrees/eps, which overflows at
	// 1e-300 and is 22e9 trees at 1e-9.
	nan := math.NaN()
	configErr := func(o repro.Option) error {
		_, err := repro.NewConfig(o)
		return err
	}
	_, errDiameter := repro.MSTDistributedCtx(ctx, fx.g, fx.w, repro.WithSeed(1), repro.WithDiameter(-1))
	_, errBoost := repro.BuildShortcutsCtx(ctx, fx.g, fx.p, repro.WithSeed(1), repro.WithSamplingBoost(nan))
	invalid := map[string]error{
		"negative diameter":                    errDiameter,
		"NaN eps":                              configErr(repro.WithEps(nan)),
		"NaN sampling boost":                   configErr(repro.WithSamplingBoost(nan)),
		"tiny eps 1e-9":                        configErr(repro.WithEps(1e-9)),
		"tiny eps 1e-300":                      configErr(repro.WithEps(1e-300)),
		"infinite eps":                         configErr(repro.WithEps(math.Inf(1))),
		"BuildShortcutsCtx NaN sampling boost": errBoost,
	}

	// A partition built over another graph indexes that graph's nodes; every
	// shortcut entry point rejects it, whichever graph is larger.
	pathPartition := func(n int) (*repro.Graph, *repro.Partition) {
		g := gen.Path(n)
		p, err := repro.NewPartition(g, gen.PathSegments(n, n/2))
		if err != nil {
			t.Fatal(err)
		}
		return g, p
	}
	g5, p5 := pathPartition(5)
	g10, p10 := pathPartition(10)
	for entry, build := range map[string]func(*repro.Graph, *repro.Partition) error{
		"BuildShortcutsCtx": func(g *repro.Graph, p *repro.Partition) error {
			_, err := repro.BuildShortcutsCtx(ctx, g, p, repro.WithSeed(1))
			return err
		},
		"BuildShortcutsDeterministicCtx": func(g *repro.Graph, p *repro.Partition) error {
			_, err := repro.BuildShortcutsDeterministicCtx(ctx, g, p)
			return err
		},
		"BuildShortcutsLocalCtx": func(g *repro.Graph, p *repro.Partition) error {
			_, err := repro.BuildShortcutsLocalCtx(ctx, g, p, repro.WithSeed(1))
			return err
		},
		"BuildShortcutsDistributedCtx": func(g *repro.Graph, p *repro.Partition) error {
			_, err := repro.BuildShortcutsDistributedCtx(ctx, g, p, repro.WithSeed(1))
			return err
		},
	} {
		invalid[entry+" 10-node partition on a 5-node graph"] = build(g5, p10)
		invalid[entry+" 5-node partition on a 10-node graph"] = build(g10, p5)
	}

	var re *repro.Error
	for name, err := range invalid {
		if !errors.As(err, &re) || re.Kind != repro.KindInvalidInput {
			t.Errorf("%s: want KindInvalidInput *Error, got %v", name, err)
		}
	}

	// A WithTree that is not a spanning tree is rejected by name before it
	// reaches the engines, on both entry points that take one.
	outOfRange := append([]repro.EdgeID(nil), mres.Tree...)
	outOfRange[0] = 1 << 20
	for name, tree := range map[string][]repro.EdgeID{
		"out-of-range ID": outOfRange,
		"duplicated edge": make([]repro.EdgeID, len(mres.Tree)), // n−1 copies of edge 0
		"short":           mres.Tree[:len(mres.Tree)-1],
	} {
		_, errCut := repro.MinCutApproxCtx(ctx, tg, tw, repro.WithSeed(1), repro.WithTree(tree))
		_, errECSS := repro.TwoECSSCtx(ctx, tg, tw, repro.WithTree(tree))
		for entry, err := range map[string]error{"MinCutApproxCtx": errCut, "TwoECSSCtx": errECSS} {
			if !errors.As(err, &re) || re.Kind != repro.KindInvalidInput || re.Op != "repro.WithTree" {
				t.Errorf("%s, %s tree: want KindInvalidInput from repro.WithTree, got %v", entry, name, err)
			}
		}
	}

	// Weight validation is typed too.
	_, err = repro.MSTDistributedCtx(ctx, fx.g, fx.w[:1], repro.WithSeed(1))
	if !errors.As(err, &re) || re.Kind != repro.KindInvalidInput {
		t.Errorf("short weights: want KindInvalidInput *Error, got %v", err)
	}
}

// TestV2BudgetExceededTaxonomy asserts round-budget overruns carry
// KindBudgetExceeded and still satisfy the legacy sentinel errors.Is.
func TestV2BudgetExceededTaxonomy(t *testing.T) {
	fx := makeV2Fixture(t)
	_, err := repro.MSTDistributedCtx(context.Background(), fx.g, fx.w,
		repro.WithSeed(1), repro.WithDiameter(5), repro.WithSamplingBoost(0.3), repro.WithMaxRounds(1))
	if err == nil {
		t.Fatal("MaxRounds=1 completed")
	}
	var re *repro.Error
	if !errors.As(err, &re) || re.Kind != repro.KindBudgetExceeded {
		t.Fatalf("want KindBudgetExceeded, got %v", err)
	}
	if !errors.Is(err, repro.ErrSchedMaxRounds) && !errors.Is(err, repro.ErrEngineMaxRounds) {
		t.Fatalf("budget error lost its sentinel: %v", err)
	}
}

// TestV2SnapshotAccounting pins WithDistributedAccounting on the snapshot
// build: off by default, the build simulates nothing — zero simulated cost
// and phases, and WithMaxRounds has no rounds to bound — while on, it
// records the simulated shortcut-MST's cost (and a round budget applies).
// The served tree is the same either way.
func TestV2SnapshotAccounting(t *testing.T) {
	fx := makeV2Fixture(t)
	ctx := context.Background()
	opts := []repro.Option{repro.WithSeed(3), repro.WithDiameter(5), repro.WithSamplingBoost(0.3)}
	plain, err := repro.NewSnapshotCtx(ctx, fx.g, fx.w, fx.parts, append(opts, repro.WithMaxRounds(1))...)
	if err != nil {
		t.Fatal(err)
	}
	if c := plain.Cost(); c.Wall <= 0 || c != (repro.Cost{Wall: c.Wall}) || plain.Phases() != 0 {
		t.Fatalf("default build Cost %+v, %d phases; want wall time only", c, plain.Phases())
	}
	sim, err := repro.NewSnapshotCtx(ctx, fx.g, fx.w, fx.parts, append(opts, repro.WithDistributedAccounting(true))...)
	if err != nil {
		t.Fatal(err)
	}
	if c := sim.Cost(); c.Rounds == 0 || c.Messages == 0 || sim.Phases() == 0 {
		t.Fatalf("accounted build Cost %+v, %d phases; want the simulated MST's", c, sim.Phases())
	}
	if !reflect.DeepEqual(plain.Tree(), sim.Tree()) || plain.TreeWeight() != sim.TreeWeight() {
		t.Fatal("accounting changed the served tree")
	}
	_, err = repro.NewSnapshotCtx(ctx, fx.g, fx.w, fx.parts,
		append(opts, repro.WithDistributedAccounting(true), repro.WithMaxRounds(1))...)
	if repro.ErrorKindOf(err) != repro.KindBudgetExceeded {
		t.Fatalf("accounted build under WithMaxRounds(1): got %v, want KindBudgetExceeded", err)
	}
}

// TestV2FacadeCancellation asserts the facade's context-first entry points
// abort on a canceled context with the canceled taxonomy.
func TestV2FacadeCancellation(t *testing.T) {
	fx := makeV2Fixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := []repro.Option{repro.WithSeed(1), repro.WithDiameter(5), repro.WithSamplingBoost(0.3)}

	if _, err := repro.NewSnapshotCtx(ctx, fx.g, fx.w, fx.parts, opts...); !errors.Is(err, context.Canceled) {
		t.Errorf("NewSnapshotCtx: got %v", err)
	}
	if _, err := repro.MSTDistributedCtx(ctx, fx.g, fx.w, opts...); !errors.Is(err, context.Canceled) {
		t.Errorf("MSTDistributedCtx: got %v", err)
	}
	if _, err := repro.BuildShortcutsDistributedCtx(ctx, fx.g, fx.p, opts...); !errors.Is(err, context.Canceled) {
		t.Errorf("BuildShortcutsDistributedCtx: got %v", err)
	}
	if _, _, err := repro.RunCongestCtx(ctx, fx.g, nopFactory, opts...); !errors.Is(err, context.Canceled) {
		t.Errorf("RunCongestCtx: got %v", err)
	}
	if err := repro.ErrorKindOf(ctxErrOf(t, fx)); err != repro.KindCanceled {
		t.Errorf("ErrorKindOf: got %v, want KindCanceled", err)
	}
}

// floodProg floods the maximum node ID: a deterministic multi-round
// program every worker setting must run identically.
type floodProg struct {
	max int64
}

func (f *floodProg) Init(v *repro.CongestView, out *repro.CongestOutbox) {
	f.max = int64(v.ID())
	out.Broadcast(v, repro.CongestMessage{A: f.max})
}

func (f *floodProg) Round(_ int, v *repro.CongestView, in []repro.CongestInbound, out *repro.CongestOutbox) {
	improved := false
	for _, m := range in {
		if m.Msg.A > f.max {
			f.max = m.Msg.A
			improved = true
		}
	}
	if improved {
		out.Broadcast(v, repro.CongestMessage{A: f.max})
	}
}

func (f *floodProg) Done() bool { return true }

// TestV2RunCongest runs a multi-round program through RunCongestCtx and
// checks that it converges: every node ends on the maximum node ID.
func TestV2RunCongest(t *testing.T) {
	g, err := repro.ClusterChain(600, 5, rngAt(11))
	if err != nil {
		t.Fatal(err)
	}
	factory := func(*repro.CongestView) repro.CongestProgram { return &floodProg{} }
	st, progs, err := repro.RunCongestCtx(context.Background(), g, factory, repro.WithMaxRounds(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds <= 1 || st.Messages == 0 {
		t.Fatalf("degenerate run: %+v", st)
	}
	for _, p := range progs {
		if p.(*floodProg).max != int64(g.NumNodes()-1) {
			t.Fatal("flood did not converge to the max ID")
		}
	}
}

func ctxErrOf(t *testing.T, fx *v2Fixture) error {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := repro.MSTDistributedCtx(ctx, fx.g, fx.w, repro.WithSeed(1), repro.WithDiameter(5), repro.WithSamplingBoost(0.3))
	return err
}

// nopFactory keeps one message bouncing so the engine reaches a round
// barrier (where the context check lives) before quiescing.
func nopFactory(v *repro.CongestView) repro.CongestProgram { return pingProg{} }

type pingProg struct{}

func (pingProg) Init(v *repro.CongestView, out *repro.CongestOutbox) {
	out.Broadcast(v, repro.CongestMessage{Kind: 1})
}

func (pingProg) Round(round int, v *repro.CongestView, in []repro.CongestInbound, out *repro.CongestOutbox) {
	if round < 4 {
		out.Broadcast(v, repro.CongestMessage{Kind: 1})
	}
}

func (pingProg) Done() bool { return true }

// TestV2ApplyDelta pins the facade's dynamic-graph surface: ApplyDeltaCtx
// produces a snapshot bit-identical (tree, weight, quality) to a
// from-scratch NewSnapshotCtx on the post-delta graph with the same seed,
// and the Store hot-swap serves it.
func TestV2ApplyDelta(t *testing.T) {
	fx := makeV2Fixture(t)
	ctx := context.Background()
	opts := []repro.Option{repro.WithSeed(11), repro.WithDiameter(5), repro.WithSamplingBoost(0.3)}
	base, err := repro.NewSnapshotCtx(ctx, fx.g, fx.w, fx.parts, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if base.Cost().Wall <= 0 {
		t.Error("snapshot build Cost.Wall not recorded")
	}
	// An insert-only delta is always repairable.
	d, err := gen.InsertDelta(fx.g, 8, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	repaired, err := repro.ApplyDeltaCtx(ctx, base, d)
	if err != nil {
		t.Fatal(err)
	}
	if repaired.Generation() != 1 || repaired.Repair() == nil {
		t.Fatalf("generation %d, repair %+v", repaired.Generation(), repaired.Repair())
	}
	// A delta snapshot's cost is its wall time: the update simulates
	// nothing.
	if c := repaired.Cost(); c.Wall <= 0 || c.Rounds != 0 || c.Messages != 0 || c.SchedStats != (repro.SchedStats{}) {
		t.Errorf("delta Cost %+v, want wall time only", c)
	}
	g2, w2, _, err := repro.ApplyGraphDelta(fx.g, fx.w, d)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := repro.NewSnapshotCtx(ctx, g2, w2, fx.parts, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(repaired.Tree(), rebuilt.Tree()) {
		t.Fatal("repaired tree differs from rebuilt tree")
	}
	if repaired.TreeWeight() != rebuilt.TreeWeight() || repaired.Quality() != rebuilt.Quality() {
		t.Fatalf("repaired %v/%v vs rebuilt %v/%v",
			repaired.TreeWeight(), repaired.Quality(), rebuilt.TreeWeight(), rebuilt.Quality())
	}

	// Hot-swap: a store-backed v2 server answers against the repaired
	// snapshot after SwapCtx drains the base epoch.
	store := repro.NewStore(base)
	srv, err := repro.NewStoreServerV2(store, repro.WithExecutors(2), repro.WithServerSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.ServeCtx(ctx, repro.MSTQuery{}); err != nil {
		t.Fatal(err)
	}
	retired, err := store.SwapCtx(ctx, repaired)
	if err != nil {
		t.Fatal(err)
	}
	if retired != base || store.Epoch() != 2 {
		t.Fatalf("swap: retired %p epoch %d", retired, store.Epoch())
	}
	a, err := srv.ServeCtx(ctx, repro.MSTQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if a.(*repro.MSTAnswer).Weight != repaired.TreeWeight() {
		t.Fatal("store-backed server answered against the retired epoch")
	}
}
