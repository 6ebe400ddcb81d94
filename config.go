package repro

import (
	"math/rand"
	"time"

	"repro/internal/mincut"
	"repro/internal/obs"
	"repro/internal/reproerr"
)

// Config is the single options record of the facade, assembled from
// functional options by every context-first entry point. One Config
// vocabulary spans the whole facade — shortcut constructions, the
// application family (MST, min cut, SSSP, 2-ECSS), snapshot builds, servers,
// and raw CONGEST runs. Fields are exported for introspection; callers
// normally never touch a Config directly:
//
//	res, err := repro.MSTDistributedCtx(ctx, g, w,
//	    repro.WithSeed(42), repro.WithDiameter(6))
//
// Zero values mean "use the entry point's default". Options that do not
// apply to an entry point are ignored by it (WithExecutors on a shortcut
// build, say), so one option list can drive a whole pipeline.
//
// The vocabulary holds the paper's parameters and ablation knobs (Reps,
// Radius, Eps, SamplingBoost, Baseline, …), deployment settings
// (Executors, QueueDepth, RequestTimeout, …) and execution controls
// (MaxRounds, Metrics, …). The construction's own constants —
// the BFS truncation depth factor, the congestion cap, the snapshot's
// dilation cutoff — are fixed where they are used, not options.
type Config struct {
	// Seed seeds the deterministic randomness when HasSeed is set: the
	// entry point derives a *rand.Rand via splitmix64, so equal seeds give
	// bit-identical results everywhere.
	Seed    uint64
	HasSeed bool
	// Diameter is the assumed graph diameter D (0 = double-sweep estimate);
	// KnownDiameter skips the distributed construction's guessing loop.
	Diameter      int
	KnownDiameter int
	// MaxRounds bounds every simulated phase (0 = generous default).
	MaxRounds int
	// Eps tightens the min-cut approximation by packing ⌈DefaultTrees/Eps⌉
	// trees (0 = default count); an explicit Trees wins over Eps.
	Eps   float64
	Trees int
	// SamplingBoost scales the log n term of the sampling probability
	// (0 = the paper's constant 1.0).
	SamplingBoost float64
	// Reps is the number of sampling repetitions (0 = the paper's D);
	// Radius restricts the local variant's sampling horizon (0 = ⌈D/2⌉).
	Reps   int
	Radius int
	// Baseline selects GH16 baseline shortcuts inside the distributed MST;
	// DistributedAccounting charges simulated rounds in the min-cut /
	// 2-ECSS reductions and the snapshot build.
	Baseline              bool
	DistributedAccounting bool
	// Tree supplies a prebuilt spanning tree (a snapshot's shortcut-MST):
	// 2-ECSS skips its tree phase, min cut uses it as packed tree #1.
	Tree []EdgeID
	// Executors sizes a server's executor pool (0 = GOMAXPROCS);
	// ServerSeed derives per-query randomness (0 = from Seed, else 1).
	Executors  int
	ServerSeed int64
	// NoMmap forces snapshot loads onto the portable heap read instead of
	// the zero-copy mmap fast path; SkipSnapshotVerify skips checksum and
	// structural verification on load (trusted artifacts only). Zero values
	// are the defaults: mmap on, verification on.
	NoMmap             bool
	SkipSnapshotVerify bool
	// Metrics attaches an observability registry (WithMetrics) to servers,
	// stores, and snapshot loads; nil = uninstrumented.
	Metrics *obs.Registry
	// QueueDepth and RequestTimeout configure the gateway front end
	// (NewGateway): admission capacity before shedding and the default
	// per-request deadline. Zero values are the gateway defaults:
	// 4× executors, no deadline.
	QueueDepth     int
	RequestTimeout time.Duration

	err error // first invalid option, reported by the entry point
}

// Option mutates a Config; all v2 entry points accept a list of them.
type Option func(*Config)

// NewConfig assembles a Config from options, returning the first invalid
// option as a *Error with KindInvalidInput.
func NewConfig(opts ...Option) (Config, error) {
	var c Config
	for _, o := range opts {
		if o != nil {
			o(&c)
		}
	}
	return c, c.err
}

func (c *Config) fail(format string, args ...any) {
	if c.err == nil {
		c.err = reproerr.Invalid("repro.Config", format, args...)
	}
}

// WithSeed seeds all randomness deterministically: the entry point derives
// its *rand.Rand from seed via splitmix64. Equal seeds give bit-identical
// results on every entry point.
func WithSeed(seed uint64) Option {
	return func(c *Config) { c.Seed, c.HasSeed = seed, true }
}

// WithDiameter sets the assumed diameter D (0 = double-sweep estimate).
func WithDiameter(d int) Option {
	return func(c *Config) {
		if d < 0 {
			c.fail("diameter %d < 0", d)
			return
		}
		c.Diameter = d
	}
}

// WithKnownDiameter skips the distributed construction's diameter-guessing
// loop (the paper's "assuming the knowledge of D" variant).
func WithKnownDiameter(d int) Option {
	return func(c *Config) {
		if d < 0 {
			c.fail("known diameter %d < 0", d)
			return
		}
		c.KnownDiameter = d
	}
}

// WithMaxRounds bounds every simulated phase; exceeding it yields a
// KindBudgetExceeded error wrapping the engine/scheduler sentinel.
func WithMaxRounds(n int) Option {
	return func(c *Config) {
		if n < 0 {
			c.fail("max rounds %d < 0", n)
			return
		}
		c.MaxRounds = n
	}
}

// WithEps tightens the min-cut approximation (see Config.Eps). The packed
// tree count grows as 1/eps, so only 0 or a finite eps ≥ 0.01 is valid —
// the same rule the serving layer and the gateway apply to MinCutQuery.
func WithEps(eps float64) Option {
	return func(c *Config) {
		if err := mincut.CheckEps(eps); err != nil {
			c.fail("%v", err)
			return
		}
		c.Eps = eps
	}
}

// WithTrees sets the min-cut packed-tree count explicitly (wins over Eps).
func WithTrees(k int) Option {
	return func(c *Config) {
		if k < 0 {
			c.fail("trees %d < 0", k)
			return
		}
		c.Trees = k
	}
}

// WithSamplingBoost scales the sampling probability's log n term (0 = the
// paper's constant).
func WithSamplingBoost(f float64) Option {
	return func(c *Config) {
		if !(f >= 0) { // NaN fails too
			c.fail("sampling boost %v is not >= 0", f)
			return
		}
		c.SamplingBoost = f
	}
}

// WithReps sets the sampling repetitions (0 = the paper's D).
func WithReps(n int) Option {
	return func(c *Config) {
		if n < 0 {
			c.fail("reps %d < 0", n)
			return
		}
		c.Reps = n
	}
}

// WithRadius restricts the local variant's sampling horizon (0 = ⌈D/2⌉).
func WithRadius(r int) Option {
	return func(c *Config) {
		if r < 0 {
			c.fail("radius %d < 0", r)
			return
		}
		c.Radius = r
	}
}

// WithBaseline selects the GH16 O(D+√n) baseline shortcuts inside the
// distributed MST (experiment E6's comparison arm).
func WithBaseline(on bool) Option { return func(c *Config) { c.Baseline = on } }

// WithDistributedAccounting charges simulated rounds in the min-cut /
// 2-ECSS reductions by computing each tree through the distributed
// shortcut-MST, and in NewSnapshotCtx by running that simulation after the
// build to record its rounds, messages and phases and the marginal rounds
// and messages of every sssp answer. Off by default: the trees come from
// centralized code, and the simulated cost is zero.
func WithDistributedAccounting(on bool) Option {
	return func(c *Config) { c.DistributedAccounting = on }
}

// WithTree supplies a prebuilt spanning tree (see Config.Tree).
func WithTree(tree []EdgeID) Option { return func(c *Config) { c.Tree = tree } }

// WithExecutors sizes a server's executor pool (0 = GOMAXPROCS).
func WithExecutors(n int) Option {
	return func(c *Config) {
		if n < 0 {
			c.fail("executors %d < 0", n)
			return
		}
		c.Executors = n
	}
}

// WithServerSeed derives a server's per-query randomness (0 = from
// WithSeed when given, else the server default).
func WithServerSeed(seed int64) Option { return func(c *Config) { c.ServerSeed = seed } }

// WithMmap toggles the zero-copy mmap fast path on snapshot loads (on by
// default). Passing false forces the portable heap read — same snapshot,
// no file mapping held open.
func WithMmap(on bool) Option { return func(c *Config) { c.NoMmap = !on } }

// WithSnapshotVerify toggles checksum and structural verification on
// snapshot loads (on by default). Passing false skips the deep scans —
// the fast path for artifacts this process just wrote; corrupt bytes then
// surface as wrong answers rather than load errors, except in the tree
// edge list, which every load checks while deriving the tree index.
func WithSnapshotVerify(on bool) Option {
	return func(c *Config) { c.SkipSnapshotVerify = !on }
}

// WithMetrics attaches an observability registry (NewMetrics) to the entry
// point: servers record per-kind latency, queue wait, executor utilization,
// coalescing, and per-execution traces; stores record swap
// count/latency, drain waits, lease pins, and stale rejections; snapshot
// loads record load path, bytes, and verify time. One registry can span
// the whole serving stack — registration is idempotent, so sharing is
// free. All instrument writes are atomic arithmetic on preallocated state:
// the warm serve paths keep their 0 allocs/op with metrics attached.
func WithMetrics(reg *Metrics) Option { return func(c *Config) { c.Metrics = reg } }

// WithQueueDepth caps a gateway's admission pool: the number of requests
// admitted at once. Requests beyond it are shed immediately with 429 /
// KindBudgetExceeded (0 = 4× the server's executor pool).
func WithQueueDepth(n int) Option {
	return func(c *Config) {
		if n < 0 {
			c.fail("queue depth %d < 0", n)
			return
		}
		c.QueueDepth = n
	}
}

// WithRequestTimeout bounds gateway requests that carry no Request-Timeout
// header (0 = no implicit deadline).
func WithRequestTimeout(d time.Duration) Option {
	return func(c *Config) {
		if d < 0 {
			c.fail("request timeout %v < 0", d)
			return
		}
		c.RequestTimeout = d
	}
}

// splitmix64 is the SplitMix64 finalizer — the derivation behind WithSeed
// and the server's per-query randomness.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// rng returns the configured randomness source: a splitmix64-derived
// source for WithSeed, or nil (entry points that need randomness then
// report the uniform KindInvalidInput error).
func (c *Config) rng() *rand.Rand {
	if c.HasSeed {
		return rand.New(rand.NewSource(int64(splitmix64(c.Seed) >> 1)))
	}
	return nil
}

// serverSeed resolves the per-query determinism seed for servers.
func (c *Config) serverSeed() int64 {
	if c.ServerSeed != 0 {
		return c.ServerSeed
	}
	if c.HasSeed {
		return int64(splitmix64(c.Seed+1) >> 1)
	}
	return 0
}

// mincutTrees resolves the packed-tree count from Trees/Eps for n nodes
// (the same Eps→count rule the serving layer's MinCutQuery uses).
func (c *Config) mincutTrees(n int) int {
	if c.Trees > 0 {
		return c.Trees
	}
	if c.Eps > 0 {
		return mincut.TreesForEps(n, c.Eps)
	}
	return 0 // entry point default
}
