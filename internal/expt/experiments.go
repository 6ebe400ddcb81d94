package expt

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/shortcut"
)

// Config parameterizes the experiment sweeps. Zero values select the
// defaults used for the recorded EXPERIMENTS.md runs; Quick selects reduced
// sweeps suitable for benchmarks and CI.
type Config struct {
	// Sizes is the n sweep for quality experiments.
	Sizes []int
	// DistSizes is the (smaller) n sweep for fully-simulated experiments.
	DistSizes []int
	// Diameters is the D sweep.
	Diameters []int
	// Seed seeds all randomness (every experiment derives sub-seeds).
	Seed int64
	// LogFactor scales the sampling probability's log n term. The paper's
	// constant (1.0) saturates p at the n reachable on one machine for
	// D ≥ 5 (see EXPERIMENTS.md §Methodology); the default 0.3 keeps the
	// asymptotic shape visible.
	LogFactor float64
	// Quick reduces sweeps for benchmark iterations.
	Quick bool
	// ServeQueries is the number of warm queries fired per E14 serving
	// sweep point (0 = default).
	ServeQueries int
	// ServeExecutors is the executor-pool-size sweep of E14 (nil = default).
	ServeExecutors []int
	// ServeBatches is the batch-size sweep of E14 (nil = default).
	ServeBatches []int
	// ServeAddr, when set (host:port of a running lcsserve), makes E14
	// additionally drive that server over HTTP — the same SSSP workload
	// POSTed to /v1/query — and record wire rows next to the library rows,
	// so the envelope captures the full wire-vs-library overhead.
	ServeAddr string
	// DeltaSizes is the delta-size sweep of E15 (nil = default).
	DeltaSizes []int
	// SnapshotIn, when set, makes E14 load its snapshot from this file
	// instead of paying the cold build; SnapshotOut makes E14 (and E16, for
	// its largest size) persist the built snapshot there, so a later run
	// can skip construction entirely.
	SnapshotIn  string
	SnapshotOut string
	// PersistSizes is the n sweep of E16 (nil = default).
	PersistSizes []int
	// LoadRates is the offered-rate sweep (queries/second) of the E17
	// open-loop load experiment (nil = default).
	LoadRates []float64
	// LoadZipfs is E17's root-skew sweep: each value is the Zipf exponent s
	// for sssp sources (s ≤ 1 = uniform). nil = default.
	LoadZipfs []float64
	// LoadUpdateRates is E17's hot-swap rate sweep in swaps/second; 0 rows
	// measure the static snapshot. nil = default {0, >0}.
	LoadUpdateRates []float64
	// LoadDuration is the open-loop horizon of each E17 scenario (0 =
	// default).
	LoadDuration time.Duration
	// Metrics, when non-nil, attaches the observability registry to the
	// serving-layer experiments (E14's store, servers, and snapshot load):
	// per-kind latency histograms, coalescing counters, epoch-swap
	// counts, and query traces accumulate there for the caller to expose
	// or serialize (lcsbench's -metrics-out flag threads it here). E14
	// also folds the snapshot's simulated build cost in via
	// serve.RecordCost; the construction engines stay observability-free.
	Metrics *obs.Registry
	// Ctx, when non-nil, cancels the heavyweight simulated phases of an
	// experiment cooperatively (lcsbench's -timeout flag threads it here);
	// a canceled experiment returns a reproerr.KindCanceled/KindDeadline
	// error within one simulated round.
	Ctx context.Context
}

// ctx returns the configured context, or Background.
func (c Config) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.LogFactor == 0 {
		c.LogFactor = 0.3
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if len(c.Sizes) == 0 {
		if c.Quick {
			c.Sizes = []int{1000, 2000}
		} else {
			c.Sizes = []int{1000, 2000, 4000, 8000, 16000}
		}
	}
	if len(c.DistSizes) == 0 {
		if c.Quick {
			c.DistSizes = []int{600}
		} else {
			c.DistSizes = []int{500, 1000, 2000, 4000}
		}
	}
	if len(c.Diameters) == 0 {
		if c.Quick {
			c.Diameters = []int{4}
		} else {
			c.Diameters = []int{3, 4, 5, 6, 8}
		}
	}
	// Non-positive serving knobs mean "default", like every other knob.
	c.ServeExecutors = positiveInts(c.ServeExecutors)
	c.ServeBatches = positiveInts(c.ServeBatches)
	if c.ServeQueries <= 0 {
		if c.Quick {
			c.ServeQueries = 32
		} else {
			c.ServeQueries = 256
		}
	}
	if len(c.ServeExecutors) == 0 {
		if c.Quick {
			c.ServeExecutors = []int{1, 2}
		} else {
			c.ServeExecutors = []int{1, 2, 4}
		}
	}
	if len(c.ServeBatches) == 0 {
		if c.Quick {
			c.ServeBatches = []int{1, 8}
		} else {
			c.ServeBatches = []int{1, 8, 32}
		}
	}
	c.DeltaSizes = positiveInts(c.DeltaSizes)
	if len(c.DeltaSizes) == 0 {
		if c.Quick {
			c.DeltaSizes = []int{1, 16}
		} else {
			c.DeltaSizes = []int{1, 16, 64, 256, 1024}
		}
	}
	c.PersistSizes = positiveInts(c.PersistSizes)
	if len(c.PersistSizes) == 0 {
		if c.Quick {
			c.PersistSizes = []int{600}
		} else {
			c.PersistSizes = []int{20_000, 100_000}
		}
	}
	c.LoadRates = positiveFloats(c.LoadRates)
	if len(c.LoadRates) == 0 {
		if c.Quick {
			c.LoadRates = []float64{100, 300}
		} else {
			c.LoadRates = []float64{200, 500, 1000}
		}
	}
	// Zipf 0 (uniform) and update rate 0 (static) are meaningful sweep
	// points, so these two only default when nil.
	if len(c.LoadZipfs) == 0 {
		c.LoadZipfs = []float64{1.1, 2.0}
	}
	if len(c.LoadUpdateRates) == 0 {
		c.LoadUpdateRates = []float64{0, 2}
	}
	if c.LoadDuration <= 0 {
		if c.Quick {
			c.LoadDuration = 2 * time.Second
		} else {
			c.LoadDuration = 4 * time.Second
		}
	}
	return c
}

// positiveInts drops non-positive sweep entries.
func positiveInts(s []int) []int {
	out := s[:0]
	for _, v := range s {
		if v > 0 {
			out = append(out, v)
		}
	}
	return out
}

// positiveFloats drops non-positive sweep entries.
func positiveFloats(s []float64) []float64 {
	out := s[:0]
	for _, v := range s {
		if v > 0 {
			out = append(out, v)
		}
	}
	return out
}

func (c Config) rng(salt int64) *rand.Rand {
	return rand.New(rand.NewSource(c.Seed*1_000_003 + salt))
}

// hardCase builds a hard instance and its path partition.
func hardCase(n, d int, rng *rand.Rand) (*gen.HardInstance, *shortcut.Partition, error) {
	hi, err := gen.NewHardInstance(n, d, 0, 0, rng)
	if err != nil {
		return nil, nil, err
	}
	p, err := shortcut.NewPartition(hi.G, hi.Paths)
	if err != nil {
		return nil, nil, err
	}
	return hi, p, nil
}

// exactCutoff bounds the per-part exact dilation computation.
const exactCutoff = 3000

// E1Quality measures shortcut quality c+d against the theoretical kD curve
// across n and D on hard instances (Theorem 1.1 / figure quality-vs-n).
func E1Quality(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	t := NewTable("E1: shortcut quality vs n (hard instances, paths partition)",
		"D", "n", "kD", "congestion", "dilation", "c+d", "(c+d)/kD", "sqrt(n)")
	type pt struct{ n, q float64 }
	series := make(map[int][]pt)
	for _, d := range cfg.Diameters {
		for _, n := range cfg.Sizes {
			rng := cfg.rng(int64(d*1_000_000 + n))
			hi, p, err := hardCase(n, d, rng)
			if err != nil {
				return nil, fmt.Errorf("E1 D=%d n=%d: %w", d, n, err)
			}
			s, err := shortcut.Build(hi.G, p, shortcut.Options{
				Diameter: d, LogFactor: cfg.LogFactor, Rng: rng, Ctx: cfg.Ctx,
			})
			if err != nil {
				return nil, fmt.Errorf("E1 D=%d n=%d: %w", d, n, err)
			}
			q, err := s.Dilation(exactCutoff)
			if err != nil {
				return nil, fmt.Errorf("E1 D=%d n=%d: %w", d, n, err)
			}
			nn := float64(hi.G.NumNodes())
			t.AddRow(I(d), I(hi.G.NumNodes()), F(s.Params.KD), I(q.Congestion),
				I(int(q.DilationHi)), I(q.Sum()), F(float64(q.Sum())/s.Params.KD), F(math.Sqrt(nn)))
			series[d] = append(series[d], pt{n: nn, q: float64(q.Sum())})
		}
	}
	for _, d := range cfg.Diameters {
		xs := make([]float64, 0, len(series[d]))
		ys := make([]float64, 0, len(series[d]))
		for _, p := range series[d] {
			xs = append(xs, p.n)
			ys = append(ys, p.q)
		}
		want := float64(d-2) / float64(2*d-2)
		t.AddNote("D=%d: measured log-log slope %.3f vs theory exponent (D-2)/(2D-2) = %.3f",
			d, Slope(xs, ys), want)
	}
	return t, nil
}

// E2Rounds measures the simulated round count of the fully distributed
// construction against kD (Theorem 1.1's round bound).
func E2Rounds(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	t := NewTable("E2: distributed construction rounds vs n",
		"D", "n", "kD", "rounds", "rounds/kD", "guesses", "messages")
	for _, d := range cfg.Diameters {
		for _, n := range cfg.DistSizes {
			rng := cfg.rng(int64(2_000_000_000 + d*1_000_000 + n))
			hi, p, err := hardCase(n, d, rng)
			if err != nil {
				return nil, fmt.Errorf("E2 D=%d n=%d: %w", d, n, err)
			}
			res, err := shortcut.BuildDistributed(hi.G, p, shortcut.DistOptions{
				Rng: rng, LogFactor: cfg.LogFactor, KnownDiameter: d, Ctx: cfg.Ctx,
			})
			if err != nil {
				return nil, fmt.Errorf("E2 D=%d n=%d: %w", d, n, err)
			}
			kd := res.S.Params.KD
			t.AddRow(I(d), I(hi.G.NumNodes()), F(kd), I(res.Rounds),
				F(float64(res.Rounds)/kd), I(res.Guesses), fmt.Sprintf("%d", res.Messages))
		}
	}
	t.AddNote("rounds include every simulated phase (election, classification, numbering, scheduled BFS, verification)")
	return t, nil
}

// E3Congestion compares the realized max/99th-percentile edge congestion to
// the Chernoff bound O(Reps·kD·log n) (Section 2's congestion argument).
func E3Congestion(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	t := NewTable("E3: edge congestion vs Chernoff bound",
		"D", "n", "kD", "p", "max-congestion", "p99", "bound 2·Reps·kD·lf·ln n", "max/bound")
	for _, d := range cfg.Diameters {
		for _, n := range cfg.Sizes {
			rng := cfg.rng(int64(3_000_000_000 + d*1_000_000 + n))
			hi, p, err := hardCase(n, d, rng)
			if err != nil {
				return nil, fmt.Errorf("E3 D=%d n=%d: %w", d, n, err)
			}
			s, err := shortcut.Build(hi.G, p, shortcut.Options{
				Diameter: d, LogFactor: cfg.LogFactor, Rng: rng, Ctx: cfg.Ctx,
			})
			if err != nil {
				return nil, fmt.Errorf("E3 D=%d n=%d: %w", d, n, err)
			}
			hist := s.CongestionProfile()
			maxC := len(hist) - 1
			total := 0
			for _, h := range hist {
				total += h
			}
			p99 := 0
			run := 0
			for c, h := range hist {
				run += h
				if float64(run) >= 0.99*float64(total) {
					p99 = c
					break
				}
			}
			nn := float64(hi.G.NumNodes())
			bound := 2 * float64(s.Params.Reps) * s.Params.KD * cfg.LogFactor * math.Log(nn)
			t.AddRow(I(d), I(hi.G.NumNodes()), F(s.Params.KD), F(s.Params.P),
				I(maxC), I(p99), F(bound), F(float64(maxC)/bound))
		}
	}
	return t, nil
}

// E4Dilation isolates the dilation term against the O(kD·log n) bound
// (Theorem 3.1).
func E4Dilation(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	t := NewTable("E4: dilation vs O(kD log n) (Theorem 3.1)",
		"D", "n", "kD", "trivial-dilation", "dilation", "kD*log2(n)", "dil/(kD log n)")
	for _, d := range cfg.Diameters {
		for _, n := range cfg.Sizes {
			rng := cfg.rng(int64(4_000_000_000 + d*1_000_000 + n))
			hi, p, err := hardCase(n, d, rng)
			if err != nil {
				return nil, fmt.Errorf("E4 D=%d n=%d: %w", d, n, err)
			}
			trivial := int(p.MaxPartDiameter())
			s, err := shortcut.Build(hi.G, p, shortcut.Options{
				Diameter: d, LogFactor: cfg.LogFactor, Rng: rng, Ctx: cfg.Ctx,
			})
			if err != nil {
				return nil, fmt.Errorf("E4 D=%d n=%d: %w", d, n, err)
			}
			q, err := s.Dilation(exactCutoff)
			if err != nil {
				return nil, fmt.Errorf("E4 D=%d n=%d: %w", d, n, err)
			}
			nn := float64(hi.G.NumNodes())
			ref := s.Params.KD * math.Log2(nn)
			t.AddRow(I(d), I(hi.G.NumNodes()), F(s.Params.KD), I(trivial),
				I(int(q.DilationHi)), F(ref), F(float64(q.DilationHi)/ref))
		}
	}
	return t, nil
}

// E5Baselines compares our quality with the GH16 O(D+√n) baseline and the
// trivial construction across n, including log-log slopes (the crossover
// figure: exponent (D-2)/(2D-2) < 1/2 for every constant D).
func E5Baselines(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	t := NewTable("E5: ours vs GH16 (O(D+sqrt n)) vs trivial",
		"D", "n", "ours c+d", "GH16 c+d", "trivial c+d", "ours/GH16")
	var ourXs, ourYs, ghXs, ghYs []float64
	for _, d := range cfg.Diameters {
		for _, n := range cfg.Sizes {
			rng := cfg.rng(int64(5_000_000_000 + d*1_000_000 + n))
			hi, p, err := hardCase(n, d, rng)
			if err != nil {
				return nil, fmt.Errorf("E5 D=%d n=%d: %w", d, n, err)
			}
			ours, err := shortcut.Build(hi.G, p, shortcut.Options{
				Diameter: d, LogFactor: cfg.LogFactor, Rng: rng, Ctx: cfg.Ctx,
			})
			if err != nil {
				return nil, fmt.Errorf("E5 D=%d n=%d: %w", d, n, err)
			}
			oursQ, err := ours.Dilation(exactCutoff)
			if err != nil {
				return nil, err
			}
			gh := shortcut.GhaffariHaeupler(p, 0)
			ghQ, err := gh.Dilation(exactCutoff)
			if err != nil {
				return nil, err
			}
			trivial := shortcut.Trivial(p)
			trQ, err := trivial.Dilation(exactCutoff)
			if err != nil {
				return nil, err
			}
			t.AddRow(I(d), I(hi.G.NumNodes()), I(oursQ.Sum()), I(ghQ.Sum()), I(trQ.Sum()),
				F(float64(oursQ.Sum())/float64(ghQ.Sum())))
			nn := float64(hi.G.NumNodes())
			ourXs = append(ourXs, nn)
			ourYs = append(ourYs, float64(oursQ.Sum()))
			ghXs = append(ghXs, nn)
			ghYs = append(ghYs, float64(ghQ.Sum()))
		}
	}
	t.AddNote("pooled log-log slopes: ours %.3f, GH16 %.3f (theory: <1/2 vs 1/2)",
		Slope(ourXs, ourYs), Slope(ghXs, ghYs))
	return t, nil
}

// E9OddEven verifies that the odd-diameter handling (Section 3.2) matches the
// even-diameter quality regime at comparable n.
func E9OddEven(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	t := NewTable("E9: odd vs even diameter handling",
		"D", "parity", "n", "kD", "c+d", "(c+d)/kD")
	ds := []int{3, 4, 5, 6, 7, 8}
	if cfg.Quick {
		ds = []int{3, 4, 5}
	}
	n := cfg.Sizes[len(cfg.Sizes)-1]
	if cfg.Quick {
		n = cfg.Sizes[0]
	}
	for _, d := range ds {
		rng := cfg.rng(int64(9_000_000_000 + d))
		hi, p, err := hardCase(n, d, rng)
		if err != nil {
			return nil, fmt.Errorf("E9 D=%d: %w", d, err)
		}
		s, err := shortcut.Build(hi.G, p, shortcut.Options{
			Diameter: d, LogFactor: cfg.LogFactor, Rng: rng, Ctx: cfg.Ctx,
		})
		if err != nil {
			return nil, fmt.Errorf("E9 D=%d: %w", d, err)
		}
		q, err := s.Dilation(exactCutoff)
		if err != nil {
			return nil, err
		}
		parity := "even"
		if d%2 == 1 {
			parity = "odd"
		}
		t.AddRow(I(d), parity, I(hi.G.NumNodes()), F(s.Params.KD), I(q.Sum()),
			F(float64(q.Sum())/s.Params.KD))
	}
	t.AddNote("odd D uses the √p two-coin sampling of Section 3.2 (distribution-equivalent single draw)")
	return t, nil
}

// E11Walks tabulates Lemma 3.3's walk lengths level by level on sampled
// shortcut trees.
func E11Walks(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	t := NewTable("E11: (i,k)-walk lengths in sampled shortcut trees (Lemma 3.3)",
		"n", "D", "ell", "k", "p", "max walk dist", "bound (4/p)^(k-2)")
	n := cfg.Sizes[0]
	d := 4
	rng := cfg.rng(11_000_000_000)
	hi, err := gen.NewHardInstance(n, d, 0, 0, rng)
	if err != nil {
		return nil, fmt.Errorf("E11: %w", err)
	}
	if len(hi.Paths) < 2 {
		return nil, fmt.Errorf("E11: need two paths")
	}
	ell := d
	aux, err := shortcut.NewAuxGraph(hi.G, hi.Paths[0], hi.Paths[1], ell)
	if err != nil {
		return nil, fmt.Errorf("E11: %w", err)
	}
	nn := float64(hi.G.NumNodes())
	p := math.Log(nn) * math.Pow(nn, -1.0/float64(d-1))
	if p > 1 {
		p = 1
	}
	star := aux.SampleStar(p, rng)
	for k := 2; k <= ell+1; k++ {
		dist := star.MaxWalkDist(k)
		bound := math.Pow(4/p, float64(k-2))
		t.AddRow(I(hi.G.NumNodes()), I(d), I(ell), I(k), F(p), I(int(dist)), F(bound))
	}
	return t, nil
}

// A1Repetitions is the ablation on the number of independent sampling
// repetitions (the dilation argument consumes D of them).
func A1Repetitions(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	t := NewTable("A1: sampling repetitions ablation",
		"D", "n", "reps", "congestion", "dilation", "c+d")
	d := 6
	if cfg.Quick {
		d = 4
	}
	n := cfg.Sizes[len(cfg.Sizes)-1]
	if cfg.Quick {
		n = cfg.Sizes[0]
	}
	for _, reps := range []int{1, d / 2, d} {
		if reps < 1 {
			reps = 1
		}
		rng := cfg.rng(int64(14_000_000_000 + reps))
		hi, p, err := hardCase(n, d, rng)
		if err != nil {
			return nil, fmt.Errorf("A1 reps=%d: %w", reps, err)
		}
		s, err := shortcut.Build(hi.G, p, shortcut.Options{
			Diameter: d, Reps: reps, LogFactor: cfg.LogFactor, Rng: rng, Ctx: cfg.Ctx,
		})
		if err != nil {
			return nil, fmt.Errorf("A1 reps=%d: %w", reps, err)
		}
		q, err := s.Dilation(exactCutoff)
		if err != nil {
			return nil, err
		}
		t.AddRow(I(d), I(hi.G.NumNodes()), I(reps), I(q.Congestion),
			I(int(q.DilationHi)), I(q.Sum()))
	}
	t.AddNote("fewer repetitions lower congestion but the dilation argument only holds with D of them")
	return t, nil
}
