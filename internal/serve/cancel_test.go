package serve_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/reproerr"
	"repro/internal/serve"
	"repro/internal/testx"
)

func nonNilRng() *rand.Rand { return rand.New(rand.NewSource(99)) }

// TestServeCanceled asserts that a canceled context fails every serve path
// with errors.Is(err, context.Canceled) + reproerr.KindCanceled, and — the
// serving-layer contract — that the executor pool remains fully usable:
// the next uncanceled query succeeds and its answer is identical to one
// served before any cancellation happened.
func TestServeCanceled(t *testing.T) {
	defer testx.LeakCheck(t.Errorf)()
	fx := makeFixture(t, 300, 5)
	srv := serve.NewServer(fx.snap, serve.ServerOptions{Executors: 2})

	want, err := srv.Serve(serve.SSSPQuery{Source: 3})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	assertCanceled := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: no error from canceled context", what)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: errors.Is(err, context.Canceled) = false for %v", what, err)
		}
		if reproerr.KindOf(err) != reproerr.KindCanceled {
			t.Errorf("%s: want KindCanceled, got %v", what, err)
		}
	}

	_, err = srv.ServeCtx(ctx, serve.SSSPQuery{Source: 3})
	assertCanceled("ServeCtx/SSSP", err)
	_, err = srv.ServeCtx(ctx, serve.MinCutQuery{})
	assertCanceled("ServeCtx/MinCut", err)
	_, err = srv.ServeBatchCtx(ctx, []serve.Query{
		serve.SSSPQuery{Source: 1}, serve.SSSPQuery{Source: 2}, serve.MSTQuery{},
	})
	assertCanceled("ServeBatchCtx", err)
	_, err = srv.ServeSSSPIntoCtx(ctx, nil, 3)
	assertCanceled("ServeSSSPIntoCtx", err)

	// The pool still has both executors: the next queries succeed and are
	// bit-identical to the pre-cancellation answer.
	for i := 0; i < 4; i++ { // > Executors: would deadlock on a leaked slot
		got, err := srv.Serve(serve.SSSPQuery{Source: 3})
		if err != nil {
			t.Fatalf("query %d after cancellation: %v", i, err)
		}
		if !reflect.DeepEqual(got.(*serve.SSSPAnswer).Dist, want.(*serve.SSSPAnswer).Dist) {
			t.Fatalf("query %d after cancellation: answer differs", i)
		}
	}
	answers, err := srv.ServeBatchCtx(context.Background(), []serve.Query{
		serve.SSSPQuery{Source: 3}, serve.SSSPQuery{Source: 4}, serve.SSSPQuery{Source: 5},
	})
	if err != nil {
		t.Fatalf("batch after cancellation: %v", err)
	}
	if !reflect.DeepEqual(answers[0].(*serve.SSSPAnswer).Dist, want.(*serve.SSSPAnswer).Dist) {
		t.Fatal("batched answer after cancellation differs")
	}
}

// TestServeBatchCancelMidDrain cancels batches on a one-executor server
// with metrics attached, and in every case the pool serves the next query.
// First at an arbitrary moment from a concurrent goroutine: the batch
// either completed before the cancel landed or aborted with the canceled
// taxonomy. Then once lcs_serve_executors_inflight reads 1 during a batch
// of thousands of roots (tens of milliseconds of walks): that batch must
// abort with KindCanceled wrapping context.Canceled rather than complete,
// and count nothing as delivered.
func TestServeBatchCancelMidDrain(t *testing.T) {
	defer testx.LeakCheck(t.Errorf)()
	fx := makeFixture(t, 1200, 8)
	reg := obs.New()
	srv := serve.NewServer(fx.snap, serve.ServerOptions{Executors: 1, Metrics: reg})
	n := fx.g.NumNodes()

	queries := make([]serve.Query, 64)
	for i := range queries {
		queries[i] = serve.SSSPQuery{Source: graph.NodeID(i % n)}
	}
	for it := 0; it < 8; it++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := srv.ServeBatchCtx(ctx, queries)
			done <- err
		}()
		cancel()
		if err := <-done; err != nil {
			if !errors.Is(err, context.Canceled) || reproerr.KindOf(err) != reproerr.KindCanceled {
				t.Fatalf("iteration %d: unexpected error %v", it, err)
			}
		}
		if _, err := srv.Serve(serve.SSSPQuery{Source: 1}); err != nil {
			t.Fatalf("iteration %d: pool unusable after cancellation: %v", it, err)
		}
	}

	queries = make([]serve.Query, 2*n)
	for i := range queries {
		queries[i] = serve.SSSPQuery{Source: graph.NodeID(i % n)}
	}
	inflight := reg.Gauge("lcs_serve_executors_inflight")
	before := srv.Stats()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := srv.ServeBatchCtx(ctx, queries)
		done <- err
	}()
	for inflight.Value() != 1 {
		runtime.Gosched()
	}
	cancel()
	err := <-done
	if err == nil {
		t.Fatal("batch completed; want it canceled mid-walk")
	}
	if !errors.Is(err, context.Canceled) || reproerr.KindOf(err) != reproerr.KindCanceled {
		t.Fatalf("canceled batch: err %v, want KindCanceled wrapping context.Canceled", err)
	}
	if st := srv.Stats(); st != before {
		t.Fatalf("canceled batch was counted as delivered: %+v, before %+v", st, before)
	}
	if _, err := srv.Serve(serve.SSSPQuery{Source: 1}); err != nil {
		t.Fatalf("pool unusable after cancellation: %v", err)
	}
}

// TestSnapshotBuildCanceled asserts a canceled context aborts NewSnapshot
// and that KindCanceled propagates through the build's wrapping.
func TestSnapshotBuildCanceled(t *testing.T) {
	fx := makeFixture(t, 200, 7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := serve.NewSnapshot(fx.g, fx.w, fx.parts, serve.SnapshotOptions{
		Rng: nonNilRng(), LogFactor: 0.3, Ctx: ctx,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled snapshot build: got %v", err)
	}
	if reproerr.KindOf(err) != reproerr.KindCanceled {
		t.Fatalf("want KindCanceled, got %v", err)
	}
}

// doneAt is a context whose Done channel reads open (nil) for its first k-1
// calls and closed from the k-th on, with Err agreeing: a cancellation that
// lands at one exact check, with no timers.
type doneAt struct {
	context.Context
	k     int64
	calls atomic.Int64
}

var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

func (c *doneAt) Done() <-chan struct{} {
	if c.calls.Add(1) >= c.k {
		return closedDone
	}
	return nil
}

func (c *doneAt) Err() error {
	if c.calls.Load() >= c.k {
		return context.Canceled
	}
	return nil
}

// TestCancelInsideDilation cancels NewSnapshot and ApplyDelta at each of
// their cancellation checks in turn. Every canceled call returns no
// snapshot and KindCanceled wrapping context.Canceled, and a canceled delta
// leaves its base snapshot as it was. Several of the checks fall inside
// the dilation measurement, the phase that is nearly all of a default
// build: it checks between 64-source sweeps, and a cancel there fails the
// call with the measurement's error.
func TestCancelInsideDilation(t *testing.T) {
	fx := makeFixture(t, 600, 5)
	build := func(ctx context.Context) (*serve.Snapshot, error) {
		return serve.NewSnapshot(fx.g, fx.w, fx.parts, serve.SnapshotOptions{
			Rng: rand.New(rand.NewSource(5)), LogFactor: 0.3, Ctx: ctx,
		})
	}
	base, err := build(nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := build(nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := gen.InsertDelta(fx.g, 24, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	srv, refSrv := serve.NewServer(base, serve.ServerOptions{}), serve.NewServer(ref, serve.ServerOptions{})

	for _, tc := range []struct {
		name string
		run  func(ctx context.Context) (*serve.Snapshot, error)
	}{
		{"NewSnapshot", build},
		{"ApplyDelta", func(ctx context.Context) (*serve.Snapshot, error) {
			return serve.ApplyDelta(ctx, base, d, serve.DeltaOptions{})
		}},
	} {
		inside := 0
		for k := int64(1); ; k++ {
			ctx := &doneAt{Context: context.Background(), k: k}
			sn, err := tc.run(ctx)
			if err == nil {
				if k == 1 {
					t.Fatalf("%s: no cancellation check", tc.name)
				}
				break
			}
			if sn != nil {
				t.Fatalf("%s: canceled at check %d, returned a snapshot", tc.name, k)
			}
			if !errors.Is(err, context.Canceled) || reproerr.KindOf(err) != reproerr.KindCanceled {
				t.Fatalf("%s: canceled at check %d: err %v, want KindCanceled wrapping context.Canceled", tc.name, k, err)
			}
			if strings.Contains(err.Error(), "quality: shortcut.Dilation: ") {
				inside++
			}
			assertSnapshotsEqual(t, tc.name+" base", base, ref)
			for i := 0; i < base.Partition().NumParts(); i++ {
				got, err1 := srv.Serve(serve.QualityQuery{Part: i})
				want, err2 := refSrv.Serve(serve.QualityQuery{Part: i})
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				assertAnswersEqual(t, tc.name+" base", got, want)
			}
		}
		if inside < 2 {
			t.Fatalf("%s: %d cancellation checks inside the dilation measurement, want at least 2", tc.name, inside)
		}
		t.Logf("%s: %d of its cancellation checks sit inside the dilation measurement", tc.name, inside)
	}
	got, err := serve.ApplyDelta(context.Background(), base, d, serve.DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := serve.ApplyDelta(context.Background(), ref, d, serve.DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertSnapshotsEqual(t, "delta after cancellations", got, want)
}
