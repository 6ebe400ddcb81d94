package serve_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

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
