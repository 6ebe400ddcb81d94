package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/serve"
	"repro/internal/testx"
	"repro/internal/twoecss"
)

// writeInstance generates a small connected, 2-edge-connected instance and
// writes it in graphio text form (with weights and parts) to dir.
func writeInstance(t *testing.T, dir string) string {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	var g *graph.Graph
	for {
		g = gen.ErdosRenyi(120, 0.1, rng)
		if graph.IsConnected(g) && len(twoecss.Bridges(g, allEdges(g))) == 0 {
			break
		}
	}
	w := graph.NewUniformWeights(g.NumEdges(), rng)
	parts, err := gen.VoronoiParts(g, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graphio.WriteGraph(&buf, g, w); err != nil {
		t.Fatal(err)
	}
	if err := graphio.WritePartition(&buf, parts); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "inst.lcs")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func allEdges(g *graph.Graph) []graph.EdgeID {
	edges := make([]graph.EdgeID, g.NumEdges())
	for e := range edges {
		edges[e] = graph.EdgeID(e)
	}
	return edges
}

// TestServeAndGracefulDrain boots lcsserve on a generated instance, runs
// real queries against both listeners, then delivers a genuine SIGTERM and
// requires a clean, goroutine-leak-free drain.
func TestServeAndGracefulDrain(t *testing.T) {
	// The signal package keeps one watcher goroutine alive for the process
	// lifetime after first use; prime it before the leak snapshot so the
	// check measures lcsserve, not the runtime.
	prime := make(chan os.Signal, 1)
	signal.Notify(prime, syscall.SIGHUP)
	signal.Stop(prime)
	t.Cleanup(testx.LeakCheck(t.Fatalf))

	inst := writeInstance(t, t.TempDir())
	var out bytes.Buffer
	addrc := make(chan [2]string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-graph-in", inst,
			"-listen", "127.0.0.1:0",
			"-admin-listen", "127.0.0.1:0",
			"-executors", "2",
			"-seed", "7",
			"-drain", "5s",
		}, &out, func(l, a string) { addrc <- [2]string{l, a} })
	}()

	var addrs [2]string
	select {
	case addrs = <-addrc:
	case err := <-done:
		t.Fatalf("server exited before ready: %v\n%s", err, out.String())
	case <-time.After(30 * time.Second):
		t.Fatal("server never became ready")
	}
	base, admin := "http://"+addrs[0], "http://"+addrs[1]

	// A real query over the wire.
	resp, err := http.Post(base+"/v1/query", "application/json",
		strings.NewReader(`{"kind":"sssp","source":5}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("query status %d: %s", resp.StatusCode, raw)
	}
	var qr gateway.QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatalf("undecodable answer %s: %v", raw, err)
	}
	if qr.Kind != "sssp" || qr.SSSP == nil || qr.SSSP.Source != 5 || len(qr.SSSP.Dist) != 120 {
		t.Fatalf("malformed answer: %s", raw)
	}
	for i, d := range qr.SSSP.Dist {
		if math.IsNaN(d) || d < 0 {
			t.Fatalf("dist[%d] = %v", i, d)
		}
	}

	// Readiness and metrics on the admin listener.
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		resp, err := http.Get(admin + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if path != "/metrics" {
			continue
		}
		// One scrape covers every layer: the gateway, and the store whose
		// epochs /v1/delta and /v1/snapshot/swap advance.
		for _, want := range []string{"lcs_gateway_requests_total", "lcs_store_epoch"} {
			if !bytes.Contains(body, []byte(want)) {
				t.Fatalf("/metrics missing %s:\n%s", want, body)
			}
		}
	}

	// Deliver a genuine SIGTERM and require a clean exit.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain returned %v\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("server never drained\n%s", out.String())
	}
	for _, want := range []string{"lcsserve: serving n=120", "lcsserve: draining", "lcsserve: drained"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("log missing %q:\n%s", want, out.String())
		}
	}
}

// TestFlagValidation pins the boot-time rejections.
func TestFlagValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out, nil); err == nil {
		t.Fatal("no input accepted")
	}
	if err := run([]string{"-snapshot-in", "a", "-graph-in", "b"}, &out, nil); err == nil {
		t.Fatal("both inputs accepted")
	}
	if err := run([]string{"-snapshot-in", filepath.Join(t.TempDir(), "missing.snap")}, &out, nil); err == nil {
		t.Fatal("missing snapshot accepted")
	}
}

// TestServeFromSnapshotFile boots from a persisted snapshot (the mmap
// path) and serves a query — the snapshot-shipping deployment shape. A
// clean directory gets no stray-temp line.
func TestServeFromSnapshotFile(t *testing.T) {
	if out := serveSnapshotFile(t, t.TempDir()); strings.Contains(out, "stray") {
		t.Fatalf("clean boot reported stray temp files:\n%s", out)
	}
}

// TestBootReportsStrayTemps plants two temp files of the kind a
// WriteSnapshotFile interrupted before its rename leaves next to the
// snapshot: boot names both in one line, removes neither, and still serves.
func TestBootReportsStrayTemps(t *testing.T) {
	dir := t.TempDir()
	stray := []string{filepath.Join(dir, ".snap-1111"), filepath.Join(dir, ".snap-2222")}
	for _, p := range stray {
		if err := os.WriteFile(p, []byte("torn"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	out := serveSnapshotFile(t, dir)
	var lines []string
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, "stray snapshot temp") {
			lines = append(lines, l)
		}
	}
	if len(lines) != 1 || !strings.Contains(lines[0], stray[0]) || !strings.Contains(lines[0], stray[1]) {
		t.Fatalf("want one boot line naming %v, got:\n%s", stray, out)
	}
	for _, p := range stray {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("boot touched %s: %v", p, err)
		}
	}
}

// serveSnapshotFile writes a snapshot into dir, boots lcsserve from it,
// serves one mst query, drains the server with SIGTERM and returns its
// output.
func serveSnapshotFile(t *testing.T, dir string) string {
	t.Helper()
	rng := rand.New(rand.NewSource(4))
	var g *graph.Graph
	for {
		g = gen.ErdosRenyi(100, 0.12, rng)
		if graph.IsConnected(g) && len(twoecss.Bridges(g, allEdges(g))) == 0 {
			break
		}
	}
	w := graph.NewUniformWeights(g.NumEdges(), rng)
	parts, err := gen.VoronoiParts(g, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := serve.NewSnapshot(g, w, parts, serve.SnapshotOptions{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "state.snap")
	if err := serve.WriteSnapshotFile(path, snap); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	addrc := make(chan [2]string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-snapshot-in", path,
			"-listen", "127.0.0.1:0",
			"-admin-listen", "127.0.0.1:0",
			"-seed", "7",
		}, &out, func(l, a string) { addrc <- [2]string{l, a} })
	}()
	var addrs [2]string
	select {
	case addrs = <-addrc:
	case err := <-done:
		t.Fatalf("server exited before ready: %v\n%s", err, out.String())
	case <-time.After(30 * time.Second):
		t.Fatal("server never became ready")
	}

	resp, err := http.Post(fmt.Sprintf("http://%s/v1/query", addrs[0]), "application/json",
		strings.NewReader(`{"kind":"mst"}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("query status %d: %s", resp.StatusCode, raw)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain returned %v\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server never drained")
	}
	return out.String()
}
