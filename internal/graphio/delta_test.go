package graphio

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestDeltaRoundTrip(t *testing.T) {
	d := graph.Delta{
		Delete: [][2]graph.NodeID{{0, 1}, {4, 2}},
		Insert: []graph.DeltaEdge{{U: 3, V: 5, W: 1.25}, {U: 0, V: 4, W: 0.5}},
	}
	var buf bytes.Buffer
	if err := WriteDelta(&buf, d, true); err != nil {
		t.Fatal(err)
	}
	got, weighted, err := ReadDelta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !weighted {
		t.Fatal("weights lost")
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("round trip changed delta:\n got %+v\nwant %+v", got, d)
	}
}

func TestDeltaRoundTripUnweighted(t *testing.T) {
	d := graph.Delta{Insert: []graph.DeltaEdge{{U: 1, V: 2}, {U: 2, V: 3}}}
	var buf bytes.Buffer
	if err := WriteDelta(&buf, d, false); err != nil {
		t.Fatal(err)
	}
	got, weighted, err := ReadDelta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if weighted {
		t.Fatal("phantom weights")
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("round trip changed delta: %+v vs %+v", got, d)
	}
}

func TestReadDeltaErrors(t *testing.T) {
	cases := []string{
		"",                              // no header
		"delta 1 0\n",                   // missing deletion
		"delta 0 1\n",                   // missing insertion
		"- 0 1\n",                       // body before header
		"delta 0 0\ndelta 0 0\n",        // duplicate header
		"delta 0 2\n+ 0 1 2.5\n+ 1 2\n", // weight then no weight
		"delta 0 2\n+ 0 1\n+ 1 2 2.5\n", // no weight then weight
		"delta 0 1\n+ 0 x\n",            // bad endpoint
		"delta 0 1\n+ 0 1 x\n",          // bad weight
		"delta 0 0\ngraph 1 0\n",        // foreign directive
		"delta 1 0\n- 0\n",              // short deletion
	}
	for _, in := range cases {
		if _, _, err := ReadDelta(strings.NewReader(in)); err == nil {
			t.Errorf("no error for %q", in)
		}
	}
}

// TestDeltaAppliesAfterRoundTrip ties the formats together: a serialized
// (graph, delta) pair replays to the same post-delta graph.
func TestDeltaAppliesAfterRoundTrip(t *testing.T) {
	g, err := graph.FromEdges(4, [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	w := graph.Weights{1, 2, 3}
	d := graph.Delta{
		Delete: [][2]graph.NodeID{{1, 2}},
		Insert: []graph.DeltaEdge{{U: 0, V: 3, W: 9}},
	}
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g, w); err != nil {
		t.Fatal(err)
	}
	var dbuf bytes.Buffer
	if err := WriteDelta(&dbuf, d, true); err != nil {
		t.Fatal(err)
	}
	doc, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d2, _, err := ReadDelta(&dbuf)
	if err != nil {
		t.Fatal(err)
	}
	g2, w2, _, err := graph.ApplyDelta(doc.G, doc.Weights, d2)
	if err != nil {
		t.Fatal(err)
	}
	want, wantW, _, err := graph.ApplyDelta(g, w, d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g2, want) || !reflect.DeepEqual(w2, wantW) {
		t.Fatal("replayed delta differs from direct application")
	}
}
