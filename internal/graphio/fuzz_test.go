package graphio

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzRead ensures the parser never panics on arbitrary input and that any
// successfully-parsed document round-trips.
func FuzzRead(f *testing.F) {
	f.Add("graph 3 2\ne 0 1\ne 1 2\n")
	f.Add("graph 2 1\ne 0 1 3.5\npart 1\np 0 1\n")
	f.Add("# comment only\n")
	f.Add("graph 0 0\n")
	f.Fuzz(func(t *testing.T, input string) {
		doc, err := Read(strings.NewReader(input))
		if err != nil {
			return // rejection is fine; panics are not
		}
		var buf bytes.Buffer
		if err := WriteGraph(&buf, doc.G, doc.Weights); err != nil {
			t.Fatalf("rewrite of accepted document failed: %v", err)
		}
		if doc.Parts != nil {
			if err := WritePartition(&buf, doc.Parts); err != nil {
				t.Fatalf("rewrite partition failed: %v", err)
			}
		}
		doc2, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip of accepted document failed: %v", err)
		}
		if doc2.G.NumNodes() != doc.G.NumNodes() || doc2.G.NumEdges() != doc.G.NumEdges() {
			t.Fatalf("round trip changed shape: %v vs %v", doc2.G, doc.G)
		}
	})
}
