package expt

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// TestE17LoadQuick runs the open-loop load experiment end-to-end at tiny
// scale: one rate × one skew × update rates {0, >0} against both backends,
// asserting full row coverage and a clean torn-answer verdict.
func TestE17LoadQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real wall-clock load")
	}
	cfg := Config{
		Quick:           true,
		DistSizes:       []int{300},
		LoadRates:       []float64{60},
		LoadZipfs:       []float64{1.5},
		LoadUpdateRates: []float64{0, 2},
		LoadDuration:    500 * time.Millisecond,
	}
	tbl, err := E17Load(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("got %d rows, want 2 scenarios × 2 backends", len(tbl.Rows))
	}
	backends := map[string]int{}
	for _, row := range tbl.Rows {
		backends[row[0]]++
		if row[10] != "0" {
			t.Fatalf("torn cell %q in row %v, want 0", row[10], row)
		}
	}
	if backends["library"] != 2 || backends["wire"] != 2 {
		t.Fatalf("backend coverage %v, want 2 library + 2 wire", backends)
	}
	if torn, ok := tbl.Meta["torn_total"].(int); !ok || torn != 0 {
		t.Fatalf("meta torn_total = %v, want 0", tbl.Meta["torn_total"])
	}
	if checked, ok := tbl.Meta["torn_checked"].(int); !ok || checked == 0 {
		t.Fatalf("meta torn_checked = %v, want > 0", tbl.Meta["torn_checked"])
	}
}

// TestQuantileMsRefusesThinTails pins E17's quantile cells to servebench's
// sample floor: a quantile prints only with at least ten samples beyond
// it, so at 999 answers the p99 is "-" and at 1,000 it prints.
func TestQuantileMsRefusesThinTails(t *testing.T) {
	for _, c := range []struct {
		q      float64
		count  int
		prints bool
	}{
		{0.5, 19, false}, {0.5, 20, true},
		{0.99, 999, false}, {0.99, 1000, true},
		{0.999, 9999, false}, {0.999, 10000, true},
	} {
		var h obs.Histogram
		for i := 0; i < c.count; i++ {
			h.Observe(int64(time.Millisecond))
		}
		s := h.Snapshot()
		got := quantileMs(s, c.q)
		if (got != "-") != c.prints {
			t.Errorf("q=%v over %d samples: cell %q, want printed %v", c.q, c.count, got, c.prints)
		}
		if want := F(float64(s.Quantile(c.q)) / float64(time.Millisecond)); c.prints && got != want {
			t.Errorf("q=%v over %d samples: cell %q, want %q", c.q, c.count, got, want)
		}
	}
}
