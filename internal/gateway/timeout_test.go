package gateway

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"repro/internal/reproerr"
)

// TestParseRequestTimeout pins the header parser's full table: Go durations
// and bare seconds parse, everything malformed — zero, negative,
// non-numeric, NaN, ±Inf — is a typed KindInvalidInput, and absurdly large
// second counts clamp instead of overflowing the float→int conversion into
// platform-defined garbage.
func TestParseRequestTimeout(t *testing.T) {
	valid := []struct {
		in   string
		want time.Duration
	}{
		{"250ms", 250 * time.Millisecond},
		{"1h30m", 90 * time.Minute},
		{"1ns", time.Nanosecond}, // expired-by-arrival, but well-formed: a 504, not a 400
		{"2", 2 * time.Second},
		{"1.5", 1500 * time.Millisecond},
		{"0.001", time.Millisecond},
		{"1e18", math.MaxInt64},  // > 292y of seconds: clamp, don't overflow
		{"1e300", math.MaxInt64}, // far beyond float64→int64 range
	}
	for _, c := range valid {
		d, err := parseRequestTimeout(c.in)
		if err != nil {
			t.Errorf("parseRequestTimeout(%q): unexpected error %v", c.in, err)
			continue
		}
		if d != c.want {
			t.Errorf("parseRequestTimeout(%q) = %v, want %v", c.in, d, c.want)
		}
	}

	invalid := []string{
		"0", "0s", "0.0",
		"-1", "-5s", "-0.5",
		"soon", "", "5 seconds", "10x",
		"NaN", "nan",
		"Inf", "+Inf", "-Inf", "1e9999", // ±Inf directly or via ParseFloat overflow
	}
	for _, in := range invalid {
		d, err := parseRequestTimeout(in)
		if err == nil {
			t.Errorf("parseRequestTimeout(%q) = %v, want KindInvalidInput error", in, d)
			continue
		}
		if k := reproerr.KindOf(err); k != reproerr.KindInvalidInput {
			t.Errorf("parseRequestTimeout(%q): kind %v, want KindInvalidInput", in, k)
		}
	}
}

// TestRequestTimeoutHeaderWire pins the same contract over HTTP on every
// deadline-honoring endpoint: a malformed Request-Timeout is a 400 with the
// machine-readable "invalid input" kind — never silently ignored (the
// request must NOT execute) and never an already-expired context
// misreported as a 504 deadline. An sssp root whose body is in the sssp
// cache answers the same, and an expired deadline on it is a 504.
func TestRequestTimeoutHeaderWire(t *testing.T) {
	fx := makeFixture(t, 200, 23)
	env := newEnv(t, fx, Options{})
	for i := 0; i < 3; i++ {
		askSSSP(t, env.gw.Handler(), 0)
	}
	hits := cacheHits(env.reg)

	for _, h := range []string{"0", "-1", "-5s", "soon", "NaN", "+Inf"} {
		t.Run(h, func(t *testing.T) {
			for _, req := range []QueryRequest{{Kind: "mst"}, {Kind: "sssp", Source: intp(0)}} {
				before := env.reg.Counter("lcs_gateway_errors_total", "endpoint", "query").Value()
				status, raw := post(t, env.srv.URL+"/v1/query",
					req, map[string]string{"Request-Timeout": h})
				if status != 400 {
					t.Fatalf("%s, Request-Timeout %q: status %d, want 400: %s", req.Kind, h, status, raw)
				}
				var e ErrorResponse
				if err := json.Unmarshal(raw, &e); err != nil {
					t.Fatalf("error body is not ErrorResponse JSON: %s", raw)
				}
				if e.Kind != reproerr.KindInvalidInput.String() {
					t.Fatalf("%s, Request-Timeout %q: kind %q, want %q", req.Kind, h, e.Kind, reproerr.KindInvalidInput)
				}
				if after := env.reg.Counter("lcs_gateway_errors_total", "endpoint", "query").Value(); after != before+1 {
					t.Fatalf("%s, Request-Timeout %q: errors_total %d → %d, want one typed error", req.Kind, h, before, after)
				}
			}
		})
	}

	// A deadline that expired on arrival is a 504 for the cached root too.
	status, raw := post(t, env.srv.URL+"/v1/query",
		QueryRequest{Kind: "sssp", Source: intp(0)}, map[string]string{"Request-Timeout": "1ns"})
	if status != 504 {
		t.Fatalf("cached root with Request-Timeout 1ns: status %d, want 504: %s", status, raw)
	}
	if e := decodeResp[ErrorResponse](t, raw); e.Kind != reproerr.KindDeadline.String() {
		t.Fatalf("cached root with Request-Timeout 1ns: kind %q, want %q", e.Kind, reproerr.KindDeadline)
	}
	if moved := cacheHits(env.reg) - hits; moved != 0 {
		t.Fatalf("rejected requests moved the hits counter by %d", moved)
	}

	// The batch endpoint shares requestCtx; one spot check pins the wiring.
	status, raw = post(t, env.srv.URL+"/v1/batch",
		BatchRequest{Queries: []QueryRequest{{Kind: "mst"}}},
		map[string]string{"Request-Timeout": "-1"})
	if status != 400 {
		t.Fatalf("batch with negative timeout: status %d, want 400: %s", status, raw)
	}

	// A well-formed header still works: generous timeout, normal 200.
	status, raw = post(t, env.srv.URL+"/v1/query",
		QueryRequest{Kind: "mst"}, map[string]string{"Request-Timeout": "30s"})
	if status != 200 {
		t.Fatalf("valid timeout header: status %d: %s", status, raw)
	}
}
