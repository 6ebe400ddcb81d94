package gateway

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"testing"

	"repro/internal/graph"
	"repro/internal/serve"
)

// FuzzGatewayRequest fuzzes the /v1/query decode-and-serve path with
// arbitrary bodies. The contract: the handler never panics, never hangs,
// and always answers either 200 with a well-formed QueryResponse, which
// DecodeQueryResponse reads as encoding/json does, or a taxonomy-mapped
// error status with a well-formed ErrorResponse — every malformed body is
// a typed 400, never a 500. The gateway lives across inputs, so repeated
// sources are answered from the sssp cache: every sssp body must equal
// appendBody of a fresh ServeCtx answer for its source.
func FuzzGatewayRequest(f *testing.F) {
	fx := makeFixture(f, 48, 17)
	gw, err := New(serve.NewServer(fx.snap, serve.ServerOptions{Executors: 2, Seed: 7}),
		Options{QueueDepth: 8})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(gw.Close)
	h := gw.Handler()

	for _, seed := range []string{
		`{"kind":"sssp","source":0}`,
		`{"kind":"sssp","source":47}`,
		`{"kind":"mst"}`,
		`{"kind":"mincut","eps":0.5}`,
		`{"kind":"twoecss"}`,
		`{"kind":"quality","part":1}`,
		`{"kind":"sssp"}`,
		`{"kind":"sssp","source":-1}`,
		`{"kind":"sssp","source":99999999999}`,
		`{"kind":"mincut","eps":1e-300}`,
		`{"kind":"quality","part":-5}`,
		`{"kind":"pagerank"}`,
		`{"kind":`,
		`null`,
		`[]`,
		`""`,
		`{"kind":"mst","extra":true}`,
		`{"kind":"mst"} trailing`,
		"\x00\x01\x02",
		``,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest("POST", "/v1/query", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		switch rec.Code {
		case 200:
			var resp QueryResponse
			dec := json.NewDecoder(bytes.NewReader(rec.Body.Bytes()))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&resp); err != nil {
				t.Fatalf("200 with undecodable body %q: %v", rec.Body.Bytes(), err)
			}
			if resp.Kind == "" {
				t.Fatalf("200 without a kind: %q", rec.Body.Bytes())
			}
			// The client's decode reads the same answer, and reads every
			// sssp body on its one-pass path.
			if got := checkDecode(t, rec.Body.Bytes()); got == nil || !sameResponse(got, &resp) {
				t.Fatalf("200 body %q: DecodeQueryResponse %+v, json %+v", rec.Body.Bytes(), got, &resp)
			}
			if _, ok := decodeSSSP(rec.Body.Bytes()); ok != (resp.Kind == "sssp") {
				t.Fatalf("%s body %q: one-pass path taken %v", resp.Kind, rec.Body.Bytes(), ok)
			}
			if resp.Kind == "sssp" {
				if want := freshBody(t, fx.snap, graph.NodeID(resp.SSSP.Source)); !bytes.Equal(rec.Body.Bytes(), want) {
					t.Fatalf("sssp body %q, fresh encode %q", rec.Body.Bytes(), want)
				}
			}
		case 400:
			var e ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatalf("400 with undecodable body %q: %v", rec.Body.Bytes(), err)
			}
			if e.Kind != "invalid input" {
				t.Fatalf("400 with kind %q", e.Kind)
			}
		default:
			// Deadlines/cancellation/shedding can't happen here: no
			// Request-Timeout header, no concurrent load, depth 8. Anything
			// but serve-or-reject is a contract break.
			t.Fatalf("unexpected status %d for body %q: %s", rec.Code, body, rec.Body.Bytes())
		}
	})
}

// oracleDistVector is the reference decoder FuzzDistVector holds the
// in-place parser to: json.Unmarshal into []*float64, null → +Inf.
func oracleDistVector(b []byte) (DistVector, error) {
	var raw []*float64
	if err := json.Unmarshal(b, &raw); err != nil {
		return nil, err
	}
	out := make(DistVector, len(raw))
	for i, p := range raw {
		if p == nil {
			out[i] = math.Inf(1)
		} else {
			out[i] = *p
		}
	}
	return out, nil
}

// FuzzDistVector differentially fuzzes DistVector.UnmarshalJSON against
// oracleDistVector: the same accept/reject decision on every input, and
// bit-identical values on accept — into a fresh receiver and into a reused
// one holding stale values.
func FuzzDistVector(f *testing.F) {
	for _, seed := range []string{
		`null`, `[]`, `[null]`, `[-0]`, `[5e-324]`, `[2.2250738585072014e-308]`, `[1e400]`,
		`[1,]`, `[01]`, `[.5]`, `[+1]`, `[1 2]`, `[1.]`, `[1e]`, `[-]`,
		`["1"]`, `[[1]]`, `[NaN]`, `[Infinity]`, `[true]`, `{}`, `1`, `nul`, `[1]x`,
		` [ 0 , null , -1.5e-3 , 1E+2 ] `, "\t\n\r[\t1\n,\rnull\t]\n",
		`[0.30000000000000004,1e21,1.7976931348623157e308]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		want, werr := oracleDistVector(b)
		var fresh DistVector
		err := fresh.UnmarshalJSON(b)
		reused := DistVector{7, 7, 7, 7, 7, 7, 7, 7}
		rerr := reused.UnmarshalJSON(b)
		if (err == nil) != (werr == nil) || (rerr == nil) != (werr == nil) {
			t.Fatalf("%q: err %v, reused err %v; oracle err %v", b, err, rerr, werr)
		}
		if werr != nil {
			return
		}
		for _, got := range []DistVector{fresh, reused} {
			if len(got) != len(want) {
				t.Fatalf("%q: length %d, oracle %d", b, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%q: [%d] = %v, oracle %v", b, i, got[i], want[i])
				}
			}
		}
	})
}
