package load

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/reproerr"
	"repro/internal/serve"
)

// TestWireBackendUndecodableBodyIsCorrupt pins the wire client's reading
// of a 200 whose body is not a decodable answer: KindCorrupt, whatever
// went wrong in it. A row out of float64 range is the server's bytes
// failing validation, not the caller's input.
func TestWireBackendUndecodableBodyIsCorrupt(t *testing.T) {
	for _, body := range []string{
		`{"kind":"sssp","sssp":{"source":0,"dist":[0,1.5`,
		`{"kind":"sssp","sssp":{"source":0,"dist":[0,1e999]}}`,
		`not json`,
		`{"kind":"sssp"}`,
	} {
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte(body + "\n"))
		}))
		_, err := NewWireBackend(hs.URL, nil).Do(context.Background(), serve.SSSPQuery{Source: 0})
		hs.Close()
		if k := reproerr.KindOf(err); k != reproerr.KindCorrupt {
			t.Errorf("%q: err %v of kind %v, want %v", body, err, k, reproerr.KindCorrupt)
		}
	}
}
