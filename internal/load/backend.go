package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/gateway"
	"repro/internal/graph"
	"repro/internal/reproerr"
	"repro/internal/serve"
)

// Completion is what the runner needs back from a served query for the
// answer check: Dist for sssp, TreeEdges for mst, and the whole Answer for
// mincut, twoecss and quality. Dist is the full distance row (wire backends
// decode it bit-identically, the DistVector contract).
type Completion struct {
	Dist      []float64
	TreeEdges []graph.EdgeID
	Answer    serve.Answer
}

// Backend serves one query; both implementations expose the same five-kind
// surface so one Schedule drives either.
type Backend interface {
	Name() string
	Do(ctx context.Context, q serve.Query) (Completion, error)
}

// LibraryBackend drives an in-process serve.Server — the epoch-pinning
// library path with no wire framing.
type LibraryBackend struct {
	Srv *serve.Server
}

func (b *LibraryBackend) Name() string { return "library" }

func (b *LibraryBackend) Do(ctx context.Context, q serve.Query) (Completion, error) {
	a, err := b.Srv.ServeCtx(ctx, q)
	if err != nil {
		return Completion{}, err
	}
	return completion(a), nil
}

// completion keeps of a what the check compares.
func completion(a serve.Answer) Completion {
	switch a := a.(type) {
	case *serve.SSSPAnswer:
		return Completion{Dist: a.Dist}
	case *serve.MSTAnswer:
		return Completion{TreeEdges: a.Tree}
	}
	return Completion{Answer: a}
}

// WireBackend drives a gateway over HTTP — POST /v1/query with the JSON
// codec, so wire overhead (framing, admission, codec) lands in the same
// histograms as the library path.
type WireBackend struct {
	base   string
	client *http.Client
}

// NewWireBackend targets addr (host:port or full URL) with client (nil =
// a dedicated client reusing keep-alive connections).
func NewWireBackend(addr string, client *http.Client) *WireBackend {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	if client == nil {
		client = &http.Client{}
	}
	return &WireBackend{base: strings.TrimRight(addr, "/"), client: client}
}

func (b *WireBackend) Name() string { return "wire" }

func (b *WireBackend) Do(ctx context.Context, q serve.Query) (Completion, error) {
	const op = "load.wire"
	req, err := queryToRequest(q)
	if err != nil {
		return Completion{}, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return Completion{}, fmt.Errorf("%s: %w", op, err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, b.base+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return Completion{}, fmt.Errorf("%s: %w", op, err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := b.client.Do(hreq)
	if err != nil {
		if ctx.Err() != nil {
			// The per-query deadline (or the run's cancellation) expired
			// client-side; classify like the server would have.
			return Completion{}, reproerr.FromContext(op, ctx.Err())
		}
		return Completion{}, fmt.Errorf("%s: %w", op, err)
	}
	ans, err := gateway.ReadQueryResponse(op, resp)
	if err != nil {
		return Completion{}, err
	}
	a, err := gateway.ResponseToAnswer(ans)
	if err != nil {
		return Completion{}, err
	}
	return completion(a), nil
}

// queryToRequest is toQuery's inverse: the typed serve query onto its wire
// form.
func queryToRequest(q serve.Query) (gateway.QueryRequest, error) {
	switch q := q.(type) {
	case serve.SSSPQuery:
		src := int64(q.Source)
		return gateway.QueryRequest{Kind: "sssp", Source: &src}, nil
	case serve.MSTQuery:
		return gateway.QueryRequest{Kind: "mst"}, nil
	case serve.MinCutQuery:
		return gateway.QueryRequest{Kind: "mincut", Eps: q.Eps}, nil
	case serve.TwoECSSQuery:
		return gateway.QueryRequest{Kind: "twoecss"}, nil
	case serve.QualityQuery:
		part := q.Part
		return gateway.QueryRequest{Kind: "quality", Part: &part}, nil
	}
	return gateway.QueryRequest{}, reproerr.Invalid("load.wire", "unmappable query type %T", q)
}
