package repro

import (
	"repro/internal/gateway"
)

// Network front end: the HTTP/JSON gateway over the serving stack.
//
// A Gateway wraps a Server (fixed-snapshot or store-backed) in the wire
// surface lcsserve deploys: POST /v1/query, /v1/batch, /v1/delta, and
// /v1/snapshot/swap on the serving mux, with /metrics, /healthz, and
// /readyz on a separate admin mux. The gateway owns admission control
// (bounded slots, immediate 429 shedding, Request-Timeout deadlines) and
// its own instrument family on the shared registry; every query serves
// directly on the server:
//
//	reg := repro.NewMetrics()
//	srv, _ := repro.NewStoreServerV2(store, repro.WithMetrics(reg))
//	gw, _ := repro.NewGateway(srv,
//	    repro.WithQueueDepth(64),
//	    repro.WithMetrics(reg))
//	defer gw.Close()
//	go http.ListenAndServe(":8080", gw.Handler())
//	http.ListenAndServe(":9090", gw.AdminHandler())
//
// Taxonomy errors map onto HTTP statuses via HTTPStatus/HTTPStatusOf (400
// invalid input, 429 shed, 499 canceled, 504 deadline, 422 corrupt); see
// DESIGN.md "Gateway" for the wire format and semantics.

// Gateway is the HTTP front end over one Server (see internal/gateway).
// Construct with NewGateway; Close marks it draining (/readyz answers 503).
type Gateway = gateway.Gateway

// NewGateway wraps srv in the HTTP front end, from functional options:
// WithQueueDepth (admission capacity), WithRequestTimeout (default
// deadline), and WithMetrics. Its /v1/delta updates take no options (see
// ApplyDeltaCtx).
func NewGateway(srv *Server, opts ...Option) (*Gateway, error) {
	cfg, err := NewConfig(opts...)
	if err != nil {
		return nil, err
	}
	return gateway.New(srv, gateway.Options{
		QueueDepth:     cfg.QueueDepth,
		DefaultTimeout: cfg.RequestTimeout,
		Metrics:        cfg.Metrics,
	})
}
