package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"unicode/utf8"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/mincut"
	"repro/internal/reproerr"
	"repro/internal/serve"
	"repro/internal/shortcut"
)

// maxBodyBytes bounds every request body the gateway decodes. Delta
// payloads are the largest legitimate bodies (thousands of edge mutations);
// 16 MiB leaves generous headroom while keeping a hostile body from
// ballooning the decoder.
const maxBodyBytes = 16 << 20

// QueryRequest is the JSON body of POST /v1/query and each element of a
// batch request. Kind selects the query family; the other fields are
// kind-specific payload. Source and Part are pointers so "absent" is
// distinguishable from the valid zero value — a sssp request without a
// source is a typed 400, not a silent query for node 0.
type QueryRequest struct {
	Kind   string  `json:"kind"`
	Source *int64  `json:"source,omitempty"` // sssp: root node
	Eps    float64 `json:"eps,omitempty"`    // mincut: approximation knob
	Part   *int    `json:"part,omitempty"`   // quality: part index
}

// toQuery validates the request and maps it onto the typed serve query
// family. Every rejection is a reproerr.KindInvalidInput — the
// typed-error-or-serves contract FuzzGatewayRequest pins.
func (q *QueryRequest) toQuery() (serve.Query, error) {
	const op = "gateway.query"
	switch q.Kind {
	case "sssp":
		if q.Source == nil {
			return nil, reproerr.Invalid(op, "sssp query requires a source")
		}
		if *q.Source < 0 || *q.Source > math.MaxInt32 {
			return nil, reproerr.Invalid(op, "source %d out of node-id range", *q.Source)
		}
		return serve.SSSPQuery{Source: graph.NodeID(*q.Source)}, nil
	case "mst":
		return serve.MSTQuery{}, nil
	case "mincut":
		// The packed tree count grows as 1/eps, so an arbitrarily small eps
		// is an arbitrarily expensive request: mincut.CheckEps floors it.
		if err := mincut.CheckEps(q.Eps); err != nil {
			return nil, reproerr.Invalid(op, "%v", err)
		}
		return serve.MinCutQuery{Eps: q.Eps}, nil
	case "twoecss":
		return serve.TwoECSSQuery{}, nil
	case "quality":
		if q.Part == nil {
			return nil, reproerr.Invalid(op, "quality query requires a part")
		}
		return serve.QualityQuery{Part: *q.Part}, nil
	case "":
		return nil, reproerr.Invalid(op, "missing query kind")
	default:
		return nil, reproerr.Invalid(op, "unknown query kind %q", q.Kind)
	}
}

// DistVector is a distance row on the wire. JSON cannot represent +Inf, so
// unreachable nodes (sssp.Infinite) marshal as null and unmarshal back to
// +Inf; finite values use Go's shortest round-trip formatting, so a decoded
// vector is bit-identical to the served one.
type DistVector []float64

// MarshalJSON renders the vector as a JSON array with null for +Inf.
func (d DistVector) MarshalJSON() ([]byte, error) {
	buf, err := appendRow(make([]byte, 0, 8*len(d)+2), d)
	if err != nil {
		return nil, err
	}
	return buf, nil
}

// appendRow appends d's wire form: null for a nil vector, else a JSON array
// with null for +Inf. NaN and -Inf have no wire form and are an error.
func appendRow(buf []byte, d DistVector) ([]byte, error) {
	if d == nil {
		return append(buf, "null"...), nil
	}
	buf = append(buf, '[')
	for i, v := range d {
		if i > 0 {
			buf = append(buf, ',')
		}
		switch {
		case math.IsInf(v, 1):
			buf = append(buf, "null"...)
		case math.IsNaN(v) || math.IsInf(v, -1):
			return buf, reproerr.Invalid("gateway.dist", "unencodable distance %v at index %d", v, i)
		default:
			buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		}
	}
	return append(buf, ']'), nil
}

// UnmarshalJSON parses the array form in place, mapping null back to +Inf.
// It accepts exactly what json.Unmarshal accepts into a []*float64 (a JSON
// null, or an array of JSON numbers and nulls, each number within float64
// range), and each value is what strconv.ParseFloat, which encoding/json
// calls, returns (parseNumber), so the values are bit-identical. The
// receiver's capacity is reused: a fresh receiver costs one allocation per
// row, a reused one none. A JSON null decodes to a nil vector; a rejected
// input leaves an empty one.
func (d *DistVector) UnmarshalJSON(b []byte) error {
	out, err := parseRow((*d)[:0], b)
	if err != nil {
		*d = out[:0]
		return reproerr.Invalid("gateway.dist", "invalid distance row: %w", err)
	}
	*d = out
	return nil
}

// parseRow appends the values of the JSON row b to out. A JSON null returns
// nil. Each number is read once, by parseNumber, which checks its grammar
// and converts it in the same pass.
func parseRow(out DistVector, b []byte) (DistVector, error) {
	i := skipSpace(b, 0)
	if hasLiteral(b, i, "null") {
		if skipSpace(b, i+4) != len(b) {
			return out, errors.New("data after null")
		}
		return nil, nil
	}
	if i == len(b) || b[i] != '[' {
		return out, errors.New("not an array")
	}
	// Every element but the last is followed by a comma, so the count
	// bounds the row's length: one allocation at most.
	if n := bytes.Count(b, []byte{','}) + 1; cap(out) < n {
		out = make(DistVector, 0, n)
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return out, checkEnd(b, i+1)
	}
	for {
		if hasLiteral(b, i, "null") {
			out = append(out, math.Inf(1))
			i += 4
		} else {
			v, end, err := parseNumber(b, i)
			if end == i {
				return out, fmt.Errorf("element %d: not a number or null", len(out))
			}
			if err != nil {
				return out, fmt.Errorf("element %d: %w", len(out), err)
			}
			out = append(out, v)
			i = end
		}
		i = skipSpace(b, i)
		switch {
		case i == len(b):
			return out, errors.New("unterminated array")
		case b[i] == ']':
			return out, checkEnd(b, i+1)
		case b[i] != ',':
			return out, fmt.Errorf("element %d: want ',' or ']'", len(out))
		}
		i = skipSpace(b, i+1)
	}
}

// checkEnd accepts only JSON whitespace from b[i] on.
func checkEnd(b []byte, i int) error {
	if skipSpace(b, i) != len(b) {
		return errors.New("data after array")
	}
	return nil
}

// skipSpace returns the index of the first non-whitespace byte at or after
// i (JSON whitespace: space, tab, newline, carriage return).
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// hasLiteral reports whether b holds lit at i.
func hasLiteral(b []byte, i int, lit string) bool {
	return len(b)-i >= len(lit) && string(b[i:i+len(lit)]) == lit
}

// intEnd returns the end of the JSON integer -?(0|[1-9][0-9]*) starting at
// b[i], or i when none starts there.
func intEnd(b []byte, i int) int {
	j := i
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j < len(b) && b[j] == '0':
		return j + 1
	case j < len(b) && b[j] >= '1' && b[j] <= '9':
		return digitsEnd(b, j+1)
	}
	return i
}

// digitsEnd returns the index of the first non-digit at or after i.
func digitsEnd(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// SSSPResult is the wire form of a serve.SSSPAnswer.
type SSSPResult struct {
	Source int64      `json:"source"`
	Dist   DistVector `json:"dist"`
}

// MSTResult is the wire form of a serve.MSTAnswer.
type MSTResult struct {
	Edges  []graph.EdgeID `json:"edges"`
	Weight float64        `json:"weight"`
}

// MinCutResult is the wire form of a serve.MinCutAnswer.
type MinCutResult struct {
	Value float64        `json:"value"`
	Side  []graph.NodeID `json:"side"`
	Trees int            `json:"trees"`
}

// TwoECSSResult is the wire form of a serve.TwoECSSAnswer.
type TwoECSSResult struct {
	Edges      []graph.EdgeID `json:"edges"`
	Weight     float64        `json:"weight"`
	LowerBound float64        `json:"lower_bound"`
	Ratio      float64        `json:"ratio"`
}

// QualityResult is the wire form of a serve.QualityAnswer.
type QualityResult struct {
	Part       int   `json:"part"`
	Congestion int   `json:"congestion"`
	DilationLo int32 `json:"dilation_lo"`
	DilationHi int32 `json:"dilation_hi"`
	Exact      bool  `json:"exact"`
}

// QueryResponse is the JSON body of a successful /v1/query answer (and each
// element of a batch response): exactly one kind-matching result field is
// set. Rounds/Messages carry the answer's marginal simulated cost where the
// library reports one (sssp from a snapshot built with distributed
// accounting); zero is omitted.
type QueryResponse struct {
	Kind     string         `json:"kind"`
	SSSP     *SSSPResult    `json:"sssp,omitempty"`
	MST      *MSTResult     `json:"mst,omitempty"`
	MinCut   *MinCutResult  `json:"mincut,omitempty"`
	TwoECSS  *TwoECSSResult `json:"twoecss,omitempty"`
	Quality  *QualityResult `json:"quality,omitempty"`
	Rounds   int            `json:"rounds,omitempty"`
	Messages int64          `json:"messages,omitempty"`
}

// answerToResponse maps a typed serve answer onto its wire form.
func answerToResponse(a serve.Answer) *QueryResponse {
	switch a := a.(type) {
	case *serve.SSSPAnswer:
		return &QueryResponse{
			Kind:     "sssp",
			SSSP:     &SSSPResult{Source: int64(a.Source), Dist: DistVector(a.Dist)},
			Rounds:   a.Rounds,
			Messages: a.Messages,
		}
	case *serve.MSTAnswer:
		return &QueryResponse{Kind: "mst", MST: &MSTResult{Edges: a.Tree, Weight: a.Weight}}
	case *serve.MinCutAnswer:
		return &QueryResponse{Kind: "mincut", MinCut: &MinCutResult{Value: a.Value, Side: a.Side, Trees: a.Trees}}
	case *serve.TwoECSSAnswer:
		return &QueryResponse{Kind: "twoecss", TwoECSS: &TwoECSSResult{
			Edges: a.Edges, Weight: a.Weight, LowerBound: a.LowerBound, Ratio: a.Ratio,
		}}
	case *serve.QualityAnswer:
		return &QueryResponse{Kind: "quality", Quality: &QualityResult{
			Part:       a.Part,
			Congestion: a.Quality.Congestion,
			DilationLo: a.Quality.DilationLo,
			DilationHi: a.Quality.DilationHi,
			Exact:      a.Quality.Exact,
		}}
	}
	return nil
}

// ResponseToAnswer is answerToResponse's inverse: it maps a decoded wire
// answer back onto its typed serve answer, which equals the served one
// field for field. An sssp answer's Dist is r.SSSP.Dist itself, not a copy.
// A response without the result field its kind names is KindCorrupt.
func ResponseToAnswer(r *QueryResponse) (serve.Answer, error) {
	switch {
	case r.Kind == "sssp" && r.SSSP != nil:
		return &serve.SSSPAnswer{
			Source: graph.NodeID(r.SSSP.Source),
			Dist:   []float64(r.SSSP.Dist),
			Cost:   cost.Cost{Rounds: r.Rounds, Messages: r.Messages},
		}, nil
	case r.Kind == "mst" && r.MST != nil:
		return &serve.MSTAnswer{Tree: r.MST.Edges, Weight: r.MST.Weight}, nil
	case r.Kind == "mincut" && r.MinCut != nil:
		return &serve.MinCutAnswer{Value: r.MinCut.Value, Side: r.MinCut.Side, Trees: r.MinCut.Trees}, nil
	case r.Kind == "twoecss" && r.TwoECSS != nil:
		e := r.TwoECSS
		return &serve.TwoECSSAnswer{Edges: e.Edges, Weight: e.Weight, LowerBound: e.LowerBound, Ratio: e.Ratio}, nil
	case r.Kind == "quality" && r.Quality != nil:
		q := r.Quality
		return &serve.QualityAnswer{Part: q.Part, Quality: shortcut.Quality{
			Congestion: q.Congestion,
			DilationLo: q.DilationLo,
			DilationHi: q.DilationHi,
			Exact:      q.Exact,
		}}, nil
	}
	return nil, reproerr.Errorf("gateway.answer", reproerr.KindCorrupt, "%q response without its result", r.Kind)
}

// DecodeQueryResponse decodes a /v1/query answer body: it returns what
// json.Unmarshal into a fresh QueryResponse returns. The sssp body
// appendResponse writes is read in one pass, its row straight by parseRow;
// every other body goes to json.Unmarshal. Every failure is KindCorrupt: a
// 200 body the client cannot decode is the server's bytes failing
// validation, not the caller's input.
func DecodeQueryResponse(raw []byte) (*QueryResponse, error) {
	if r, ok := decodeSSSP(raw); ok {
		return r, nil
	}
	r := new(QueryResponse)
	if err := json.Unmarshal(raw, r); err != nil {
		return nil, reproerr.Errorf("gateway.response", reproerr.KindCorrupt, "undecodable answer: %w", err)
	}
	return r, nil
}

// ReadQueryResponse reads a /v1/query answer and closes its body: a 200
// decodes with DecodeQueryResponse, any other status is the typed error
// statusError makes of it. Every error names op.
func ReadQueryResponse(op string, resp *http.Response) (*QueryResponse, error) {
	raw, err := readBody(resp)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", op, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, statusError(op, resp.StatusCode, raw)
	}
	r, err := DecodeQueryResponse(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", op, err)
	}
	return r, nil
}

// readBody reads resp.Body whole. A declared Content-Length up to
// maxBodyBytes is read into one buffer of that size, and a shorter body is
// an error; a chunked body, or a larger declared length, which is never
// preallocated, goes through io.ReadAll.
func readBody(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n < 0 || n > maxBodyBytes {
		return io.ReadAll(resp.Body)
	}
	raw := make([]byte, n)
	if _, err := io.ReadFull(resp.Body, raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// statusError maps a non-200 answer back onto the error taxonomy by the
// status the gateway derived from its kind (reproerr.HTTPStatus), so a
// client tells a shed (429) from a deadline (504). The message is the
// ErrorResponse's, or the raw body when it is none.
func statusError(op string, status int, raw []byte) error {
	var kind reproerr.Kind
	switch status {
	case 400:
		kind = reproerr.KindInvalidInput
	case 422:
		kind = reproerr.KindCorrupt
	case 429:
		kind = reproerr.KindBudgetExceeded
	case 499:
		kind = reproerr.KindCanceled
	case 504:
		kind = reproerr.KindDeadline
	default:
		kind = reproerr.KindUnknown
	}
	var e ErrorResponse
	msg := string(bytes.TrimSpace(raw))
	if json.Unmarshal(raw, &e) == nil && e.Error != "" {
		msg = e.Error
	}
	return reproerr.Errorf(op, kind, "status %d: %s", status, msg)
}

// decodeSSSP is DecodeQueryResponse's one-pass path. It accepts exactly
//
//	{"kind":"sssp","sssp":{"source":S,"dist":R}[,"rounds":N][,"messages":N]}
//
// followed by JSON whitespace, where S and each N is a JSON integer that
// fits its field and R is null or the bytes from '[' to the first ']',
// which parseRow must accept. Any other body, or a number that does not
// parse, reports false and is left to json.Unmarshal, so this path has no
// errors of its own.
func decodeSSSP(raw []byte) (*QueryResponse, bool) {
	const head, dist = `{"kind":"sssp","sssp":{"source":`, `,"dist":`
	if !hasLiteral(raw, 0, head) {
		return nil, false
	}
	src, i, ok := intAt(raw, len(head), 64)
	if !ok || !hasLiteral(raw, i, dist) {
		return nil, false
	}
	i += len(dist)
	end := i + len("null")
	if hasLiteral(raw, i, "[") {
		end = i + bytes.IndexByte(raw[i:], ']') + 1 // i when there is no ']'
	} else if !hasLiteral(raw, i, "null") {
		return nil, false
	}
	row, err := parseRow(nil, raw[i:end])
	if err != nil || !hasLiteral(raw, end, "}") {
		return nil, false
	}
	r := &QueryResponse{Kind: "sssp", SSSP: &SSSPResult{Source: src, Dist: row}}
	i = end + 1
	if hasLiteral(raw, i, `,"rounds":`) {
		var n int64
		if n, i, ok = intAt(raw, i+len(`,"rounds":`), strconv.IntSize); !ok {
			return nil, false
		}
		r.Rounds = int(n)
	}
	if hasLiteral(raw, i, `,"messages":`) {
		if r.Messages, i, ok = intAt(raw, i+len(`,"messages":`), 64); !ok {
			return nil, false
		}
	}
	if !hasLiteral(raw, i, "}") || skipSpace(raw, i+1) != len(raw) {
		return nil, false
	}
	return r, true
}

// intAt parses the JSON integer at b[i] as a bitSize-bit integer and
// returns it with its end. ok is false when no integer starts at i or it
// does not fit.
func intAt(b []byte, i, bitSize int) (v int64, end int, ok bool) {
	end = intEnd(b, i)
	v, err := strconv.ParseInt(string(b[i:end]), 10, bitSize) // "" is an error
	return v, end, err == nil
}

// BatchRequest is the JSON body of POST /v1/batch.
type BatchRequest struct {
	Queries []QueryRequest `json:"queries"`
}

// BatchResponse is the aligned answer list of a batch.
type BatchResponse struct {
	Answers []*QueryResponse `json:"answers"`
}

// appendResponse appends r's JSON encoding, byte for byte what
// encoding/json writes for it (without Encode's trailing newline). The
// envelope and the sssp row are written by hand; the other kinds' small
// payloads go through json.Marshal.
func appendResponse(buf []byte, r *QueryResponse) ([]byte, error) {
	if r == nil {
		return append(buf, "null"...), nil
	}
	buf = append(buf, `{"kind":`...)
	buf = appendString(buf, r.Kind)
	if r.SSSP != nil {
		buf = append(buf, `,"sssp":{"source":`...)
		buf = strconv.AppendInt(buf, r.SSSP.Source, 10)
		buf = append(buf, `,"dist":`...)
		var err error
		if buf, err = appendRow(buf, r.SSSP.Dist); err != nil {
			return buf, err
		}
		buf = append(buf, '}')
	}
	for _, p := range [...]struct {
		key string
		v   any
		set bool
	}{
		{`,"mst":`, r.MST, r.MST != nil},
		{`,"mincut":`, r.MinCut, r.MinCut != nil},
		{`,"twoecss":`, r.TwoECSS, r.TwoECSS != nil},
		{`,"quality":`, r.Quality, r.Quality != nil},
	} {
		if !p.set {
			continue
		}
		raw, err := json.Marshal(p.v)
		if err != nil {
			return buf, err
		}
		buf = append(append(buf, p.key...), raw...)
	}
	if r.Rounds != 0 {
		buf = append(buf, `,"rounds":`...)
		buf = strconv.AppendInt(buf, int64(r.Rounds), 10)
	}
	if r.Messages != 0 {
		buf = append(buf, `,"messages":`...)
		buf = strconv.AppendInt(buf, r.Messages, 10)
	}
	return append(buf, '}'), nil
}

// appendBatch appends a BatchResponse's JSON encoding, each answer through
// appendResponse.
func appendBatch(buf []byte, r *BatchResponse) ([]byte, error) {
	if r.Answers == nil {
		return append(buf, `{"answers":null}`...), nil
	}
	buf = append(buf, `{"answers":[`...)
	for i, a := range r.Answers {
		if i > 0 {
			buf = append(buf, ',')
		}
		var err error
		if buf, err = appendResponse(buf, a); err != nil {
			return buf, err
		}
	}
	return append(buf, "]}"...), nil
}

// appendString appends s as a JSON string. Plain ASCII (every kind name) is
// copied between quotes; anything encoding/json would escape goes through
// json.Marshal, so the bytes always match it.
func appendString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			raw, _ := json.Marshal(s) // a string always marshals
			return append(buf, raw...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// WireEdge is one edge insertion of a delta request.
type WireEdge struct {
	U int64   `json:"u"`
	V int64   `json:"v"`
	W float64 `json:"w"`
}

// DeltaRequest is the JSON body of POST /v1/delta: edge deletions (by
// endpoints) applied before insertions (with weights) — graph.Delta on the
// wire.
type DeltaRequest struct {
	Delete [][2]int64 `json:"delete,omitempty"`
	Insert []WireEdge `json:"insert,omitempty"`
}

// toDelta validates endpoint ranges and maps onto graph.Delta. Weight and
// endpoint semantics are fully validated downstream by graph.ApplyDelta;
// here we only reject values that cannot narrow to a NodeID.
func (d *DeltaRequest) toDelta() (graph.Delta, error) {
	const op = "gateway.delta"
	out := graph.Delta{}
	for i, uv := range d.Delete {
		if !validNode(uv[0]) || !validNode(uv[1]) {
			return out, reproerr.Invalid(op, "delete[%d]: endpoints (%d,%d) out of node-id range", i, uv[0], uv[1])
		}
		out.Delete = append(out.Delete, [2]graph.NodeID{graph.NodeID(uv[0]), graph.NodeID(uv[1])})
	}
	for i, e := range d.Insert {
		if !validNode(e.U) || !validNode(e.V) {
			return out, reproerr.Invalid(op, "insert[%d]: endpoints (%d,%d) out of node-id range", i, e.U, e.V)
		}
		if math.IsNaN(e.W) || math.IsInf(e.W, 0) {
			return out, reproerr.Invalid(op, "insert[%d]: weight %v is not finite", i, e.W)
		}
		out.Insert = append(out.Insert, graph.DeltaEdge{U: graph.NodeID(e.U), V: graph.NodeID(e.V), W: e.W})
	}
	if out.Size() == 0 {
		return out, reproerr.Invalid(op, "empty delta")
	}
	return out, nil
}

func validNode(v int64) bool { return v >= 0 && v <= math.MaxInt32 }

// DeltaResponse reports one applied delta: the new epoch/generation plus
// the repair's shape (see serve.RepairInfo).
type DeltaResponse struct {
	Epoch      uint64  `json:"epoch"`
	Generation uint64  `json:"generation"`
	Touched    int     `json:"touched_parts"`
	Inserted   int     `json:"inserted"`
	Deleted    int     `json:"deleted"`
	Rechecked  int     `json:"rechecked_parts"`
	RepairMs   float64 `json:"repair_ms"`
}

// SwapRequest is the JSON body of POST /v1/snapshot/swap: ship a persisted
// snapshot file into the live epoch protocol. Verify and Mmap default to
// true when absent.
type SwapRequest struct {
	Path   string `json:"path"`
	Verify *bool  `json:"verify,omitempty"`
	Mmap   *bool  `json:"mmap,omitempty"`
}

// SwapResponse reports one completed snapshot swap. Drained is false when
// the request deadline expired while the retired epoch still had pinned
// readers — the swap itself is unconditional and had already happened.
type SwapResponse struct {
	Epoch      uint64 `json:"epoch"`
	Generation uint64 `json:"generation"`
	Drained    bool   `json:"drained"`
}

// ErrorResponse is the JSON body of every non-2xx answer: the message plus
// the machine-readable taxonomy kind the status code was derived from.
type ErrorResponse struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// decodeJSON strictly decodes one JSON body: unknown fields and trailing
// data are rejected, and every failure is a typed KindInvalidInput. Only
// end of input may follow the value: dec.More would report a stray closing
// '}' or ']' as "no more values" and let it through.
func decodeJSON(r io.Reader, into any) error {
	dec := json.NewDecoder(io.LimitReader(r, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return reproerr.Errorf("gateway.decode", reproerr.KindInvalidInput, "invalid request body: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return reproerr.Invalid("gateway.decode", "trailing data after request body")
	}
	return nil
}
