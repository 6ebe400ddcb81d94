// Package reproerr is the repository's typed error taxonomy (API v2).
//
// Every validation failure, budget overrun, bandwidth violation, and
// cancellation across the shortcut framework and its application family is
// reported as an *Error carrying the operation that failed and a machine-
// readable Kind, so callers branch with errors.As/errors.Is instead of
// string matching. The package is a leaf: everything above it — congest,
// sched, shortcut, mst, sssp, mincut, twoecss, serve, and the repro facade
// (which re-exports Error and Kind) — wraps its failures here.
package reproerr

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
)

// Kind classifies an Error for errors.As-based branching.
type Kind uint8

const (
	// KindUnknown is the zero Kind: a wrapped failure with no classification.
	KindUnknown Kind = iota
	// KindInvalidInput marks rejected arguments and options (the v1
	// validation strings: nil Rng, empty graph, out-of-range part, …).
	KindInvalidInput
	// KindBudgetExceeded marks a simulated execution that ran out of its
	// round budget (wraps congest.ErrMaxRounds / sched.ErrMaxRounds).
	KindBudgetExceeded
	// KindBandwidth marks a CONGEST bandwidth violation (two messages on
	// one port in one round; wraps congest.ErrBandwidth).
	KindBandwidth
	// KindCanceled marks a run aborted by context cancellation; the Error
	// wraps context.Canceled, so errors.Is(err, context.Canceled) holds.
	KindCanceled
	// KindDeadline marks a run aborted by a context deadline; the Error
	// wraps context.DeadlineExceeded.
	KindDeadline
	// KindCorrupt marks a persisted artifact (a snapshot file) that failed
	// structural or checksum validation: truncated container, bad magic or
	// section table, checksum mismatch, or cross-section inconsistency.
	KindCorrupt
)

// String returns the kind's stable lowercase name.
func (k Kind) String() string {
	switch k {
	case KindInvalidInput:
		return "invalid input"
	case KindBudgetExceeded:
		return "budget exceeded"
	case KindBandwidth:
		return "bandwidth violation"
	case KindCanceled:
		return "canceled"
	case KindDeadline:
		return "deadline exceeded"
	case KindCorrupt:
		return "corrupt artifact"
	}
	return "unknown"
}

// Error is one classified failure: Op names the operation that failed
// ("shortcut.Build", "mst.Distributed", …), Kind classifies it, and Err
// carries the underlying cause (never nil).
type Error struct {
	Op   string
	Kind Kind
	Err  error
}

// Error formats as "op: cause", matching the v1 message shape so existing
// substring checks keep working.
func (e *Error) Error() string {
	if e.Op == "" {
		return e.Err.Error()
	}
	return e.Op + ": " + e.Err.Error()
}

// Unwrap exposes the cause to errors.Is/errors.As chains.
func (e *Error) Unwrap() error { return e.Err }

// New wraps err as an *Error. A nil err is replaced by the kind's name so
// the result is always a usable error value.
func New(op string, kind Kind, err error) *Error {
	if err == nil {
		err = errors.New(kind.String())
	}
	return &Error{Op: op, Kind: kind, Err: err}
}

// Errorf is New over a formatted cause (supports %w).
func Errorf(op string, kind Kind, format string, args ...any) *Error {
	return &Error{Op: op, Kind: kind, Err: fmt.Errorf(format, args...)}
}

// Invalid is the KindInvalidInput shorthand used by every validation site.
func Invalid(op, format string, args ...any) *Error {
	return Errorf(op, KindInvalidInput, format, args...)
}

// errRngRequired is the uniform cause for every package's Rng validation —
// one message everywhere.
var errRngRequired = errors.New("Rng is required (supply WithSeed)")

// RequireRng returns the uniform KindInvalidInput error when rng is nil.
func RequireRng(op string, rng *rand.Rand) error {
	if rng == nil {
		return New(op, KindInvalidInput, errRngRequired)
	}
	return nil
}

// FromContext classifies a context error: context.Canceled → KindCanceled,
// context.DeadlineExceeded → KindDeadline, anything else KindUnknown. The
// cause is wrapped, so errors.Is(err, context.Canceled) (resp.
// DeadlineExceeded) holds on the result.
func FromContext(op string, err error) *Error {
	kind := KindUnknown
	switch {
	case errors.Is(err, context.Canceled):
		kind = KindCanceled
	case errors.Is(err, context.DeadlineExceeded):
		kind = KindDeadline
	}
	return New(op, kind, err)
}

// CtxCheck polls ctx once and returns the classified cancellation error if
// it is done, nil otherwise (nil ctx always passes). This is the shared
// check every cold-path cancellation point uses; the hot round loops
// prefetch Done() themselves and classify via FromContext.
func CtxCheck(op string, ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return FromContext(op, ctx.Err())
	default:
		return nil
	}
}

// KindOf extracts the Kind of the outermost *Error in err's chain, or
// KindUnknown when there is none.
func KindOf(err error) Kind {
	var e *Error
	if errors.As(err, &e) {
		return e.Kind
	}
	return KindUnknown
}

// httpStatus is the taxonomy's wire mapping, the single table every network
// front end shares. Values are plain integers (not net/http constants) so
// this leaf package stays import-light:
//
//	KindInvalidInput   → 400 Bad Request        (rejected arguments)
//	KindCorrupt        → 422 Unprocessable      (artifact failed validation)
//	KindBudgetExceeded → 429 Too Many Requests  (budget/admission shed)
//	KindCanceled       → 499 Client Closed      (nginx convention)
//	KindDeadline       → 504 Gateway Timeout    (deadline expired)
//	KindBandwidth      → 500 Internal           (simulation invariant broken)
//	KindUnknown        → 500 Internal
var httpStatus = map[Kind]int{
	KindInvalidInput:   400,
	KindCorrupt:        422,
	KindBudgetExceeded: 429,
	KindCanceled:       499,
	KindDeadline:       504,
	KindBandwidth:      500,
	KindUnknown:        500,
}

// HTTPStatus maps a Kind to its HTTP status code (see the table above).
// Kinds outside the taxonomy map to 500.
func HTTPStatus(k Kind) int {
	if s, ok := httpStatus[k]; ok {
		return s
	}
	return 500
}

// HTTPStatusOf is HTTPStatus over KindOf: the status code of err's
// outermost classified error, or 500 for unclassified errors. A nil err is
// 200.
func HTTPStatusOf(err error) int {
	if err == nil {
		return 200
	}
	return HTTPStatus(KindOf(err))
}
