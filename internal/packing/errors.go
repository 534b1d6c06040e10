package packing

import (
	"errors"
	"fmt"

	"dbp/internal/item"
)

// Typed failure classes. Stream.Arrive and Stream.Depart wrap every
// rejection in exactly one of these sentinels, and Run, RunFleet and
// Replay a bad demand in ErrBadDemand, so callers (notably the
// allocation service in internal/serve) can classify failures with
// errors.Is instead of string matching and map them onto protocol-level
// responses (409, 404, 422, ...). The wrapped errors keep their full
// diagnostic messages.
var (
	// ErrDuplicateJob: Arrive for a job ID that is already running.
	ErrDuplicateJob = errors.New("duplicate job")
	// ErrUnknownJob: Depart for a job ID that is not running.
	ErrUnknownJob = errors.New("unknown job")
	// ErrTimeRegression: an event timestamp earlier than the previous
	// event's, or a non-finite timestamp. The stream's clock only moves
	// forward.
	ErrTimeRegression = errors.New("time regression")
	// ErrBadDemand: a job demand no server could ever satisfy, on every
	// front end — a size outside (0, capacity] (no tolerance), a NaN,
	// negative or over-capacity component, the wrong dimensionality, or
	// a vector demand whose Size is not its largest component
	// (item.CheckDemand is the rule).
	ErrBadDemand = errors.New("bad demand")
	// ErrPolicyMisplace: the placement policy returned a closed or
	// overfull bin. This is a policy implementation bug, not a caller
	// error.
	ErrPolicyMisplace = errors.New("policy misplacement")
	// ErrSnapshotMismatch: RestoreStream was handed a snapshot that is
	// internally inconsistent or does not match the policy/configuration
	// it is being restored under (durable recovery refuses to guess).
	ErrSnapshotMismatch = errors.New("snapshot mismatch")
)

// streamError carries a fully formatted diagnostic message while
// unwrapping to its sentinel class, so errors.Is(err, ErrX) works
// without the sentinel's text leaking into the message.
type streamError struct {
	kind error
	msg  string
}

func (e *streamError) Error() string { return e.msg }
func (e *streamError) Unwrap() error { return e.kind }

// failf builds a streamError of the given class with a printf-style
// message (identical to the former fmt.Errorf text).
func failf(kind error, format string, args ...any) error {
	return &streamError{kind: kind, msg: fmt.Sprintf(format, args...)}
}

// admission maps a failed item check to its class, the same on every
// front end: a demand fault (*item.DemandError) is ErrBadDemand, any other
// fault of a list (an interval, a duplicate ID) an invalid instance.
func admission(err error) error {
	var demand *item.DemandError
	if errors.As(err, &demand) {
		return failf(ErrBadDemand, "packing: %v", err)
	}
	return fmt.Errorf("packing: invalid instance: %w", err)
}
