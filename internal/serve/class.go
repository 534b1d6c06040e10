package serve

import (
	"errors"
	"net/http"

	"dbp/internal/packing"
)

// Class is one class of the dispatcher's answers: success or one
// rejection. It is the contract every surface reports against — the
// HTTP status and error code, the wire status byte, the /v1/stats
// rejected counters and the load generator's error buckets. Its value
// is the wire status byte, so classes are appended, never renumbered.
type Class uint8

// classes is the taxonomy, one row per Class: the sentinel an error of
// the class wraps, the stable code, and the HTTP status. The internal
// row has no sentinel: it takes every error no other row claims.
var classes = [...]struct {
	err  error
	code string
	http int
}{
	{nil, "", http.StatusOK},
	{packing.ErrDuplicateJob, "duplicate_job", http.StatusConflict},
	{packing.ErrUnknownJob, "unknown_job", http.StatusNotFound},
	{packing.ErrBadDemand, "bad_demand", http.StatusUnprocessableEntity},
	{packing.ErrTimeRegression, "time_regression", http.StatusUnprocessableEntity},
	{packing.ErrPolicyMisplace, "policy_misplace", http.StatusInternalServerError},
	{ErrClosed, "shutting_down", http.StatusServiceUnavailable},
	{nil, "internal", http.StatusInternalServerError},
	{ErrDurability, "durability_failed", http.StatusServiceUnavailable},
}

const (
	// ClassOK is success: no error, no code, HTTP 200.
	ClassOK Class = 0
	// ClassInternal is every error no sentinel row claims, and every
	// status byte this table does not know (sent by a newer server).
	ClassInternal Class = 7
	// NumClasses is the number of classes, ClassOK included.
	NumClasses = len(classes)
)

// ClassOf returns the class of a dispatcher error: ClassOK for nil,
// else the first row whose sentinel err wraps, else ClassInternal.
func ClassOf(err error) Class {
	if err == nil {
		return ClassOK
	}
	return classify(err)
}

func classify(err error) Class {
	for c := range classes {
		if s := classes[c].err; s != nil && errors.Is(err, s) {
			return Class(c)
		}
	}
	return ClassInternal
}

// Code is the class's stable machine-readable code ("" for ClassOK).
func (c Class) Code() string { return classes[c.known()].code }

// HTTPStatus is the status the HTTP API answers the class with.
func (c Class) HTTPStatus() int { return classes[c.known()].http }

// Err is the sentinel the class's errors wrap (nil for ClassOK and
// ClassInternal).
func (c Class) Err() error { return classes[c.known()].err }

func (c Class) known() Class {
	if int(c) < len(classes) {
		return c
	}
	return ClassInternal
}
