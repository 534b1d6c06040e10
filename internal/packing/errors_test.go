package packing

import (
	"errors"
	"math"
	"strings"
	"testing"

	"dbp/internal/item"
)

// TestStreamErrorClasses checks that every Stream rejection unwraps to
// exactly one sentinel via errors.Is and that the diagnostic messages
// kept their pre-sentinel text (the service layer matches classes, but
// humans still read the messages).
func TestStreamErrorClasses(t *testing.T) {
	sentinels := []error{ErrDuplicateJob, ErrUnknownJob, ErrTimeRegression, ErrBadDemand, ErrPolicyMisplace}
	cases := []struct {
		name    string
		trigger func(s *Stream) error
		want    error
		msg     string
	}{
		{
			name: "duplicate arrive",
			trigger: func(s *Stream) error {
				s.Arrive(1, 0.5, nil, 0)
				_, _, err := s.Arrive(1, 0.5, nil, 1)
				return err
			},
			want: ErrDuplicateJob,
			msg:  "already running",
		},
		{
			name: "depart unknown",
			trigger: func(s *Stream) error {
				_, _, err := s.Depart(99, 0)
				return err
			},
			want: ErrUnknownJob,
			msg:  "is not running",
		},
		{
			name: "time regression",
			trigger: func(s *Stream) error {
				s.Arrive(1, 0.5, nil, 5)
				_, _, err := s.Arrive(2, 0.5, nil, 4)
				return err
			},
			want: ErrTimeRegression,
			msg:  "time went backwards",
		},
		{
			name: "non-finite time",
			trigger: func(s *Stream) error {
				_, _, err := s.Arrive(1, 0.5, nil, math.NaN())
				return err
			},
			want: ErrTimeRegression,
			msg:  "non-finite time",
		},
		{
			name: "oversized job",
			trigger: func(s *Stream) error {
				_, _, err := s.Arrive(1, 1.5, nil, 0)
				return err
			},
			want: ErrBadDemand,
			msg:  "cannot fit any server",
		},
		{
			name: "non-positive size",
			trigger: func(s *Stream) error {
				_, _, err := s.Arrive(1, 0, nil, 0)
				return err
			},
			want: ErrBadDemand,
			msg:  "cannot fit any server",
		},
		{
			name: "dimension mismatch",
			trigger: func(s *Stream) error {
				_, _, err := s.Arrive(1, 0.5, []float64{0.5, 0.5}, 0)
				return err
			},
			want: ErrBadDemand,
			msg:  "has dim",
		},
		{
			name: "oversized vector component",
			trigger: func(s *Stream) error {
				s2 := NewStream(NewFirstFit(), 1, 2)
				_, _, err := s2.Arrive(1, 0.5, []float64{0.5, 1.5}, 0)
				return err
			},
			want: ErrBadDemand,
			msg:  "cannot fit any server",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.trigger(NewStream(NewFirstFit(), 1, 1))
			if err == nil {
				t.Fatal("expected an error")
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("errors.Is(%v, %v) = false", err, tc.want)
			}
			for _, s := range sentinels {
				if s != tc.want && errors.Is(err, s) {
					t.Errorf("error %v also matches unrelated sentinel %v", err, s)
				}
			}
			if !strings.Contains(err.Error(), tc.msg) {
				t.Errorf("message %q lost its diagnostic %q", err, tc.msg)
			}
			if !strings.HasPrefix(err.Error(), "packing: ") {
				t.Errorf("message %q lost its package prefix", err)
			}
		})
	}
}

// TestRunSharesStreamSentinels: Run routes demand validation and the
// misplace check through the same engine core as Stream, so batch runs
// reject impossible demands and policy bugs with the identical typed
// sentinels instead of panicking mid-simulation (the simulator used to
// lack Stream's vector-demand validation entirely).
func TestRunSharesStreamSentinels(t *testing.T) {
	// Scalar demand exceeding a sub-unit fleet capacity.
	over := item.List{{ID: 1, Size: 0.9, Arrival: 0, Departure: 1}}
	if _, err := Run(NewFirstFit(), over, &Options{Capacity: 0.5}); !errors.Is(err, ErrBadDemand) {
		t.Fatalf("oversized scalar: err = %v, want ErrBadDemand", err)
	}
	// Vector demand with a component exceeding capacity.
	vec := item.List{{ID: 1, Size: 0.9, Sizes: []float64{0.2, 0.9}, Arrival: 0, Departure: 1}}
	if _, err := Run(NewFirstFit(), vec, &Options{Capacity: 0.5}); !errors.Is(err, ErrBadDemand) {
		t.Fatalf("oversized vector: err = %v, want ErrBadDemand", err)
	}
	// A policy returning a non-fitting bin aborts with ErrPolicyMisplace.
	clash := item.List{
		{ID: 1, Size: 0.9, Arrival: 0, Departure: 10},
		{ID: 2, Size: 0.9, Arrival: 1, Departure: 10},
	}
	if _, err := Run(faultyFullBin{}, clash, nil); !errors.Is(err, ErrPolicyMisplace) {
		t.Fatalf("misplacing policy: err = %v, want ErrPolicyMisplace", err)
	}
}

// TestSnapshotAccessors exercises UsageTime and Snapshot against the
// stream's existing accessors on a small deterministic run.
func TestSnapshotAccessors(t *testing.T) {
	s := NewStream(NewFirstFit(), 1, 1)
	s.Arrive(1, 0.625, nil, 0)
	s.Arrive(2, 0.625, nil, 1) // does not fit with job 1: second server
	s.Arrive(3, 0.25, nil, 2)  // first-fits onto server 0
	s.Depart(1, 4)

	snap := s.Snapshot()
	if snap.Now != 4 || snap.Events != 4 {
		t.Fatalf("snapshot clock/events = %g/%d, want 4/4", snap.Now, snap.Events)
	}
	if snap.OpenServers != 2 || snap.ServersUsed != 2 || snap.PeakServers != 2 {
		t.Fatalf("snapshot servers = %+v", snap)
	}
	// Server 0 open [0,4) so far, server 1 open [1,4): usage 4 + 3.
	if want := 7.0; snap.UsageTime != want || s.UsageTime() != want {
		t.Fatalf("usage = %g / %g, want %g", snap.UsageTime, s.UsageTime(), want)
	}
	if s.UsageTime() != s.AccumulatedUsage(s.Now()) {
		t.Fatal("UsageTime disagrees with AccumulatedUsage(Now)")
	}
	if len(snap.Servers) != 2 {
		t.Fatalf("got %d server states, want 2", len(snap.Servers))
	}
	s0, s1 := snap.Servers[0], snap.Servers[1]
	if s0.Index != 0 || s0.Level != 0.25 || s0.Jobs != 1 || s0.OpenedAt != 0 {
		t.Fatalf("server 0 state = %+v", s0)
	}
	if s1.Index != 1 || s1.Level != 0.625 || s1.Jobs != 1 || s1.OpenedAt != 1 {
		t.Fatalf("server 1 state = %+v", s1)
	}
	// The snapshot must be detached from the live stream.
	s.Depart(2, 5)
	if snap.OpenServers != 2 || len(snap.Servers) != 2 {
		t.Fatal("snapshot mutated by later stream events")
	}
}
