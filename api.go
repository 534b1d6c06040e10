package dbp

import (
	"io"

	"dbp/internal/analysis"
	"dbp/internal/cloud"
	"dbp/internal/item"
	"dbp/internal/opt"
	"dbp/internal/packing"
	"dbp/internal/trace"
	"dbp/internal/workload"
)

// Core model types.
type (
	// Item is one job: a size in (0, 1] (fraction of a unit-capacity
	// server) active on the half-open interval [Arrival, Departure).
	Item = item.Item
	// ID identifies an item within an instance.
	ID = item.ID
	// List is a problem instance (a multiset of items).
	List = item.List
	// Algorithm is an online packing policy: Name and Place, which sees
	// an arrival without its departure time and the open servers, and
	// returns the server to place it on, or nil to open one.
	Algorithm = packing.Algorithm
	// Result is the outcome of one packing run, with full placement
	// history and both objectives (usage time, peak open servers). It
	// copies no job: its Items is the run's own list, and each server
	// record holds its jobs' positions in it, so the list must not change
	// while the Result is read.
	Result = packing.Result
	// Dispatcher drives a policy job-by-job in real time (departures
	// unknown at arrival), as a cloud provider's front end would.
	Dispatcher = packing.Stream
	// Ratio is a measured competitive ratio against an OPT bracket.
	Ratio = analysis.Ratio
	// BillingModel quantizes server runtime into billing quanta.
	BillingModel = cloud.BillingModel
	// Invoice is the renting cost of a run under a billing model.
	Invoice = cloud.Invoice
)

// Dispatcher failure classes. Every error returned by
// Dispatcher.Arrive and Dispatcher.Depart wraps exactly one of these
// sentinels, so callers classify failures with errors.Is instead of
// string matching (the dbpserved daemon maps them onto HTTP 409, 404,
// and 422 responses).
var (
	// ErrDuplicateJob: Arrive for a job ID that is already running.
	ErrDuplicateJob = packing.ErrDuplicateJob
	// ErrUnknownJob: Depart for a job ID that is not running.
	ErrUnknownJob = packing.ErrUnknownJob
	// ErrTimeRegression: an event timestamp before the previous
	// event's (or non-finite); the dispatcher clock only moves forward.
	ErrTimeRegression = packing.ErrTimeRegression
	// ErrBadDemand: a demand no server could ever satisfy, on every
	// front end — a size outside (0, capacity] with no tolerance, a NaN,
	// negative or over-capacity component, the wrong dimensionality, or
	// a Size that is not its vector's largest component.
	ErrBadDemand = packing.ErrBadDemand
	// ErrPolicyMisplace: the policy returned an unusable server — an
	// implementation bug in the policy, not a caller error.
	ErrPolicyMisplace = packing.ErrPolicyMisplace
)

// Policies. Each call returns a fresh, reusable policy instance.

// FirstFit returns the First Fit policy analyzed by the paper: place each
// job in the earliest-opened server with room ((mu+4)-competitive,
// Theorem 1).
func FirstFit() Algorithm { return packing.NewFirstFit() }

// BestFit returns Best Fit (tightest fitting server; unbounded
// competitive ratio for this problem).
func BestFit() Algorithm { return packing.NewBestFit() }

// WorstFit returns Worst Fit (emptiest fitting server).
func WorstFit() Algorithm { return packing.NewWorstFit() }

// NextFit returns Next Fit (single available server; at best
// 2mu-competitive, paper Sec. VIII).
func NextFit() Algorithm { return packing.NewNextFit() }

// HybridFirstFit returns the size-classifying First Fit with k >= 2
// harmonic classes (k = 2 splits at 1/2).
func HybridFirstFit(k int) Algorithm { return packing.NewHybridFirstFit(k) }

// AlgorithmByName returns a policy by its short name ("firstfit",
// "bestfit", "nextfit", ...); see AlgorithmNames.
func AlgorithmByName(name string) (Algorithm, error) { return packing.ByName(name) }

// AlgorithmNames lists the registered policy names.
func AlgorithmNames() []string { return packing.Names() }

// Run simulates the online packing of the instance under the policy and
// returns the complete, verified-able result.
func Run(algo Algorithm, l List) (*Result, error) { return packing.Run(algo, l, nil) }

// MustRun is Run for known-good inputs; it panics on error.
func MustRun(algo Algorithm, l List) *Result { return packing.MustRun(algo, l, nil) }

// NewDispatcher creates a streaming dispatcher with unit-capacity servers
// of the given dimensionality (use 1 for the scalar problem; capacity 0
// means 1.0; a NaN, infinite or negative capacity panics, as does a
// departure-aware policy such as PredictiveFit). On error,
// Arrive and Depart return server index -1 (packing.ErrServer) — never a
// valid index.
func NewDispatcher(algo Algorithm, capacity float64, dim int) *Dispatcher {
	return packing.NewStream(algo, capacity, dim)
}

// Offline optimum and lower bounds.

// OptExact computes OPT_total(R) exactly (branch and bound per timeline
// segment); ok is false if any segment's search hit the node budget.
func OptExact(l List) (total float64, ok bool) { return opt.TotalExact(l) }

// DemandLowerBound is the paper's Proposition 1: OPT_total >= total
// time-space demand. For vector jobs it is the largest per-dimension
// demand, max over k of the sum of s_k(r)*|I(r)|.
func DemandLowerBound(l List) float64 { return opt.DemandLowerBound(l) }

// SpanLowerBound is the paper's Proposition 2: OPT_total >= span(R).
func SpanLowerBound(l List) float64 { return opt.SpanLowerBound(l) }

// MeasureRatio runs the policy and reports its competitive ratio against
// a certified OPT bracket.
func MeasureRatio(algo Algorithm, l List) (Ratio, *Result, error) {
	return analysis.Measure(algo, l)
}

// Theoretical bounds (paper Secs. I, II, VIII; Theorem 1).

// Theorem1Bound returns mu + 4, the paper's upper bound on First Fit's
// competitive ratio.
func Theorem1Bound(mu float64) float64 { return analysis.FirstFitUpperBound(mu) }

// UniversalLowerBound returns mu, the lower bound no online algorithm
// beats.
func UniversalLowerBound(mu float64) float64 { return analysis.AnyOnlineLowerBound(mu) }

// Workload generation.

// GenerateUniform generates n jobs with Poisson(rate) arrivals, uniform
// sizes in [0.05, 0.95] and uniform durations in [1, mu].
func GenerateUniform(n int, rate, mu float64, seed int64) List {
	l, err := workload.FromSpec("uniform", n, rate, mu, seed, 1)
	if err != nil {
		panic(err) // n <= 0 or rate <= 0: a caller bug
	}
	return l
}

// GenerateGaming synthesizes cloud-gaming sessions (the paper's
// motivating application): GPU-share sizes from a four-tier catalog,
// heavy-tailed session lengths with mu <= 60 (time unit: minutes).
func GenerateGaming(n int, rate float64, seed int64) List {
	l, err := workload.FromSpec("gaming", n, rate, 0, seed, 1)
	if err != nil {
		panic(err) // n <= 0 or rate <= 0: a caller bug, as in GenerateUniform
	}
	return l
}

// Adversarial instances (the paper's lower-bound constructions).

// NextFitAdversary builds the Section VIII instance on which Next Fit
// pays n*mu against an optimum of n/2 + mu.
func NextFitAdversary(n int, mu float64) List { return workload.NextFitAdversary(n, mu) }

// AnyFitTrap builds the gap-seal instance pinning First Fit and Best Fit
// to a ratio approaching mu.
func AnyFitTrap(n int, mu float64) List { return workload.AnyFitTrap(n, mu) }

// Trace I/O.

// WriteTraceCSV writes the instance as CSV, sorted by arrival.
func WriteTraceCSV(w io.Writer, l List) error { return trace.WriteCSV(w, l) }

// WriteTraceJSON writes the instance as JSON, sorted by arrival.
func WriteTraceJSON(w io.Writer, l List) error { return trace.WriteJSON(w, l) }

// Billing.

// HourlyBilling returns a per-hour pay-as-you-go plan for a workload
// whose time unit is unitsPerHour-th of an hour.
func HourlyBilling(ratePerHour, unitsPerHour float64) BillingModel {
	return cloud.Hourly(ratePerHour, unitsPerHour)
}

// CostOf prices a completed run under the billing model.
func CostOf(res *Result, m BillingModel) Invoice { return cloud.Cost(res, m) }

// Extended runtime modes.

// RunKeepAlive simulates the policy with emptied servers lingering
// (reusable) for keepAlive time units before shutting down — the cloud
// keep-alive model evaluated by experiment E12. Lingering time counts
// toward TotalUsage.
func RunKeepAlive(algo Algorithm, l List, keepAlive float64) (*Result, error) {
	return packing.Run(algo, l, &packing.Options{KeepAlive: keepAlive})
}

// PredictiveFit returns the learning-augmented baseline: a departure-aware
// rule (join a server whose closing horizon the job does not extend)
// driven by noisy duration predictions (lognormal noise sigma; sigma 0 =
// perfect clairvoyance, No-Extend Fit). The policy declares that it reads
// departures, so Run reveals each job's departure time to it, leaving the
// paper's online model (experiment E13d); a Dispatcher, which knows no
// departure before it happens, refuses it. AlgorithmByName refuses
// "alignfit" and "noextendfit" for the same reason.
func PredictiveFit(sigma float64, seed int64) Algorithm { return packing.NewPredictiveFit(sigma, seed) }

// Heterogeneous fleets (extension; the paper normalizes to unit servers).

type (
	// ServerType is one capacity tier of a heterogeneous fleet.
	ServerType = packing.ServerType
	// TypeChooser picks the tier to open for a job no open server takes.
	TypeChooser = packing.TypeChooser
	// RatePlan prices a heterogeneous fleet per capacity tier.
	RatePlan = cloud.RatePlan
	// TierRate prices one tier of a RatePlan.
	TierRate = cloud.TierRate
)

// RunFleet simulates online packing over a multi-tier server catalog;
// chooser (nil = RightSizeChooser) picks the tier whenever a new server
// opens.
func RunFleet(algo Algorithm, l List, fleet []ServerType, chooser TypeChooser) (*Result, error) {
	return packing.RunFleet(algo, l, fleet, chooser, nil)
}

// RightSizeChooser opens the smallest tier that fits the arriving job.
func RightSizeChooser() TypeChooser { return packing.RightSize() }

// LargestTypeChooser always opens the largest tier.
func LargestTypeChooser() TypeChooser { return packing.LargestType() }

// CostOfFleet prices a heterogeneous-fleet run under a tiered plan.
func CostOfFleet(res *Result, p RatePlan) Invoice { return cloud.CostFleet(res, p) }

// WriteAssignment exports a run's per-job server assignment as CSV.
func WriteAssignment(w io.Writer, res *Result) error { return trace.WriteAssignment(w, res) }
