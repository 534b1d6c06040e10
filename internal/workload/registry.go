package workload

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"dbp/internal/item"
)

// The scenario registry (YCSB's Workloads-map pattern): every workload
// family this repo can generate — statistical shapes, the paper's
// adversarial constructions, and trace replay — registers itself here
// under a stable name with a one-line description and a typed parameter
// schema. FromSpec is the registry's one front door: consumers (the load
// generator, the experiment tables, the five CLIs, the benchmark, the
// equivalence suite) build every generated list from a spec string, so a
// new family joins every pipeline by registration alone.
//
// A spec is "name" or "name:key=value,key=value"; the trace scenario
// uses "trace:<path>" (the remainder is the file path, .gz transparent).

// ErrScalarOnly is returned by FromSpec, wrapped, when a scenario has no
// vector-demand form and the request asks for dim > 1. Sweeps over the
// registry use errors.Is to skip such scenarios rather than fail.
var ErrScalarOnly = errors.New("workload: scenario has no vector-demand form")

// ScenarioKind classifies a scenario for sweeps that want a family
// subset (e.g. E9 iterates the statistical families only — adversarial
// constructions would swamp a mean-ratio table by design).
type ScenarioKind int

const (
	// KindStatistical marks random-arrival families (seeded, rate/mu
	// driven) suitable for mean-ratio sweeps.
	KindStatistical ScenarioKind = iota
	// kindAdversarial marks the paper's lower-bound constructions:
	// deterministic, seed- and rate-insensitive.
	kindAdversarial
	// kindTrace marks replay of an external trace file.
	kindTrace
)

// name names the kind for listings.
func (k ScenarioKind) name() string {
	switch k {
	case KindStatistical:
		return "statistical"
	case kindAdversarial:
		return "adversarial"
	default:
		return "trace"
	}
}

// paramKind types a scenario parameter.
type paramKind int

const (
	paramFloat paramKind = iota
	paramInt
	paramString
)

// param is one entry of a scenario's parameter schema: a named, typed,
// documented knob with a default, settable via "name:key=value,...".
type param struct {
	Name    string
	Kind    paramKind
	Default string
	Doc     string
}

// request carries the common generation knobs every scenario receives
// plus the validated parameter values (defaults overlaid with the spec's
// key=value overrides).
type request struct {
	N      int
	Rate   float64
	Mu     float64
	Seed   int64
	Dim    int
	params map[string]string
}

// floatParam returns a float parameter. The value was validated at lookup
// time; asking for an undeclared parameter is a scenario bug and panics.
func (r request) floatParam(name string) float64 {
	v, err := strconv.ParseFloat(r.param(name), 64)
	if err != nil {
		panic(fmt.Sprintf("workload: param %q is not a float: %v", name, err))
	}
	return v
}

// intParam returns an integer parameter.
func (r request) intParam(name string) int {
	v, err := strconv.Atoi(r.param(name))
	if err != nil {
		panic(fmt.Sprintf("workload: param %q is not an int: %v", name, err))
	}
	return v
}

func (r request) param(name string) string {
	v, ok := r.params[name]
	if !ok {
		panic(fmt.Sprintf("workload: scenario read undeclared param %q", name))
	}
	return v
}

// Scenario is a named, self-describing workload family: a description,
// a kind, a parameter schema, whether it has a vector-demand form, and
// the hook that generates it. The hook must be deterministic given
// (request.Seed, params).
type Scenario struct {
	name, desc string
	kind       ScenarioKind
	params     []param
	vector     bool
	gen        func(req request) (item.List, error)
}

// Name returns the name a spec selects the scenario by.
func (s *Scenario) Name() string { return s.name }

// Kind returns the scenario's family.
func (s *Scenario) Kind() ScenarioKind { return s.kind }

var registry = map[string]*Scenario{}

// register adds a scenario to the package registry. Duplicate names and
// malformed parameter defaults are programmer errors and panic; every
// scenario registers from this package's init, so any mistake fails the
// first test run.
func register(s *Scenario) {
	if s.name == "" || strings.ContainsAny(s.name, ": ,=") {
		panic(fmt.Sprintf("workload: invalid scenario name %q", s.name))
	}
	if _, dup := registry[s.name]; dup {
		panic(fmt.Sprintf("workload: scenario %q registered twice", s.name))
	}
	for _, p := range s.params {
		if err := checkParamValue(p, p.Default); err != nil {
			panic(fmt.Sprintf("workload: scenario %q default: %v", s.name, err))
		}
	}
	registry[s.name] = s
}

// checkParamValue verifies a value parses as the parameter's kind.
func checkParamValue(p param, v string) error {
	switch p.Kind {
	case paramFloat:
		if _, err := strconv.ParseFloat(v, 64); err != nil {
			return fmt.Errorf("param %s=%q: not a float", p.Name, v)
		}
	case paramInt:
		if _, err := strconv.Atoi(v); err != nil {
			return fmt.Errorf("param %s=%q: not an int", p.Name, v)
		}
	}
	return nil
}

// Scenarios returns every registered scenario sorted by name.
func Scenarios() []*Scenario {
	out := make([]*Scenario, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// lookup parses a spec string ("name" or "name:key=value,..." or
// "trace:<path>") against the registry and returns the scenario with its
// parameter values. Unknown names and unknown or ill-typed parameters
// are errors; the unknown-name error enumerates the whole registry so a
// stale CLI invocation is self-correcting.
func lookup(spec string) (*Scenario, map[string]string, error) {
	name, rest, hasRest := strings.Cut(spec, ":")
	if name == "" {
		return nil, nil, fmt.Errorf("workload: no scenario given; registered scenarios:\n%s", describe())
	}
	s, ok := registry[name]
	if !ok {
		return nil, nil, fmt.Errorf("workload: unknown scenario %q; registered scenarios:\n%s", name, describe())
	}
	schema := map[string]param{}
	params := map[string]string{}
	for _, p := range s.params {
		schema[p.Name] = p
		params[p.Name] = p.Default
	}
	if s.kind == kindTrace {
		// The remainder of a trace spec is the file path verbatim (paths
		// may contain '=' and ','; they are not key=value lists).
		params["path"] = rest
		return s, params, nil
	}
	if hasRest && rest != "" {
		for _, kv := range strings.Split(rest, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return nil, nil, fmt.Errorf("workload: %s: malformed param %q (want key=value)", name, kv)
			}
			p, known := schema[k]
			if !known {
				return nil, nil, fmt.Errorf("workload: %s has no param %q (has: %s)", name, k, paramNames(s))
			}
			if err := checkParamValue(p, v); err != nil {
				return nil, nil, fmt.Errorf("workload: %s: %w", name, err)
			}
			params[k] = v
		}
	}
	return s, params, nil
}

// FromSpec is the one way to build a list from the registry: it resolves
// the spec and generates n jobs arriving at the given rate with duration
// ratio mu, seeded, with dim-dimensional demands (dim <= 1 is scalar).
// Adversarial scenarios interpret n as their construction parameter and
// ignore rate and seed; a scenario without a vector form refuses dim > 1
// with ErrScalarOnly.
func FromSpec(spec string, n int, rate, mu float64, seed int64, dim int) (item.List, error) {
	s, params, err := lookup(spec)
	if err != nil {
		return nil, err
	}
	dim = max(dim, 1)
	var l item.List
	if dim > 1 && !s.vector {
		err = ErrScalarOnly
	} else {
		l, err = s.gen(request{N: n, Rate: rate, Mu: mu, Seed: seed, Dim: dim, params: params})
	}
	if err != nil {
		return nil, fmt.Errorf("workload: %s: %w", s.name, err)
	}
	return l, nil
}

// describe renders the registry as a self-documenting listing: one
// scenario per block with its kind, description, and parameter schema.
// This is the -list-workloads output and the unknown-name error body.
func describe() string {
	var b strings.Builder
	for _, s := range Scenarios() {
		name := s.name
		if s.kind == kindTrace {
			name += ":<path>"
		}
		fmt.Fprintf(&b, "  %-16s %-12s %s\n", name, "["+s.kind.name()+"]", s.desc)
		for _, p := range s.params {
			if s.kind == kindTrace && p.Name == "path" {
				continue // the path rides in the spec itself
			}
			fmt.Fprintf(&b, "  %-16s   %s=%s — %s\n", "", p.Name, p.Default, p.Doc)
		}
	}
	return b.String()
}

// List writes the registry listing with its header: the body of the
// -list-workloads flag every CLI carries.
func List(w io.Writer) {
	fmt.Fprintf(w, "registered workload scenarios (spec: name or name:key=value,...):\n%s", describe())
}

// paramNames lists a scenario's parameter names for error messages.
func paramNames(s *Scenario) string {
	if len(s.params) == 0 {
		return "none"
	}
	names := make([]string, len(s.params))
	for i, p := range s.params {
		names[i] = p.Name
	}
	return strings.Join(names, ", ")
}
