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
// schema. Consumers (the load driver, the experiment tables, the five
// CLIs, the equivalence suite) select workloads exclusively by spec
// string, so a new family joins every pipeline by registration alone.
//
// A spec is "name" or "name:key=value,key=value"; the trace scenario
// uses "trace:<path>" (the remainder is the file path, .gz transparent).

// ErrScalarOnly is returned by Generate when a scenario has no
// vector-demand form and the request asks for Dim > 1. Sweeps over the
// registry use errors.Is to skip such scenarios rather than fail.
var ErrScalarOnly = errors.New("workload: scenario has no vector-demand form")

// ScenarioKind classifies a scenario for sweeps that want a family
// subset (e.g. E9 iterates the statistical families only — adversarial
// constructions would swamp a mean-ratio table by design).
type ScenarioKind int

const (
	// kindStatistical marks random-arrival families (seeded, rate/mu
	// driven) suitable for mean-ratio sweeps.
	kindStatistical ScenarioKind = iota
	// kindAdversarial marks the paper's lower-bound constructions:
	// deterministic, seed- and rate-insensitive.
	kindAdversarial
	// KindTrace marks replay of an external trace file.
	KindTrace
)

// String names the kind for listings.
func (k ScenarioKind) String() string {
	switch k {
	case kindStatistical:
		return "statistical"
	case kindAdversarial:
		return "adversarial"
	default:
		return "trace"
	}
}

// ParamKind types a scenario parameter.
type ParamKind int

const (
	paramFloat ParamKind = iota
	paramInt
	paramString
)

// Param is one entry of a scenario's parameter schema: a named, typed,
// documented knob with a default, settable via "name:key=value,...".
type Param struct {
	Name    string
	Kind    ParamKind
	Default string
	Doc     string
}

// Request carries the common generation knobs every scenario receives
// plus the validated parameter values (defaults overlaid with the spec's
// key=value overrides).
type Request struct {
	N      int
	Rate   float64
	Mu     float64
	Seed   int64
	Dim    int
	params map[string]string
}

// Float returns a float parameter. The value was validated at lookup
// time; asking for an undeclared parameter is a scenario bug and panics.
func (r Request) Float(name string) float64 {
	v, err := strconv.ParseFloat(r.param(name), 64)
	if err != nil {
		panic(fmt.Sprintf("workload: param %q is not a float: %v", name, err))
	}
	return v
}

// Int returns an integer parameter.
func (r Request) Int(name string) int {
	v, err := strconv.Atoi(r.param(name))
	if err != nil {
		panic(fmt.Sprintf("workload: param %q is not an int: %v", name, err))
	}
	return v
}

// Str returns a string parameter.
func (r Request) Str(name string) string { return r.param(name) }

func (r Request) param(name string) string {
	v, ok := r.params[name]
	if !ok {
		panic(fmt.Sprintf("workload: scenario read undeclared param %q", name))
	}
	return v
}

// Scenario is a named, self-describing workload family. Implementations
// must be deterministic given (Request.Seed, params) and must return
// ErrScalarOnly (wrapped is fine) when Dim > 1 is requested but
// unsupported.
type Scenario interface {
	Name() string
	Description() string
	Kind() ScenarioKind
	Params() []Param
	Generate(req Request) (item.List, error)
}

var registry = map[string]Scenario{}

// register adds a scenario to the package registry. Duplicate names and
// malformed parameter defaults are programmer errors and panic; every
// scenario registers from this package's init, so any mistake fails the
// first test run.
func register(s Scenario) {
	name := s.Name()
	if name == "" || strings.ContainsAny(name, ": ,=") {
		panic(fmt.Sprintf("workload: invalid scenario name %q", name))
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("workload: scenario %q registered twice", name))
	}
	for _, p := range s.Params() {
		if err := checkParamValue(p, p.Default); err != nil {
			panic(fmt.Sprintf("workload: scenario %q default: %v", name, err))
		}
	}
	registry[name] = s
}

// checkParamValue verifies a value parses as the parameter's kind.
func checkParamValue(p Param, v string) error {
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
func Scenarios() []Scenario {
	out := make([]Scenario, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// Statistical returns the registered statistical scenarios sorted by
// name — the family the mean-ratio experiment sweeps iterate.
func Statistical() []Scenario {
	var out []Scenario
	for _, s := range Scenarios() {
		if s.Kind() == kindStatistical {
			out = append(out, s)
		}
	}
	return out
}

// Instance binds a scenario to validated parameter values, ready to
// generate instances of any size.
type Instance struct {
	Scenario
	params map[string]string
}

// lookup parses a spec string ("name" or "name:key=value,..." or
// "trace:<path>") against the registry. Unknown names and unknown or
// ill-typed parameters are errors; the unknown-name error enumerates the
// whole registry so a stale CLI invocation is self-correcting.
func lookup(spec string) (Instance, error) {
	name, rest, hasRest := strings.Cut(spec, ":")
	if name == "" {
		return Instance{}, fmt.Errorf("workload: no scenario given; registered scenarios:\n%s", describe())
	}
	s, ok := registry[name]
	if !ok {
		return Instance{}, fmt.Errorf("workload: unknown scenario %q; registered scenarios:\n%s", name, describe())
	}
	schema := map[string]Param{}
	params := map[string]string{}
	for _, p := range s.Params() {
		schema[p.Name] = p
		params[p.Name] = p.Default
	}
	if s.Kind() == KindTrace {
		// The remainder of a trace spec is the file path verbatim (paths
		// may contain '=' and ','; they are not key=value lists).
		params["path"] = rest
		return Instance{Scenario: s, params: params}, nil
	}
	if hasRest && rest != "" {
		for _, kv := range strings.Split(rest, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return Instance{}, fmt.Errorf("workload: %s: malformed param %q (want key=value)", name, kv)
			}
			p, known := schema[k]
			if !known {
				return Instance{}, fmt.Errorf("workload: %s has no param %q (has: %s)", name, k, paramNames(s))
			}
			if err := checkParamValue(p, v); err != nil {
				return Instance{}, fmt.Errorf("workload: %s: %w", name, err)
			}
			params[k] = v
		}
	}
	return Instance{Scenario: s, params: params}, nil
}

// MustLookup is lookup for specs known at compile time (experiment
// tables); it panics on error.
func MustLookup(spec string) Instance {
	in, err := lookup(spec)
	if err != nil {
		panic(err)
	}
	return in
}

// Generate produces an instance of the scenario: n jobs arriving at the
// given rate with duration ratio mu, seeded, with dim-dimensional
// demands (dim <= 1 is scalar). Adversarial scenarios interpret n as
// their construction parameter and ignore rate and seed.
func (in Instance) Generate(n int, rate, mu float64, seed int64, dim int) (item.List, error) {
	if dim < 1 {
		dim = 1
	}
	req := Request{N: n, Rate: rate, Mu: mu, Seed: seed, Dim: dim, params: in.params}
	l, err := in.Scenario.Generate(req)
	if err != nil {
		return nil, fmt.Errorf("workload: %s: %w", in.Name(), err)
	}
	return l, nil
}

// FromSpec is the one-call path every consumer uses: resolve the spec
// in the registry and generate.
func FromSpec(spec string, n int, rate, mu float64, seed int64, dim int) (item.List, error) {
	in, err := lookup(spec)
	if err != nil {
		return nil, err
	}
	return in.Generate(n, rate, mu, seed, dim)
}

// describe renders the registry as a self-documenting listing: one
// scenario per block with its kind, description, and parameter schema.
// This is the -list-workloads output and the unknown-name error body.
func describe() string {
	var b strings.Builder
	for _, s := range Scenarios() {
		name := s.Name()
		if s.Kind() == KindTrace {
			name += ":<path>"
		}
		fmt.Fprintf(&b, "  %-16s %-12s %s\n", name, "["+s.Kind().String()+"]", s.Description())
		for _, p := range s.Params() {
			if s.Kind() == KindTrace && p.Name == "path" {
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
func paramNames(s Scenario) string {
	ps := s.Params()
	if len(ps) == 0 {
		return "none"
	}
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return strings.Join(names, ", ")
}
