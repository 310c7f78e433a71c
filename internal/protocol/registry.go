package protocol

import (
	"fmt"
	"sort"
	"sync"

	"distmwis/internal/congest"
	"distmwis/internal/graph"
)

// Kind partitions the registry by algorithm role.
type Kind int

const (
	// KindSolver is a full MaxIS approximation pipeline, resolvable via
	// maxis.Solve and the serving API.
	KindSolver Kind = iota + 1
	// KindMIS is an MIS black box (the paper's MIS(n,Δ)), pluggable into
	// any solver via Config.MIS.
	KindMIS
	// KindColoring is a colouring protocol (Section 8 machinery).
	KindColoring
)

// String implements fmt.Stringer for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindSolver:
		return "solver"
	case KindMIS:
		return "mis"
	case KindColoring:
		return "coloring"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Params are the per-request algorithm parameters. Solvers validate and
// default them through Normalize; parameters an algorithm does not consume
// pass through untouched.
type Params struct {
	// Eps is the approximation parameter ε of the boosted pipelines
	// (theorem1/2/3/5); ignored by the rest.
	Eps float64
	// Alpha is the arboricity bound of theorem3 (0 selects the
	// degeneracy-based estimator).
	Alpha int
}

// ParamError reports a parameter rejected by a solver's Normalize. Param
// names the offending parameter ("eps", "alpha") so flag-based frontends
// can map it back to their flag spelling.
type ParamError struct {
	// Param is the parameter name as spelled in Params (lower case).
	Param string
	// Detail completes the sentence "<param> <detail>".
	Detail string
}

func (e *ParamError) Error() string { return e.Param + " " + e.Detail }

// Algorithm is one registered algorithm: the common surface every kind
// shares. Concrete kinds extend it (Solver, Proto).
type Algorithm interface {
	// Name is the registry key, unique within the algorithm's Kind.
	Name() string
	// Kind reports the registry partition the algorithm belongs to.
	Kind() Kind
	// Describe is a one-line human-readable summary used in CLI help text
	// and API error messages.
	Describe() string
}

// Solver is a registered MaxIS approximation pipeline.
type Solver interface {
	Algorithm
	// Normalize validates p and fills algorithm-specific defaults. It must
	// be side-effect free; implementations return *ParamError for
	// parameter-shaped failures.
	Normalize(p Params) (Params, error)
	// Run executes the pipeline. Implementations inherit every
	// cross-cutting seam (faults, tracing, reliable transport,
	// checkpointing, worker count) from cfg via Config.Sim.
	Run(g *graph.Graph, p Params, cfg Config) (*Result, error)
	// Guarantee renders the human-readable approximation guarantee for the
	// given instance; res is the completed run (some guarantees report
	// run-dependent bounds). May return "" when no closed form applies.
	Guarantee(g *graph.Graph, p Params, res *Result) string
	// Meta reports the solver's cost/guarantee metadata for the planner
	// layer. Returning the zero Meta opts out of planning (the solver stays
	// addressable by name only).
	Meta() Meta
}

// Proto is a registered single-protocol algorithm — one congest process
// per node — such as an MIS black box or a colouring protocol. The
// optional per-process hooks (reliable.Checkpointer for crash recovery,
// congest.PhaseLabeler for tracing) are interface assertions on the
// processes the runner builds, made by the layers that use them.
type Proto interface {
	Algorithm
	// Run runs the protocol on g and returns every node's output as an
	// integer: a membership flag as 0 or 1, a colour as itself.
	Run(g *graph.Graph, c congest.Config) (*congest.Result, []int, error)
}

// ProtoRunner is the runner of a registered single protocol (Proto.Run).
type ProtoRunner func(g *graph.Graph, c congest.Config) (*congest.Result, []int, error)

// protoEntry adapts a runner (plus metadata) to Proto; MIS entries
// additionally carry the black-box implementation.
type protoEntry struct {
	name     string
	kind     Kind
	describe string
	run      ProtoRunner
	mis      MIS
}

func (e *protoEntry) Name() string     { return e.name }
func (e *protoEntry) Kind() Kind       { return e.kind }
func (e *protoEntry) Describe() string { return e.describe }
func (e *protoEntry) Run(g *graph.Graph, c congest.Config) (*congest.Result, []int, error) {
	return e.run(g, c)
}

var (
	mu         sync.RWMutex
	algorithms = map[Kind]map[string]Algorithm{}
	defaultMIS string
)

// Register adds a to the registry. It panics on a nil algorithm, an empty
// name, an unknown kind, or a duplicate (kind, name) pair — registration
// happens in package init functions, where failing loudly at first use is
// the only useful behaviour.
func Register(a Algorithm) {
	if a == nil {
		panic("protocol: Register called with nil algorithm")
	}
	name, kind := a.Name(), a.Kind()
	if name == "" {
		panic("protocol: Register called with empty algorithm name")
	}
	switch kind {
	case KindSolver, KindMIS, KindColoring:
	default:
		panic(fmt.Sprintf("protocol: Register %q: unknown kind %v", name, kind))
	}
	if kind == KindSolver {
		if _, ok := a.(Solver); !ok {
			panic(fmt.Sprintf("protocol: Register %q: KindSolver algorithms must implement Solver", name))
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if algorithms[kind] == nil {
		algorithms[kind] = map[string]Algorithm{}
	}
	if _, dup := algorithms[kind][name]; dup {
		panic(fmt.Sprintf("protocol: duplicate registration of %v algorithm %q", kind, name))
	}
	algorithms[kind][name] = a
}

// RegisterMIS registers an MIS black box under its own Name. The first
// registered box becomes the Config.MIS default unless SetDefaultMIS
// overrides it.
func RegisterMIS(m MIS, describe string) {
	run := func(g *graph.Graph, c congest.Config) (*congest.Result, []int, error) {
		set := make([]bool, g.N())
		res, err := m.Run(g, c, set)
		out := make([]int, len(set))
		for v, in := range set {
			if in {
				out[v] = 1
			}
		}
		return res, out, err
	}
	Register(&protoEntry{name: m.Name(), kind: KindMIS, describe: describe, run: run, mis: m})
	mu.Lock()
	if defaultMIS == "" {
		defaultMIS = m.Name()
	}
	mu.Unlock()
}

// SetDefaultMIS names the MIS black box Config.MISAlg falls back to. The
// name must already be registered.
func SetDefaultMIS(name string) {
	mu.Lock()
	defer mu.Unlock()
	if algorithms[KindMIS] == nil || algorithms[KindMIS][name] == nil {
		panic(fmt.Sprintf("protocol: SetDefaultMIS(%q): not registered", name))
	}
	defaultMIS = name
}

// DefaultMIS returns the default MIS black box. It panics if no MIS has
// been registered (link internal/mis, whose init registers the standard
// boxes).
func DefaultMIS() MIS {
	mu.RLock()
	defer mu.RUnlock()
	if defaultMIS == "" {
		panic("protocol: no MIS registered (import distmwis/internal/mis)")
	}
	return algorithms[KindMIS][defaultMIS].(*protoEntry).mis
}

// RegisterProcess registers a single-protocol algorithm (KindColoring or
// KindMIS-shaped entries that are not full MIS boxes) by its runner.
func RegisterProcess(kind Kind, name, describe string, run ProtoRunner) {
	Register(&protoEntry{name: name, kind: kind, describe: describe, run: run})
}

// Lookup finds one registered algorithm.
func Lookup(kind Kind, name string) (Algorithm, bool) {
	mu.RLock()
	defer mu.RUnlock()
	a, ok := algorithms[kind][name]
	return a, ok
}

// Names lists the registered names of one kind, sorted.
func Names(kind Kind) []string {
	mu.RLock()
	defer mu.RUnlock()
	names := make([]string, 0, len(algorithms[kind]))
	for name := range algorithms[kind] {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// SolverByName resolves a registered MaxIS solver.
func SolverByName(name string) (Solver, error) {
	a, ok := Lookup(KindSolver, name)
	if !ok {
		return nil, fmt.Errorf("unknown algorithm %q (known: %v)", name, Names(KindSolver))
	}
	return a.(Solver), nil
}

// Solvers returns every registered MaxIS solver, sorted by name.
func Solvers() []Solver {
	out := make([]Solver, 0)
	for _, name := range Names(KindSolver) {
		a, _ := Lookup(KindSolver, name)
		out = append(out, a.(Solver))
	}
	return out
}

// MISByName resolves a registered MIS black box.
func MISByName(name string) (MIS, error) {
	a, ok := Lookup(KindMIS, name)
	if ok {
		if e, isEntry := a.(*protoEntry); isEntry && e.mis != nil {
			return e.mis, nil
		}
	}
	return nil, fmt.Errorf("unknown MIS algorithm %q (known: %v)", name, Names(KindMIS))
}

// Protos returns every registered single-protocol algorithm (MIS boxes and
// colouring protocols), sorted by kind then name. The worker-count parity
// suite iterates it so newly registered protocols are covered without
// editing any test.
func Protos() []Proto {
	out := make([]Proto, 0)
	for _, kind := range []Kind{KindMIS, KindColoring} {
		for _, name := range Names(kind) {
			a, _ := Lookup(kind, name)
			if p, ok := a.(Proto); ok {
				out = append(out, p)
			}
		}
	}
	return out
}
