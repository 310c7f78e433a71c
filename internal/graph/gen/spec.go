package gen

import (
	"fmt"
	"slices"
	"strings"

	"distmwis/internal/graph"
)

// Spec names one seeded generator graph: a kind, its size parameters, a
// weight family and a seed. It is the one generator vocabulary of the
// repository — the maxisd "gen" request field, the cmd/maxis and
// cmd/graphgen flags and the loadgen mixes all build through Build, so the
// same spec yields the same graph on every path.
type Spec struct {
	// Kind is one of Kinds().
	Kind string `json:"kind"`
	// N is the node count (or per-dimension size for grid/torus).
	N int `json:"n"`
	// P is the edge probability for gnp.
	P float64 `json:"p,omitempty"`
	// K is the forest count / caterpillar legs / coc clique size.
	K int `json:"k,omitempty"`
	// Weights is one of WeightFamilies() (default unit).
	Weights string `json:"weights,omitempty"`
	// MaxW bounds uniform/skewed weights (default 1000).
	MaxW int64 `json:"maxw,omitempty"`
	// Seed drives the generator and the weights (default 1).
	Seed uint64 `json:"seed,omitempty"`
}

type kind struct {
	name  string
	build func(s Spec) *graph.Graph
}

type weightFamily struct {
	name string
	fn   func(maxW int64) WeightFn // nil keeps the generator's unit weights
}

// kinds is the table Build dispatches on; its order is the order Kinds
// lists the names in.
var kinds = []kind{
	{"cycle", func(s Spec) *graph.Graph { return Cycle(s.N) }},
	{"path", func(s Spec) *graph.Graph { return Path(s.N) }},
	{"clique", func(s Spec) *graph.Graph { return Clique(s.N) }},
	{"star", func(s Spec) *graph.Graph { return Star(s.N) }},
	{"grid", func(s Spec) *graph.Graph { return Grid(s.N, s.N) }},
	{"torus", func(s Spec) *graph.Graph { return Torus(s.N, s.N) }},
	{"gnp", func(s Spec) *graph.Graph { return GNP(s.N, s.P, s.Seed) }},
	{"tree", func(s Spec) *graph.Graph { return RandomTree(s.N, s.Seed) }},
	{"forests", func(s Spec) *graph.Graph { return UnionOfForests(s.N, s.K, s.Seed) }},
	{"apollonian", func(s Spec) *graph.Graph { return Apollonian(s.N, s.Seed) }},
	{"caterpillar", func(s Spec) *graph.Graph { return Caterpillar(s.N, s.K) }},
	{"coc", func(s Spec) *graph.Graph { return CycleOfCliques(s.N, s.K) }},
}

// weightFamilies is the weight table Build dispatches on, in the order
// WeightFamilies lists the names in.
var weightFamilies = []weightFamily{
	{"unit", nil},
	{"uniform", UniformWeights},
	{"poly2", func(int64) WeightFn { return PolyWeights(2) }},
	{"poly3", func(int64) WeightFn { return PolyWeights(3) }},
	{"expspread", func(int64) WeightFn { return ExponentialSpreadWeights(24) }},
	{"skewed", func(maxW int64) WeightFn { return SkewedWeights(0.05, maxW) }},
}

// Kinds lists the graph kinds Build accepts.
func Kinds() []string {
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.name
	}
	return names
}

// WeightFamilies lists the weight families Build accepts.
func WeightFamilies() []string {
	names := make([]string, len(weightFamilies))
	for i, w := range weightFamilies {
		names[i] = w.name
	}
	return names
}

// Build materialises the spec. A zero Seed means 1, an empty Weights means
// unit and a non-positive MaxW means 1000; N must be positive.
func (s Spec) Build() (*graph.Graph, error) {
	if s.N <= 0 {
		return nil, fmt.Errorf("gen: n must be positive, got %d", s.N)
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	weights := s.Weights
	if weights == "" {
		weights = "unit"
	}
	ki := slices.IndexFunc(kinds, func(k kind) bool { return k.name == s.Kind })
	if ki < 0 {
		return nil, fmt.Errorf("gen: unknown graph kind %q (want %s)", s.Kind, strings.Join(Kinds(), "|"))
	}
	wi := slices.IndexFunc(weightFamilies, func(w weightFamily) bool { return w.name == weights })
	if wi < 0 {
		return nil, fmt.Errorf("gen: unknown weights %q (want %s)", s.Weights, strings.Join(WeightFamilies(), "|"))
	}
	g := kinds[ki].build(s)
	if fn := weightFamilies[wi].fn; fn != nil {
		g = Weighted(g, fn(s.maxW()), s.Seed)
	}
	return g, nil
}

// WeightBound is the nominal maximum weight W of the spec's graph when its
// weight family is bounded by MaxW (uniform, skewed), so a solver can take
// W without scanning the graph; 0 otherwise.
func (s Spec) WeightBound() int64 {
	if s.Weights == "uniform" || s.Weights == "skewed" {
		return s.maxW()
	}
	return 0
}

func (s Spec) maxW() int64 {
	if s.MaxW <= 0 {
		return 1000
	}
	return s.MaxW
}
