package maxis

import (
	"fmt"
	"hash/fnv"
	"testing"

	"distmwis/internal/fault"
	"distmwis/internal/graph"
	"distmwis/internal/graph/gen"
)

// pinned is what TestPhasePipelinesPinned records of one pipeline run: a
// hash of the member set, its weight, the accumulated rounds, messages,
// bits and phases, and Extra["stack_value"] (0 where a pipeline has no
// stack). A run that fails records its error text in err instead.
type pinned struct {
	set            uint64
	weight         int64
	rounds         int
	messages, bits int64
	phases         int
	stack          float64
	err            string
}

func (p pinned) String() string {
	if p.err != "" {
		return fmt.Sprintf("{err: %q}", p.err)
	}
	return fmt.Sprintf("{%#x, %d, %d, %d, %d, %d, %v, \"\"}", p.set, p.weight, p.rounds, p.messages, p.bits, p.phases, p.stack)
}

// setHash is the FNV-1a hash of a membership vector, one byte per node.
func setHash(set []bool) uint64 {
	h := fnv.New64a()
	b := make([]byte, len(set))
	for v, in := range set {
		if in {
			b[v] = 1
		}
	}
	h.Write(b)
	return h.Sum64()
}

// pinResult records a pipeline's result, or its error.
func pinResult(res *Result, err error) pinned {
	if err != nil {
		return pinned{err: err.Error()}
	}
	return pinned{setHash(res.Set), res.Weight, res.Metrics.Rounds, res.Metrics.Messages,
		res.Metrics.Bits, res.Metrics.Phases, res.Extra["stack_value"], ""}
}

// pinPipelines are the phase pipelines the pin covers. unit marks those
// that take unit-weight graphs only.
var pinPipelines = []struct {
	name string
	unit bool
	run  func(g *graph.Graph, cfg Config) pinned
}{
	{"theorem1", false, func(g *graph.Graph, cfg Config) pinned { return pinBoost(Theorem1(g, 0.5, cfg)) }},
	{"theorem2", false, func(g *graph.Graph, cfg Config) pinned { return pinBoost(Theorem2(g, 0.5, cfg)) }},
	{"theorem5", true, func(g *graph.Graph, cfg Config) pinned { return pinBoost(Theorem5(g, 0.5, cfg)) }},
	{"arboricity", false, func(g *graph.Graph, cfg Config) pinned {
		return pinArboricity(Arboricity(g, g.ArboricityUpperBound(), 0.5, goodNodesInner{}, cfg))
	}},
	{"theorem3", false, func(g *graph.Graph, cfg Config) pinned {
		return pinArboricity(Theorem3(g, g.ArboricityUpperBound(), 0.5, cfg))
	}},
	{"theorem3auto", false, func(g *graph.Graph, cfg Config) pinned { return pinArboricity(Theorem3Auto(g, 0.5, cfg)) }},
	{"baseline", false, func(g *graph.Graph, cfg Config) pinned { return pinResult(BarYehuda(g, cfg)) }},
	{"localratio", false, func(g *graph.Graph, cfg Config) pinned { return pinResult(LocalRatio(g, cfg)) }},
	{"localratio-eps", false, func(g *graph.Graph, cfg Config) pinned { return pinResult(LocalRatioEps(g, 0.5, cfg)) }},
	{"sparsified", false, func(g *graph.Graph, cfg Config) pinned { return pinResult(Sparsified(g, cfg)) }},
	{"goodnodes", false, func(g *graph.Graph, cfg Config) pinned { return pinResult(GoodNodes(g, cfg)) }},
	{"bhr-fewround", false, func(g *graph.Graph, cfg Config) pinned { return pinResult(BHR(g, BHRFewRoundPhases, cfg)) }},
	{"planar", true, func(g *graph.Graph, cfg Config) pinned { return pinResult(PlanarConstantRound(g, cfg)) }},
	{"degeneracy", false, func(g *graph.Graph, cfg Config) pinned {
		// There is no set: the estimate stands in for the weight and the
		// number of threshold doublings for the stack value.
		est, err := EstimateDegeneracy(g, cfg)
		if err != nil {
			return pinned{err: err.Error()}
		}
		m := est.Metrics
		return pinned{0, int64(est.Estimate), m.Rounds, m.Messages, m.Bits, m.Phases, float64(est.Phases), ""}
	}},
}

func pinBoost(res *BoostResult, err error) pinned {
	if err != nil {
		return pinned{err: err.Error()}
	}
	return pinResult(&res.Result, nil)
}

func pinArboricity(res *ArboricityResult, err error) pinned {
	if err != nil {
		return pinned{err: err.Error()}
	}
	return pinResult(&res.Result, nil)
}

// pinnedPipelines holds, per pipeline, graph and kind of run, what the run
// did when the values were taken. Any change to a pipeline's phases, seed
// draws, subgraphs or charged rounds shows here.
var pinnedPipelines = map[string]pinned{
	"theorem1/gnp/clean":             {0xcfe5ea6824043fac, 1612017, 45, 5416, 57448, 6, 1.567674e+06, ""},
	"theorem1/gnp/faults":            {0xa89d8f19f72355c1, 1646140, 1176, 34655, 255380, 6, 1.594829e+06, ""},
	"theorem1/powerlaw/clean":        {0x3487eba5cfe13901, 2678966, 42, 2530, 28082, 6, 2.635385e+06, ""},
	"theorem1/powerlaw/faults":       {0x21acdeb28541e934, 2698590, 600, 8908, 71230, 6, 2.683885e+06, ""},
	"theorem1/torus/clean":           {0x8a1148d5e71cff57, 657063, 27, 2200, 24180, 4, 652648, ""},
	"theorem1/torus/faults":          {0xa685de587d78012, 648935, 600, 7567, 60812, 6, 642113, ""},
	"theorem2/gnp/clean":             {0xe665839770de1b83, 1539993, 51, 8184, 121272, 9, 1.485141e+06, ""},
	"theorem2/gnp/faults":            {0xe93217025ba05b6e, 1583469, 1204, 32142, 288310, 12, 1.563143e+06, ""},
	"theorem2/powerlaw/clean":        {0x8cc6b24ce1a56be, 2671565, 54, 3376, 54832, 9, 2.633194e+06, ""},
	"theorem2/powerlaw/faults":       {0xd910d9a91c85c543, 2672269, 627, 10363, 102710, 9, 2.657564e+06, ""},
	"theorem2/torus/clean":           {0x5cf94c20217086fc, 629977, 54, 3444, 52764, 9, 625775, ""},
	"theorem2/torus/faults":          {0xade712c002c0b50c, 649504, 618, 11097, 105180, 9, 638919, ""},
	"theorem5/gnp/clean":             {0xb65aed38fda6a1b6, 65, 15, 1338, 50844, 3, 65, ""},
	"theorem5/gnp/faults":            {0xae4bcf8ffb4144b1, 68, 30, 2396, 93444, 6, 68, ""},
	"theorem5/powerlaw/clean":        {0x91de0dfd6b2305b7, 120, 15, 698, 26524, 3, 120, ""},
	"theorem5/powerlaw/faults":       {0x8f152defb39c5d3b, 120, 30, 918, 35802, 6, 120, ""},
	"theorem5/torus/clean":           {0x494d00e8bfb5363e, 55, 15, 606, 21816, 3, 55, ""},
	"theorem5/torus/faults":          {0x59cc22e72e12e453, 52, 30, 894, 33078, 6, 52, ""},
	"arboricity/gnp/clean":           {0x6a1d253c5785b3ca, 1614960, 44, 5398, 56886, 6, 1.61496e+06, ""},
	"arboricity/gnp/faults":          {0x37718722ada74ab9, 1648630, 617, 16833, 135100, 6, 1.64863e+06, ""},
	"arboricity/powerlaw/clean":      {0x574ac227d3276075, 2638625, 35, 1508, 17540, 4, 2.638625e+06, ""},
	"arboricity/powerlaw/faults":     {0x642bed5a26482517, 2669598, 1178, 9293, 70130, 6, 2.669598e+06, ""},
	"arboricity/torus/clean":         {0x39c4ad746130c7ca, 637645, 53, 2340, 25208, 6, 637645, ""},
	"arboricity/torus/faults":        {0xd11ef46395b5b8ec, 619843, 1178, 8584, 68112, 6, 619843, ""},
	"theorem3/gnp/clean":             {0x4e0ff37190d6bcae, 1535927, 46, 7386, 113530, 6, 1.535927e+06, ""},
	"theorem3/gnp/faults":            {0xf08d6aa7644910b1, 1613518, 1203, 19473, 199010, 12, 1.613518e+06, ""},
	"theorem3/powerlaw/clean":        {0xb9d0b44191c56d88, 2693032, 46, 2328, 38712, 6, 2.693032e+06, ""},
	"theorem3/powerlaw/faults":       {0xa27d4962c611d3eb, 2697207, 607, 5205, 58790, 6, 2.697207e+06, ""},
	"theorem3/torus/clean":           {0xd587fa365b4c1437, 667447, 59, 3210, 51282, 9, 667447, ""},
	"theorem3/torus/faults":          {0x139c8f785f77d92, 648047, 1215, 9282, 92976, 12, 648047, ""},
	"theorem3auto/gnp/clean":         {0x4e0ff37190d6bcae, 1535927, 78, 8067, 114211, 9, 1.535927e+06, ""},
	"theorem3auto/gnp/faults":        {0xee2546383df7c05a, 1609194, 1239, 23142, 221546, 16, 1.609194e+06, ""},
	"theorem3auto/powerlaw/clean":    {0xb9d0b44191c56d88, 2693032, 74, 2695, 39079, 9, 2.693032e+06, ""},
	"theorem3auto/powerlaw/faults":   {0xa27d4962c611d3eb, 2697207, 637, 5576, 59161, 9, 2.697207e+06, ""},
	"theorem3auto/torus/clean":       {0xd587fa365b4c1437, 667447, 83, 3786, 51858, 12, 667447, ""},
	"theorem3auto/torus/faults":      {0x139c8f785f77d92, 648047, 1239, 9858, 93552, 15, 648047, ""},
	"baseline/gnp/clean":             {0x37f449d7aa8832c9, 1624167, 60, 348, 2204, 8, 1.624167e+06, ""},
	"baseline/gnp/faults":            {0x46ba0363d44a1d32, 1580272, 72, 432, 2880, 8, 1.580272e+06, ""},
	"baseline/powerlaw/clean":        {0xf5447e6b08e1951c, 2700835, 54, 192, 1216, 8, 2.700835e+06, ""},
	"baseline/powerlaw/faults":       {0xb3cf0aa589f0ac4d, 2705294, 636, 852, 5680, 8, 2.705294e+06, ""},
	"baseline/torus/clean":           {0x9b8c61d27dd4140d, 629400, 69, 396, 2508, 8, 629400, ""},
	"baseline/torus/faults":          {0xaf38cc702a3b5765, 628506, 648, 1041, 6940, 8, 628506, ""},
	"localratio/gnp/clean":           {0x8535ece95d5c6e30, 1448403, 39, 5886, 37278, 3, 1.411351e+06, ""},
	"localratio/gnp/faults":          {0x576939234f32d3aa, 1546933, 1170, 31911, 212740, 3, 1.532289e+06, ""},
	"localratio/powerlaw/clean":      {0xb14fbad870324ad3, 2710317, 24, 2352, 14896, 2, 2.700987e+06, ""},
	"localratio/powerlaw/faults":     {0x4155461c388bd535, 2695671, 1164, 13164, 87760, 3, 2.686792e+06, ""},
	"localratio/torus/clean":         {0x73ab9b6f3d086734, 629070, 33, 3060, 19380, 2, 604394, ""},
	"localratio/torus/faults":        {0x5fecc377b420e731, 624728, 1176, 13155, 87700, 4, 605672, ""},
	"localratio-eps/gnp/clean":       {0xba99edc8922022b1, 1598285, 51, 954, 6042, 6, 1.570342e+06, ""},
	"localratio-eps/gnp/faults":      {0xebdacc50076033c3, 1562644, 621, 7986, 53240, 7, 1.517204e+06, ""},
	"localratio-eps/powerlaw/clean":  {0x418a1e24d10ae0f1, 2665702, 45, 276, 1748, 6, 2.656737e+06, ""},
	"localratio-eps/powerlaw/faults": {0xe815910086c08ce1, 2661497, 615, 915, 6100, 6, 2.652662e+06, ""},
	"localratio-eps/torus/clean":     {0xa3ddf5ec2e9376c3, 654575, 51, 198, 1254, 7, 651784, ""},
	"localratio-eps/torus/faults":    {0xc6ab08173b3d3145, 665985, 1188, 1656, 11040, 7, 663310, ""},
	"sparsified/gnp/clean":           {0x326eda71e5fa27ff, 1372766, 25, 7992, 118376, 3, 0, ""},
	"sparsified/gnp/faults":          {0x48b527086500483b, 1092005, 583, 28881, 259090, 3, 0, ""},
	"sparsified/powerlaw/clean":      {0x6cf4a42e499be1f, 2442038, 19, 3160, 53576, 3, 0, ""},
	"sparsified/powerlaw/faults":     {0x357d0f234b14cf51, 2401673, 583, 9933, 99770, 3, 0, ""},
	"sparsified/torus/clean":         {0xbacfe3be184415b2, 608061, 19, 3414, 52150, 3, 0, ""},
	"sparsified/torus/faults":        {0xd9f9a13e70eae70, 520374, 583, 10689, 101212, 3, 0, ""},
	"goodnodes/gnp/clean":            {0x24c988700eb1b7c7, 1265741, 21, 5396, 56836, 2, 0, ""},
	"goodnodes/gnp/faults":           {0xd1d993632490cae, 993015, 579, 22529, 172450, 2, 0, ""},
	"goodnodes/powerlaw/clean":       {0xb60cb910c9bf9129, 2401088, 12, 2338, 26642, 2, 0, ""},
	"goodnodes/powerlaw/faults":      {0x87063ef8069cf082, 2400420, 579, 6517, 55070, 2, 0, ""},
	"goodnodes/torus/clean":          {0x7e2e10d1e64df647, 571617, 18, 2154, 23818, 2, 0, ""},
	"goodnodes/torus/faults":         {0x4820cb1a696f35c, 482392, 579, 12402, 92664, 2, 0, ""},
	"bhr-fewround/gnp/clean":         {0x97dc1ccc91a79b1d, 1469604, 12, 1466, 79164, 3, 0, ""},
	"bhr-fewround/gnp/faults":        {0xace33eb59ce681ef, 1216444, 12, 1906, 102924, 3, 0, ""},
	"bhr-fewround/powerlaw/clean":    {0xa10de3fbc405b15, 2374884, 12, 672, 36288, 3, 0, ""},
	"bhr-fewround/powerlaw/faults":   {0xadafeabd752b5361, 2565485, 12, 820, 44280, 3, 0, ""},
	"bhr-fewround/torus/clean":       {0x7e004ec7ac583d44, 594991, 12, 604, 32616, 3, 0, ""},
	"bhr-fewround/torus/faults":      {0x1e2179e6acef0c5d, 594026, 12, 782, 42228, 3, 0, ""},
	"planar/gnp/clean":               {0x6a01726dbd7d3cf2, 35, 3, 1052, 39976, 1, 0, ""},
	"planar/gnp/faults":              {0xa387ae88809a5c2d, 16, 3, 1052, 41028, 1, 0, ""},
	"planar/powerlaw/clean":          {0xe516028a6219119b, 92, 3, 380, 14440, 1, 0, ""},
	"planar/powerlaw/faults":         {0x12489d041b4e8f88, 83, 3, 380, 14820, 1, 0, ""},
	"planar/torus/clean":             {0x93bb53e7ccf41ac5, 26, 3, 576, 20736, 1, 0, ""},
	"planar/torus/faults":            {0x323ba22d15dd78f, 16, 3, 576, 21312, 1, 0, ""},
	"degeneracy/gnp/clean":           {0x0, 4, 32, 681, 681, 3, 3, ""},
	"degeneracy/gnp/faults":          {0x0, 8, 36, 786, 786, 4, 4, ""},
	"degeneracy/powerlaw/clean":      {0x0, 4, 28, 367, 367, 3, 3, ""},
	"degeneracy/powerlaw/faults":     {0x0, 4, 30, 371, 371, 3, 3, ""},
	"degeneracy/torus/clean":         {0x0, 4, 24, 576, 576, 3, 3, ""},
	"degeneracy/torus/faults":        {0x0, 4, 24, 576, 576, 3, 3, ""},
}

// TestPhasePipelinesPinned runs every phase pipeline on a gnp, a power-law
// and a torus graph (polynomial weights, or unit weights where the
// pipeline needs them), once fault-free and once under message loss,
// duplication and corruption with Repair, and compares every run with the
// values pinned above.
func TestPhasePipelinesPinned(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", gen.GNP(200, 0.03, 3)},
		{"powerlaw", gen.PowerLaw(200, 2.5, 40, 4)},
		{"torus", gen.Torus(12, 12)},
	}
	runs := []struct {
		name string
		cfg  Config
	}{
		{"clean", Config{Seed: 5}},
		{"faults", Config{Seed: 5, Repair: true, Faults: fault.Schedule{Seed: 8, Loss: 0.1, Dup: 0.1, Corrupt: 0.05}}},
	}
	for _, p := range pinPipelines {
		for _, gc := range graphs {
			g := gc.g
			if !p.unit {
				g = gen.Weighted(g, gen.PolyWeights(2), 6)
			}
			for _, run := range runs {
				key := p.name + "/" + gc.name + "/" + run.name
				got := p.run(g, run.cfg)
				if want, ok := pinnedPipelines[key]; !ok || got != want {
					t.Errorf("%s: got %v, pinned %v\n\t%q: %v,", key, got, want, key, got)
				}
			}
		}
	}
}
