package maxis

import (
	"fmt"
	"math"
	"math/rand/v2"

	"distmwis/internal/congest"
	"distmwis/internal/dist"
	"distmwis/internal/graph"
	"distmwis/internal/protocol"
	"distmwis/internal/wire"
)

// Ranking implements the classical Boppana ranking algorithm (Algorithm 2,
// Section 5): every node draws a uniform rank in {1, …, 100·n^(c+2)} and
// joins the independent set when its rank strictly exceeds all neighbours'.
//
// The (c+2)·log n + O(1) rank bits exceed one CONGEST message, so the rank
// is shipped in ⌈bits/B⌉ consecutive B-bit chunks — this is why the paper
// says the algorithm "can be implemented in O(c) rounds in the CONGEST
// model". Theorem 11: for Δ ≤ n/(256·ln(1/p)) − 1, the returned set has
// size ≥ n/(8(Δ+1)) with probability ≥ 1 − p − 1/n^c.
func Ranking(g *graph.Graph, c int, cfg Config) (*Result, error) {
	cfg = cfg.Normalized(g)
	seeds := protocol.NewSeedSeq(cfg.Seed)
	var acc dist.Accumulator
	set, err := rankingRun(g, c, cfg, seeds, &acc)
	if err != nil {
		return nil, err
	}
	return finish(g, set, cfg, acc, "ranking", map[string]float64{
		"rank_bits": float64(rankBits(cfg.NUpper, c)),
	})
}

// OneRound is the Boppana–Halldórsson–Rawitz [17] baseline: the ranking
// algorithm at its cheapest setting (c = 0). Its expected weight is at
// least w(V)/(Δ+1), but — as the paper stresses in Section 1 — the variance
// can be enormous, so the guarantee does not hold with high probability.
// Experiment E11 reproduces exactly that failure mode.
func OneRound(g *graph.Graph, cfg Config) (*Result, error) {
	return Ranking(g, 0, cfg)
}

// rankSpace returns 100·n^(c+2) saturated to 2^61 so rank fields stay
// well-formed for any polynomial bound.
func rankSpace(nUpper, c int) uint64 {
	const limit = uint64(1) << 61
	space := uint64(100)
	for i := 0; i < c+2; i++ {
		if space > limit/uint64(nUpper) {
			return limit
		}
		space *= uint64(nUpper)
	}
	return space
}

func rankBits(nUpper, c int) int { return wire.BitsFor(rankSpace(nUpper, c)) }

func rankingRun(g *graph.Graph, c int, cfg Config, seeds *protocol.SeedSeq, acc *dist.Accumulator) ([]bool, error) {
	if g.N() == 0 {
		return nil, nil
	}
	space := rankSpace(cfg.NUpper, c)
	res, err := dist.RunPhase(g, congest.Bind(func(p *rankingProcess) { p.space = space }), acc, cfg.Phase("ranking").Opts(seeds.Next())...)
	if err != nil {
		return nil, err
	}
	return congest.BoolOutputs(res), nil
}

// rankingProcess ships its rank in B-bit chunks and joins when strictly
// larger than every neighbour's rank.
//
// Under faults (NodeInfo.Faulty) each chunk additionally carries a sequence
// tag. Without it, a lost chunk followed by a duplicated earlier chunk
// would reassemble into a bogus — typically much smaller — neighbour rank
// and could let both endpoints of an edge join. With tags every chunk
// lands at its true bit offset, receipt is tracked per chunk, and a node
// only joins when it holds every chunk of every neighbour's rank.
type rankingProcess struct {
	info     congest.NodeInfo
	space    uint64
	rank     uint64
	bits     int
	chunk    int      // bits per round
	rounds   int      // sending rounds k = ceil(bits/chunk)
	seqBits  int      // fault mode: tag width (0 = tagging impossible)
	nbrRanks []uint64 // per port, the rank bits received so far
	nbrSeen  []uint64 // fault mode: bitmask of chunks received per port
	joined   bool
	w        wire.Writer // per-round scratch, reset before each use
}

func (p *rankingProcess) Init(info congest.NodeInfo) {
	p.info = info
	p.rank = 1 + info.Rand.Uint64N(p.space)
	p.bits = wire.BitsFor(p.space)
	p.chunk = p.bits
	if info.Bandwidth > 0 && info.Bandwidth < p.bits {
		p.chunk = info.Bandwidth
	}
	p.rounds = (p.bits + p.chunk - 1) / p.chunk
	if info.Faulty {
		p.initChunkTags()
		p.nbrSeen = info.Words(info.Degree)
	}
	p.nbrRanks = info.Words(info.Degree)
}

// initChunkTags splits the bandwidth into tag + payload: the smallest tag
// width that can number all resulting chunks. All nodes derive the same
// split from (space, Bandwidth), keeping the schedule synchronous.
func (p *rankingProcess) initChunkTags() {
	if p.info.Bandwidth == 0 || p.bits+1 <= p.info.Bandwidth {
		p.seqBits = 1 // single chunk, tag value always 0
		p.chunk = p.bits
		p.rounds = 1
		return
	}
	for sb := 1; sb < p.info.Bandwidth; sb++ {
		ch := p.info.Bandwidth - sb
		rounds := (p.bits + ch - 1) / ch
		if wire.BitsFor(uint64(rounds-1)) <= sb {
			p.seqBits = sb
			p.chunk = ch
			p.rounds = rounds
			return
		}
	}
	// Bandwidth too small to tag chunks (unreachable for the B ≥ 8 this
	// repository's configurations produce). Safety over liveness: the node
	// keeps its untagged schedule but will never join.
	p.seqBits = 0
}

func (p *rankingProcess) Round(round int, recv []*congest.Message) ([]*congest.Message, bool) {
	// Absorb chunks sent in the previous round. Without faults every
	// neighbour sends chunk round-2 in round-1, so it lands at bit
	// (round-2)·chunk.
	if round > 1 {
		for port, m := range recv {
			if m == nil {
				continue
			}
			r := m.Reader()
			if p.info.Faulty {
				p.absorbTagged(port, r)
				continue
			}
			chunkVal, _ := r.ReadBits(r.Remaining())
			p.nbrRanks[port] |= chunkVal << uint((round-2)*p.chunk)
		}
	}
	if round <= p.rounds {
		lo := (round - 1) * p.chunk
		hi := lo + p.chunk
		if hi > p.bits {
			hi = p.bits
		}
		p.w.Reset()
		if p.info.Faulty && p.seqBits > 0 {
			p.w.WriteBits(uint64(round-1), p.seqBits)
		}
		p.w.WriteBits(p.rank>>uint(lo), hi-lo)
		return congest.Broadcast(p.info.Out, p.info.Message(&p.w)), false
	}
	// round == rounds+1: all chunks received; decide.
	p.joined = true
	for port := 0; port < p.info.Degree; port++ {
		if p.info.Faulty {
			if p.seqBits == 0 || p.nbrSeen[port] != (uint64(1)<<uint(p.rounds))-1 {
				// Incomplete information about this neighbour's rank:
				// joining could collide with it.
				p.joined = false
				break
			}
		}
		if p.nbrRanks[port] >= p.rank {
			p.joined = false
			break
		}
	}
	return nil, true
}

// absorbTagged places one sequence-tagged chunk at its true offset,
// ignoring malformed frames (wrong tag range or payload width).
func (p *rankingProcess) absorbTagged(port int, r *wire.Reader) {
	if p.seqBits == 0 {
		return
	}
	seq64, err := r.ReadBits(p.seqBits)
	if err != nil {
		return
	}
	seq := int(seq64)
	if seq >= p.rounds {
		return
	}
	lo := seq * p.chunk
	hi := lo + p.chunk
	if hi > p.bits {
		hi = p.bits
	}
	if r.Remaining() != hi-lo {
		return
	}
	chunkVal, err := r.ReadBits(hi - lo)
	if err != nil {
		return
	}
	mask := uint64(1) << uint(seq)
	if p.nbrSeen[port]&mask != 0 {
		return // duplicate of an already-placed chunk
	}
	p.nbrSeen[port] |= mask
	p.nbrRanks[port] |= chunkVal << uint(lo)
}

func (p *rankingProcess) Output() any { return p.joined }

// SeqBoppanna is Algorithm 3: the sequential view of the ranking algorithm.
// Nodes are drawn uniformly at random without replacement; a drawn node
// joins I when none of its neighbours was drawn earlier. Proposition 3
// shows the output distribution equals Boppanna's up to 1/n^c total
// variation; the martingale analysis of Theorem 11 is built on this view.
//
// The returned trace holds |I_t| after each of the n draws, feeding the
// Proposition 4 concentration experiment.
func SeqBoppanna(g *graph.Graph, rng *rand.Rand) (set []bool, trace []int) {
	n := g.N()
	set = make([]bool, n)
	trace = make([]int, 0, n)
	drawn := make([]bool, n)
	// Uniform permutation via Fisher-Yates = sampling without replacement.
	perm := rng.Perm(n)
	size := 0
	for _, v := range perm {
		blocked := false
		for _, u := range g.Neighbors(v) {
			if drawn[u] {
				blocked = true
				break
			}
		}
		drawn[v] = true
		if !blocked {
			set[v] = true
			size++
		}
		trace = append(trace, size)
	}
	return set, trace
}

// rankingInner adapts Ranking as a boosting black box for unweighted
// graphs. On unit-weight graphs the Theorem 11 guarantee
// |I| ≥ n/(8(Δ+1)) ≥ n/(16Δ) gives c = 16. Local-ratio residual graphs of
// an unweighted input remain unit-weight (a positive residual weight is
// exactly 1), which the adapter checks.
type rankingInner struct {
	c int
}

func (r rankingInner) Name() string { return "ranking" }

func (rankingInner) FactorC() int { return 16 }

func (r rankingInner) Run(g *graph.Graph, cfg Config, seeds *protocol.SeedSeq, acc *dist.Accumulator) ([]bool, error) {
	if !g.IsUnitWeight() {
		return nil, fmt.Errorf("maxis: ranking inner requires unit weights (Theorem 5 is for unweighted graphs)")
	}
	return rankingRun(g, r.c, cfg, seeds, acc)
}

var _ Inner = rankingInner{}

// Theorem5 implements the paper's Theorem 5: for unweighted graphs of
// maximum degree Δ ≤ n/log n, an O(1/ε)-round CONGEST algorithm returning
// an independent set of size ≥ n/((1+ε)(Δ+1)) with high probability. It is
// Boost over the Ranking inner algorithm (Corollary 1 supplies the
// w(V)/((1+ε)(Δ+1)) form of the guarantee).
//
// The degree precondition is the paper's; callers violating it simply lose
// the high-probability guarantee (Theorem 4 shows some such graphs are
// genuinely hard), not correctness of the returned independent set.
func Theorem5(g *graph.Graph, eps float64, cfg Config) (*BoostResult, error) {
	if !g.IsUnitWeight() {
		return nil, fmt.Errorf("maxis: Theorem5 requires an unweighted (unit-weight) graph")
	}
	res, err := Boost(g, eps, rankingInner{c: 2}, cfg)
	if err != nil {
		return nil, err
	}
	n := float64(g.N())
	if res.Extra == nil {
		res.Extra = map[string]float64{}
	}
	res.Extra["degree_precondition_ok"] = 0
	if float64(g.MaxDegree()) <= n/math.Log2(math.Max(n, 2)) {
		res.Extra["degree_precondition_ok"] = 1
	}
	return res, nil
}
