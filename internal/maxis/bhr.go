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

// This file ports the ultra-cheap end of the portfolio: the one-round and
// few-round *weighted* algorithms of Boppana, Halldórsson and Rawitz
// (arXiv:1803.00786). Unlike the oneround ranking baseline [17] — uniform
// ranks, so heavy nodes win no more often than light ones — each node v
// draws an exponential race time X_v = Exp(1)/w(v) and joins when it is
// the strict minimum of its closed neighbourhood. P[v wins] =
// w(v)/w(N⁺(v)), so
//
//	E[w(I)] = Σ_v w(v)²/w(N⁺(v)) ≥ w(V)²/Σ_v w(N⁺(v)) ≥ w(V)/(Δ+1)
//
// (Cauchy–Schwarz, then Σ_v w(N⁺(v)) ≤ (Δ+1)·w(V)). The guarantee holds in
// expectation only — the paper's Section 1 variance caveat applies — which
// is exactly why the planner picks these only under tight budgets, not as
// the quality tier.
//
// BHRFewRound repeats the race on the residual graph (winners keep their
// seats, winners and their neighbours retire), adding at least a
// 1/(Δ+1)-fraction of the remaining active weight per phase.

// bhrKeyFull is the fixed-point width of a race key before bandwidth
// truncation: 46 bits of Exp(1)/w plus 8 tie-break bits.
const (
	bhrFracBits = 40 // fixed-point fractional bits of the race time
	bhrKeyFull  = 46 + 8
	bhrTieBits  = 8
)

// bhrKeyBits is the on-wire key width: the full key truncated to one
// CONGEST message (B = 0 means LOCAL, no truncation).
func bhrKeyBits(bandwidth int) int {
	if bandwidth > 0 && bandwidth < bhrKeyFull {
		return bandwidth
	}
	return bhrKeyFull
}

// bhrKey draws one race key: the fixed-point exponential race time with
// tie-break entropy in the low bits, truncated to bits. Lower key wins;
// exactly equal keys make both endpoints abstain, so quantisation can only
// cost weight, never independence.
func bhrKey(rng *rand.Rand, tie uint64, w int64, bits int) uint64 {
	if w <= 0 {
		w = 1
	}
	x := rng.ExpFloat64() / float64(w)
	fp := uint64(math.Min(x*float64(uint64(1)<<bhrFracBits), float64(uint64(1)<<46-1)))
	key := fp<<bhrTieBits | (tie & (1<<bhrTieBits - 1))
	if bits < bhrKeyFull {
		key >>= uint(bhrKeyFull - bits)
	}
	return key
}

// bhrProcess is the one-round race: broadcast the key, then join iff it is
// strictly below every neighbour's. Under faults a missing or mangled
// (CRC-dropped) key makes the node abstain — safety over liveness, the
// same posture as rankingProcess.
type bhrProcess struct {
	info   congest.NodeInfo
	key    uint64
	bits   int
	joined bool
	w      wire.Writer
}

var _ congest.Process = (*bhrProcess)(nil)

func (p *bhrProcess) Init(info congest.NodeInfo) {
	p.info = info
	p.bits = bhrKeyBits(info.Bandwidth)
	// The tie-break entropy comes from the same private stream as the race
	// draw, so the whole key is one deterministic function of the node's
	// seed — bit-identical across engines.
	tie := info.Rand.Uint64()
	p.key = bhrKey(info.Rand, tie, info.Weight, p.bits)
}

func (p *bhrProcess) Round(round int, recv []*congest.Message) ([]*congest.Message, bool) {
	if round == 1 {
		p.w.Reset()
		p.w.WriteBits(p.key, p.bits)
		return congest.Broadcast(p.info.Out, p.info.Message(&p.w)), false
	}
	// Round 2: join iff every port delivered a well-formed key strictly
	// above ours. An unknown or non-greater neighbour key could collide.
	p.joined = true
	for _, m := range recv {
		if m == nil {
			p.joined = false
			break
		}
		r := m.Reader()
		if r.Remaining() != p.bits {
			p.joined = false // malformed frame (fault injection)
			break
		}
		if k, err := r.ReadBits(p.bits); err != nil || k <= p.key {
			p.joined = false
			break
		}
	}
	return nil, true
}

func (p *bhrProcess) Output() any { return p.joined }

// BHROneRound is the single-phase weighted race: one communication round,
// E[w(I)] ≥ w(V)/(Δ+1).
func BHROneRound(g *graph.Graph, cfg Config) (*Result, error) {
	return BHR(g, 1, cfg)
}

// BHRFewRoundPhases is the registered bhr-fewround phase count. Three
// phases recover most of the gap to the Δ-approximations at a tiny
// fraction of their rounds (experiment E21 measures the trade-off).
const BHRFewRoundPhases = 3

// BHR runs phases rounds of the weighted race. Winners of each phase join
// the output set; winners and their neighbours leave the residual graph,
// so the phases' winners are independent by construction — within a phase
// by the strict-minimum rule, across phases by retirement.
func BHR(g *graph.Graph, phases int, cfg Config) (*Result, error) {
	if phases < 1 {
		return nil, fmt.Errorf("maxis: BHR needs at least one phase, got %d", phases)
	}
	cfg = cfg.Normalized(g)
	seeds := protocol.NewSeedSeq(cfg.Seed)
	var acc dist.Accumulator
	n := g.N()
	out := make([]bool, n)
	active := make([]bool, n)
	for v := 0; v < n; v++ {
		active[v] = true
	}
	ran := 0
	for ph := 0; ph < phases; ph++ {
		anyActive := false
		for v := 0; v < n && !anyActive; v++ {
			anyActive = active[v]
		}
		if !anyActive {
			break
		}
		ran++
		set, _, err := dist.RunOnInduced(g, active, congest.Bind[bhrProcess](nil), &acc, cfg.Phase("race").Opts(seeds.Next())...)
		if err != nil {
			return nil, fmt.Errorf("maxis: bhr phase %d: %w", ph+1, err)
		}
		for v := 0; v < n; v++ {
			if set[v] {
				out[v] = true
				active[v] = false
				for _, u := range g.Neighbors(v) {
					active[u] = false
				}
			}
		}
		// Winner announcement: one round for members to retire their
		// neighbourhoods before the next race.
		acc.AddRounds(1)
	}
	return finish(g, out, cfg, acc, "bhr", map[string]float64{
		"phases": float64(ran),
	})
}
