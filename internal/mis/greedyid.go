package mis

import (
	"distmwis/internal/congest"
	"distmwis/internal/graph"
	"distmwis/internal/wire"
)

// GreedyByID is the fully deterministic MIS protocol: after one round of
// identifier exchange, a node joins as soon as its identifier exceeds those
// of all still-active neighbours; dominated nodes retire. It is the
// distributed analogue of sequential greedy in ID order.
//
// Its worst-case round complexity is Θ(n) (a monotone ID path), which is
// exactly why the paper treats MIS as a pluggable black box: Theorem 1
// inherits determinism from this box and speed from a better one. Round
// budget: n+2.
type GreedyByID struct{}

// Name implements Algorithm.
func (GreedyByID) Name() string { return "greedy-id" }

// Run implements Algorithm.
func (GreedyByID) Run(g *graph.Graph, c congest.Config, out []bool) (*congest.Result, error) {
	return congest.Bind[greedyIDProcess](nil)(g, c, out)
}

// RoundBudget implements Algorithm: the deterministic chain bound.
func (GreedyByID) RoundBudget(nUpper, _ int) int { return nUpper + 2 }

var _ Algorithm = GreedyByID{}

// greedyIDProcess statuses broadcast each round.
const (
	statusActive  = 0
	statusJoined  = 1
	statusRetired = 2
)

type greedyIDProcess struct {
	info      congest.NodeInfo
	nbrID     []uint64
	nbrKnown  graph.Bitset // identifier received and parsed for this port
	nbrActive graph.Bitset
	joined    bool
	dominated bool
}

func (p *greedyIDProcess) Init(info congest.NodeInfo) {
	p.info = info
	p.nbrID = make([]uint64, info.Degree)
	p.nbrKnown = graph.NewBitset(info.Degree)
	p.nbrActive = graph.NewBitset(info.Degree)
	p.nbrActive.SetFirst(info.Degree)
}

// Under faults every message carries a leading type bit (false = identifier
// exchange, true = status) so that a duplicated identifier frame arriving in
// a status slot cannot be misparsed as a retirement — which could retire a
// live higher-ID neighbour and let both ends of an edge join. Fault-free
// the framing is unnecessary and omitted to keep messages bit-identical.
const (
	frameID     = false
	frameStatus = true
)

func (p *greedyIDProcess) Round(round int, recv []*congest.Message) bool {
	var w wire.Writer
	if round == 1 {
		// Identifier exchange.
		if p.info.Faulty {
			w.WriteBool(frameID)
		}
		w.WriteUint(p.info.ID, p.info.MaxID)
		p.info.Broadcast(&w)
		return false
	}
	if round == 2 {
		for port, m := range recv {
			if m == nil {
				continue
			}
			r := m.Reader()
			if p.info.Faulty {
				if kind, err := r.ReadBool(); err != nil || kind != frameID {
					continue
				}
			}
			id, err := r.ReadUint(p.info.MaxID)
			if err != nil {
				continue
			}
			p.nbrID[port] = id
			p.nbrKnown.Set(port)
		}
	} else {
		for port, m := range recv {
			if m == nil || !p.nbrActive.Get(port) {
				continue
			}
			r := m.Reader()
			if p.info.Faulty {
				if kind, err := r.ReadBool(); err != nil || kind != frameStatus {
					continue
				}
			}
			status, err := r.ReadUint(2)
			if err != nil {
				continue
			}
			switch status {
			case statusJoined:
				p.dominated = true
				p.nbrActive.Unset(port)
			case statusRetired:
				p.nbrActive.Unset(port)
			}
		}
	}

	status := uint64(statusActive)
	done := false
	switch {
	case p.dominated:
		status = statusRetired
		done = true
	default:
		highestActive := true
		for port := 0; port < p.info.Degree; port++ {
			// An unknown identifier (lost exchange) must be assumed to be
			// higher: joining past it could collide with the neighbour.
			if p.nbrActive.Get(port) && (!p.nbrKnown.Get(port) || p.nbrID[port] > p.info.ID) {
				highestActive = false
				break
			}
		}
		if highestActive {
			p.joined = true
			status = statusJoined
			done = true
		}
	}
	if p.info.Faulty {
		w.WriteBool(frameStatus)
	}
	w.WriteUint(status, 2)
	p.info.BroadcastTo(p.nbrActive, &w)
	return done
}

func (p *greedyIDProcess) Output() bool { return p.joined }
