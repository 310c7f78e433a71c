package congest_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"distmwis/internal/congest"
	"distmwis/internal/graph"
	"distmwis/internal/graph/gen"
	"distmwis/internal/protocol"
	"distmwis/internal/wire"

	// Registry side effects: these imports populate the solver, MIS and
	// colouring tables TestDeliveryPathsAgree iterates over.
	_ "distmwis/internal/coloring"
	_ "distmwis/internal/maxis"
	_ "distmwis/internal/mis"
)

// Tests that the two slot kinds deliver identically: value slots, which a
// CONGEST run uses, and heap slots, which LOCAL runs use and
// congest.UseHeapSlots forces on any run.

// bothPaths runs fn once with value slots and once with heap slots and
// returns the two results.
func bothPaths[R any](fn func() R) (value, heap R) {
	value = fn()
	restore := congest.UseHeapSlots()
	defer restore()
	return value, fn()
}

// deliveryGraphs are the three shapes every registered algorithm runs on.
func deliveryGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"gnp":      gen.GNP(150, 0.04, 5),
		"powerlaw": gen.PowerLaw(150, 2.5, 30, 6),
		"torus":    gen.Torus(10, 12),
	}
}

// TestDeliveryPathsAgree runs every registered protocol and solver on each
// graph with one and two workers, through value slots and heap slots, and
// requires the same outputs, rounds, messages, bits and largest message in
// all four runs.
func TestDeliveryPathsAgree(t *testing.T) {
	for name, g := range deliveryGraphs() {
		weighted := gen.Weighted(g, gen.PolyWeights(2), 3)
		for _, p := range protocol.Protos() {
			t.Run(fmt.Sprintf("%s/proto/%s", name, p.Name()), func(t *testing.T) {
				requireAgree(t, func(workers int) any {
					res, outs, err := p.Run(weighted, congest.Config{Seed: 9, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					return [2]any{res, outs}
				})
			})
		}
		for _, s := range protocol.Solvers() {
			t.Run(fmt.Sprintf("%s/solver/%s", name, s.Name()), func(t *testing.T) {
				params, err := s.Normalize(protocol.Params{Eps: 0.5})
				if err != nil {
					t.Fatal(err)
				}
				in := weighted
				if s.Meta().UnitWeightsOnly {
					in = g
				}
				requireAgree(t, func(workers int) any {
					res, err := s.Run(in, params, protocol.Config{Seed: 11, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					return res
				})
			})
		}
	}
}

// requireAgree compares run's result for one and two workers, each
// through value and heap slots, against the one-worker value-slot run.
func requireAgree(t *testing.T, run func(workers int) any) {
	t.Helper()
	var ref any
	for _, workers := range []int{1, 2} {
		value, heap := bothPaths(func() any { return run(workers) })
		if ref == nil {
			ref = value
		}
		if !reflect.DeepEqual(ref, value) {
			t.Errorf("%d workers, value slots: result differs from 1 worker", workers)
		}
		if !reflect.DeepEqual(ref, heap) {
			t.Errorf("%d workers, heap slots: result differs from value slots", workers)
		}
	}
}

// TestDeliveryFullWidthPayload sends payloads of exactly the physical
// bandwidth: 64 bits, which fills a value slot's one payload word, and 88
// bits, which spills into a second. Every receipt must equal its send.
func TestDeliveryFullWidthPayload(t *testing.T) {
	for _, n := range []int{256, 2000} {
		g := gen.GNP(n, 8/float64(n), 4)
		for _, workers := range []int{1, 2} {
			value, heap := bothPaths(func() *congest.OutputResult { return probeRun(t, g, "full", workers, congest.Config{}) })
			if value.MaxMessageBits != value.Bandwidth {
				t.Fatalf("n=%d: largest message %d bits, bandwidth %d; test vacuous", n, value.MaxMessageBits, value.Bandwidth)
			}
			checkProbe(t, g, value, 1)
			checkProbe(t, g, heap, 1)
			if !reflect.DeepEqual(value, heap) {
				t.Errorf("n=%d workers %d: heap slots deliver differently", n, workers)
			}
		}
	}
}

// TestDeliveryProbeModes sends a distinct message on every port, so all
// but the first of a node's messages in a round are heap messages, and one
// message per round on a rotating port, so a slot not written this round
// must read as empty. Every receipt must be read the round after it was
// sent, through either slot kind.
func TestDeliveryProbeModes(t *testing.T) {
	g := gen.GNP(96, 0.06, 2)
	for _, mode := range []string{"ports", "rotate"} {
		for _, workers := range []int{1, 2} {
			value, heap := bothPaths(func() *congest.OutputResult { return probeRun(t, g, mode, workers, congest.Config{}) })
			checkProbe(t, g, value, 1)
			checkProbe(t, g, heap, 1)
			if !reflect.DeepEqual(value, heap) {
				t.Errorf("%s, workers %d: heap slots deliver differently", mode, workers)
			}
		}
	}
}

// haltSender broadcasts its ID in round 1. Even-ID nodes halt in that same
// round; odd-ID nodes record what they hear in round 2 and halt then.
type haltSender struct {
	info  congest.NodeInfo
	w     wire.Writer
	heard []uint64
}

func (p *haltSender) Init(info congest.NodeInfo) { p.info = info }

func (p *haltSender) Round(round int, recv []*congest.Message) ([]*congest.Message, bool) {
	if round == 1 {
		p.w.Reset()
		p.w.WriteUint(p.info.ID, p.info.MaxID)
		return congest.Broadcast(p.info.Out, p.info.Message(&p.w)), p.info.ID%2 == 0
	}
	for _, m := range recv {
		if m != nil {
			id, err := m.Reader().ReadUint(p.info.MaxID)
			if err != nil {
				panic(err)
			}
			p.heard = append(p.heard, id)
		}
	}
	return nil, true
}

func (p *haltSender) Output() any { return p.heard }

// TestDeliveryHaltingSender checks that the messages a node sends in the
// round it halts are still delivered: every odd-ID node hears every
// neighbour, halted or not.
func TestDeliveryHaltingSender(t *testing.T) {
	g := gen.GNP(150, 0.05, 8)
	for _, workers := range []int{1, 2} {
		value, heap := bothPaths(func() *congest.OutputResult {
			res, err := congest.RunOutputs[haltSender](g, nil, congest.Config{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			return res
		})
		for v := 0; v < g.N(); v++ {
			if g.ID(v)%2 == 1 && len(value.Outputs[v].([]uint64)) != g.Degree(v) {
				t.Fatalf("workers %d: node %d heard %d of its %d neighbours", workers, v, len(value.Outputs[v].([]uint64)), g.Degree(v))
			}
		}
		if !reflect.DeepEqual(value, heap) {
			t.Errorf("workers %d: heap slots deliver differently", workers)
		}
	}
}

// overSender sends one message over the bandwidth from every node whose
// index is at least from, in round 2, after a round of valid sends.
type overSender struct {
	info congest.NodeInfo
	from int
	w    wire.Writer
}

func (p *overSender) Init(info congest.NodeInfo) { p.info = info }

func (p *overSender) Round(round int, _ []*congest.Message) ([]*congest.Message, bool) {
	p.w.Reset()
	p.w.WriteBool(true)
	if round == 2 && p.info.Index >= p.from {
		for p.w.Len() <= p.info.Bandwidth {
			p.w.WriteBits(0xff, 8)
		}
	}
	return congest.Broadcast(p.info.Out, p.info.Message(&p.w)), round == 3
}

func (p *overSender) Output() any { return nil }

// TestDeliveryLowestIndexError runs nodes that break the bandwidth from
// index 57 up on two workers: both slot kinds must report node 57.
func TestDeliveryLowestIndexError(t *testing.T) {
	g := gen.Cycle(200)
	value, heap := bothPaths(func() error {
		_, err := congest.RunOutputs(g, func(p *overSender) { p.from = 57 }, congest.Config{Workers: 2})
		return err
	})
	for path, err := range map[string]error{"value": value, "heap": heap} {
		if err == nil || !strings.Contains(err.Error(), "node 57 ") {
			t.Errorf("%s slots: error %v, want one naming node 57", path, err)
		}
	}
}

// dupFirstRound duplicates every message sent in round 1 and delivers all
// messages.
type dupFirstRound struct{}

func (dupFirstRound) Begin(*graph.Graph)               {}
func (dupFirstRound) State(int, int) congest.NodeState { return congest.NodeUp }
func (dupFirstRound) Deliver(round, _, _ int, m *congest.Message) (*congest.Message, bool) {
	return m, round == 1
}

// TestDeliveryDuplicateOverwritten broadcasts every round under a hook
// that duplicates round 1's messages. Each copy would be read in round 3,
// but the fresh round-2 message on the same port overwrites it, so every
// receipt is read exactly one round after it was sent.
func TestDeliveryDuplicateOverwritten(t *testing.T) {
	g := gen.GNP(96, 0.06, 5)
	for _, workers := range []int{1, 2} {
		value, heap := bothPaths(func() *congest.OutputResult {
			return probeRun(t, g, "broadcast", workers, congest.Config{Hook: dupFirstRound{}})
		})
		if value.FaultDuplicated == 0 {
			t.Fatal("no duplicates; test vacuous")
		}
		checkProbe(t, g, value, 1)
		checkProbe(t, g, heap, 1)
		if !reflect.DeepEqual(value, heap) {
			t.Errorf("workers %d: heap slots deliver differently", workers)
		}
	}
}

// relay broadcasts its ID in round 1, forwards each message it receives in
// round 2 to the next port, and records in round 3 the IDs it hears, by
// port. Forwarded messages are receive views, which the next node stepped
// by the same worker reuses.
type relay struct {
	info  congest.NodeInfo
	w     wire.Writer
	heard []uint64
}

func (p *relay) Init(info congest.NodeInfo) {
	p.info = info
	p.heard = make([]uint64, info.Degree)
}

func (p *relay) Round(round int, recv []*congest.Message) ([]*congest.Message, bool) {
	out := p.info.Out
	switch round {
	case 1:
		p.w.Reset()
		p.w.WriteUint(p.info.ID, p.info.MaxID)
		return congest.Broadcast(out, p.info.Message(&p.w)), false
	case 2:
		for port, m := range recv {
			out[(port+1)%len(out)] = m
		}
		return out, false
	}
	for port, m := range recv {
		if m != nil {
			id, err := m.Reader().ReadUint(p.info.MaxID)
			if err != nil {
				panic(err)
			}
			p.heard[port] = id
		}
	}
	return nil, true
}

func (p *relay) Output() any { return p.heard }

// TestDeliveryForwardedViews checks that a forwarded received message
// arrives with its own payload: node u hears on the port to x the ID of
// the neighbour x heard on the port before the one leading to u.
func TestDeliveryForwardedViews(t *testing.T) {
	g := gen.GNP(150, 0.05, 9)
	for _, workers := range []int{1, 2} {
		value, heap := bothPaths(func() *congest.OutputResult {
			res, err := congest.RunOutputs[relay](g, nil, congest.Config{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			return res
		})
		for u := 0; u < g.N(); u++ {
			for q, x := range g.Neighbors(u) {
				nx := g.Neighbors(int(x))
				back := slices.Index(nx, int32(u))
				want := g.ID(int(nx[(back-1+len(nx))%len(nx)]))
				if got := value.Outputs[u].([]uint64)[q]; got != want {
					t.Fatalf("workers %d: node %d port %d heard %d, want %d", workers, u, q, got, want)
				}
			}
		}
		if !reflect.DeepEqual(value, heap) {
			t.Errorf("workers %d: heap slots deliver differently", workers)
		}
	}
}
