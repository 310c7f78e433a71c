package congest_test

import (
	"errors"
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

// TestDeliveryProbeModes sends a distinct message on every port, one send
// call each, and one message per round on a rotating port, so a slot not
// written this round must read as empty. Every receipt must be read the round after it was
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

func (p *haltSender) Round(round int, recv []*congest.Message) bool {
	if round == 1 {
		p.w.Reset()
		p.w.WriteUint(p.info.ID, p.info.MaxID)
		p.info.Broadcast(&p.w)
		return p.info.ID%2 == 0
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
	return true
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

func (p *overSender) Round(round int, _ []*congest.Message) bool {
	p.w.Reset()
	p.w.WriteBool(true)
	if round == 2 && p.info.Index >= p.from {
		for p.w.Len() <= p.info.Bandwidth {
			p.w.WriteBits(0xff, 8)
		}
	}
	p.info.Broadcast(&p.w)
	return round == 3
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
// port. A forwarded payload is read from a receive view, which the next
// node stepped by the same worker reuses, and sent from one reused
// writer.
type relay struct {
	info  congest.NodeInfo
	w     wire.Writer
	heard []uint64
}

func (p *relay) Init(info congest.NodeInfo) {
	p.info = info
	p.heard = make([]uint64, info.Degree)
}

func (p *relay) Round(round int, recv []*congest.Message) bool {
	switch round {
	case 1:
		p.w.Reset()
		p.w.WriteUint(p.info.ID, p.info.MaxID)
		p.info.Broadcast(&p.w)
		return false
	case 2:
		for port, m := range recv {
			if m == nil {
				continue
			}
			p.w.Reset()
			r := m.Reader()
			for r.Remaining() > 0 {
				k := min(r.Remaining(), 64)
				v, err := r.ReadBits(k)
				if err != nil {
					panic(err)
				}
				p.w.WriteBits(v, k)
			}
			p.info.Send((port+1)%len(recv), &p.w)
		}
		return false
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
	return true
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

// actor runs act in round 1 on every node and halts.
type actor struct {
	info congest.NodeInfo
	act  func(info *congest.NodeInfo)
}

func (p *actor) Init(info congest.NodeInfo) { p.info = info }

func (p *actor) Round(int, []*congest.Message) bool {
	p.act(&p.info)
	return true
}

func (p *actor) Output() any { return nil }

// runActor runs act on g through value slots and heap slots, with c, and
// returns the two errors.
func runActor(g *graph.Graph, act func(info *congest.NodeInfo), c congest.Config) (value, heap error) {
	return bothPaths(func() error {
		_, err := congest.RunOutputs(g, func(p *actor) { p.act = act }, c)
		return err
	})
}

// oneBit is a writer holding a single set bit.
func oneBit() *wire.Writer {
	w := new(wire.Writer)
	w.WriteBool(true)
	return w
}

// TestSendTwiceOnPortFails has node 57 send on port 1 after its broadcast:
// the run fails with an error naming the node and the port, with and
// without a delivery hook, on one and two workers. A fault duplicate
// already in a slot is not a send: broadcasting every round under a hook
// that duplicates every message runs clean.
func TestSendTwiceOnPortFails(t *testing.T) {
	g := gen.Cycle(200)
	twice := func(info *congest.NodeInfo) {
		info.Broadcast(oneBit())
		if info.Index == 57 {
			info.Send(1, oneBit())
		}
	}
	for _, c := range []congest.Config{{Workers: 1}, {Workers: 2}, {Hook: dupAll{}}} {
		value, heap := runActor(g, twice, c)
		for path, err := range map[string]error{"value": value, "heap": heap} {
			if err == nil || !strings.Contains(err.Error(), "node 57 sent twice on port 1") {
				t.Errorf("%s slots, %d workers, hook %v: error %v, want one naming node 57 and port 1", path, c.Workers, c.Hook != nil, err)
			}
		}
	}
	for _, workers := range []int{1, 2} {
		value, heap := bothPaths(func() *congest.OutputResult {
			return probeRun(t, g, "broadcast", workers, congest.Config{Hook: dupAll{}})
		})
		if value.FaultDuplicated == 0 || heap.FaultDuplicated == 0 {
			t.Fatal("no duplicates; test vacuous")
		}
	}
}

// TestSendPortOutOfRange sends on port -1 and on port Degree: both fail
// the run, naming the node and the port.
func TestSendPortOutOfRange(t *testing.T) {
	g := gen.Cycle(100)
	for _, port := range []int{-1, 2} {
		value, heap := runActor(g, func(info *congest.NodeInfo) {
			if info.Index == 40 {
				info.Send(port, oneBit())
			}
		}, congest.Config{Workers: 2})
		want := fmt.Sprintf("congest: node 40 sent on port %d but has degree 2", port)
		for path, err := range map[string]error{"value": value, "heap": heap} {
			if err == nil || err.Error() != want {
				t.Errorf("%s slots, port %d: error %v, want %q", path, port, err, want)
			}
		}
	}
}

// TestBroadcastOverBandwidth checks the error of an over-bandwidth send: it
// wraps ErrBandwidth and names the first port the send would have used,
// port 0 for a Broadcast and the lowest port in the set for a
// BroadcastTo.
func TestBroadcastOverBandwidth(t *testing.T) {
	g := gen.Cycle(100)
	var over wire.Writer
	for i := 0; i < 4; i++ {
		over.WriteBits(0xffff, 16)
	}
	mask := graph.NewBitset(2)
	mask.Set(1)
	for name, act := range map[string]func(info *congest.NodeInfo){
		"broadcast":   func(info *congest.NodeInfo) { info.Broadcast(&over) },
		"broadcastTo": func(info *congest.NodeInfo) { info.BroadcastTo(mask, &over) },
	} {
		first := 0
		if name == "broadcastTo" {
			first = 1
		}
		bw := congest.Bandwidth(100, 8)
		want := fmt.Sprintf("congest: node 0 port %d message of 64 bits exceeds bandwidth %d: %v", first, bw, congest.ErrBandwidth)
		value, heap := runActor(g, act, congest.Config{BandwidthFactor: 8})
		for path, err := range map[string]error{"value": value, "heap": heap} {
			if !errors.Is(err, congest.ErrBandwidth) || err.Error() != want {
				t.Errorf("%s, %s slots: error %v, want %q", name, path, err, want)
			}
		}
	}
}

// TestBroadcastToEmptySet sends to an empty and a nil port set, once with
// a payload over the bandwidth: nothing is sent, counted or refused.
func TestBroadcastToEmptySet(t *testing.T) {
	g := gen.GNP(150, 0.05, 7)
	var over wire.Writer
	for over.Len() <= congest.Bandwidth(g.N(), 8) {
		over.WriteBits(0xff, 8)
	}
	for _, w := range []*wire.Writer{oneBit(), &over} {
		for _, workers := range []int{1, 2} {
			value, heap := bothPaths(func() *congest.OutputResult {
				res, err := congest.RunOutputs(g, func(p *actor) {
					p.act = func(info *congest.NodeInfo) {
						info.BroadcastTo(graph.NewBitset(info.Degree), w)
						info.BroadcastTo(nil, w)
					}
				}, congest.Config{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				return res
			})
			for path, res := range map[string]*congest.OutputResult{"value": value, "heap": heap} {
				if res.Messages != 0 || res.Bits != 0 || res.MaxMessageBits != 0 {
					t.Errorf("%s slots, %d workers: %d messages, %d bits, largest %d; want none", path, workers, res.Messages, res.Bits, res.MaxMessageBits)
				}
			}
		}
	}
}
