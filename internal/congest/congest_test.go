package congest

import (
	"errors"
	"reflect"
	"testing"

	"distmwis/internal/graph"
	"distmwis/internal/graph/gen"
	"distmwis/internal/wire"
)

// idExchange broadcasts the node's ID in round 1 and records the IDs heard
// in round 2.
type idExchange struct {
	info  NodeInfo
	heard []uint64
}

func (p *idExchange) Init(info NodeInfo) { p.info = info }

func (p *idExchange) Round(round int, recv []*Message) ([]*Message, bool) {
	switch round {
	case 1:
		var w wire.Writer
		w.WriteUint(p.info.ID, p.info.MaxID)
		m := NewMessage(&w)
		out := make([]*Message, p.info.Degree)
		for i := range out {
			out[i] = m
		}
		return out, false
	default:
		for _, m := range recv {
			if m == nil {
				continue
			}
			id, err := m.Reader().ReadUint(p.info.MaxID)
			if err != nil {
				panic(err)
			}
			p.heard = append(p.heard, id)
		}
		return nil, true
	}
}

func (p *idExchange) Output() any { return p.heard }

func TestIDExchangeLearnsNeighbors(t *testing.T) {
	g := gen.Cycle(8)
	res, err := Run[idExchange](g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 2 {
		t.Errorf("Rounds = %d, want 2", res.Rounds)
	}
	for v := 0; v < g.N(); v++ {
		heard := res.Outputs[v].([]uint64)
		want := map[uint64]bool{}
		for _, u := range g.Neighbors(v) {
			want[g.ID(int(u))] = true
		}
		if len(heard) != len(want) {
			t.Fatalf("node %d heard %d ids, want %d", v, len(heard), len(want))
		}
		for _, id := range heard {
			if !want[id] {
				t.Errorf("node %d heard unexpected id %d", v, id)
			}
		}
	}
	if res.Messages != int64(2*g.M()) {
		t.Errorf("Messages = %d, want %d", res.Messages, 2*g.M())
	}
	if res.MaxMessageBits == 0 || res.Bits == 0 {
		t.Error("metrics not recorded")
	}
}

// floodMax floods the maximum ID seen for a fixed number of rounds; on a
// connected graph with enough rounds every node should know the global max.
type floodMax struct {
	info   NodeInfo
	best   uint64
	rounds int
}

func (p *floodMax) Init(info NodeInfo) { p.best = info.ID; p.info = info }

func (p *floodMax) Round(round int, recv []*Message) ([]*Message, bool) {
	for _, m := range recv {
		if m == nil {
			continue
		}
		id, err := m.Reader().ReadUint(p.info.MaxID)
		if err != nil {
			panic(err)
		}
		if id > p.best {
			p.best = id
		}
	}
	if round > p.rounds {
		return nil, true
	}
	var w wire.Writer
	w.WriteUint(p.best, p.info.MaxID)
	m := NewMessage(&w)
	out := make([]*Message, p.info.Degree)
	for i := range out {
		out[i] = m
	}
	return out, false
}

func (p *floodMax) Output() any { return p.best }

func TestFloodMaxConverges(t *testing.T) {
	const n = 20
	g := gen.Path(n)
	res, err := Run(g, func(p *floodMax) { p.rounds = n })
	if err != nil {
		t.Fatal(err)
	}
	want := g.MaxID()
	for v := 0; v < n; v++ {
		if res.Outputs[v].(uint64) != want {
			t.Errorf("node %d best = %d, want %d", v, res.Outputs[v], want)
		}
	}
}

func TestFloodMaxTruncated(t *testing.T) {
	const n = 30
	g := gen.Path(n)
	// After 3 rounds, node 0 cannot know IDs further than distance ~3.
	res, err := Run(g, func(p *floodMax) { p.rounds = n }, WithHardStop(3))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("expected truncation")
	}
	if res.Rounds != 3 {
		t.Errorf("Rounds = %d, want 3", res.Rounds)
	}
	// Node 0's knowledge horizon: IDs of nodes within distance 3 (IDs are
	// v+1 on a path, so max visible is 4... node index 3 => ID 4).
	if got := res.Outputs[0].(uint64); got > 4 {
		t.Errorf("node 0 learned ID %d beyond its 3-round horizon", got)
	}
}

// bigTalker violates the CONGEST bandwidth on purpose.
type bigTalker struct{ info NodeInfo }

func (p *bigTalker) Init(info NodeInfo) { p.info = info }

func (p *bigTalker) Round(round int, recv []*Message) ([]*Message, bool) {
	var w wire.Writer
	for i := 0; i < 100; i++ {
		w.WriteBits(0xFFFF, 16) // 1600 bits, far over any log-n budget here
	}
	out := make([]*Message, p.info.Degree)
	m := NewMessage(&w)
	for i := range out {
		out[i] = m
	}
	return out, true
}

func (p *bigTalker) Output() any { return nil }

func TestBandwidthEnforced(t *testing.T) {
	g := gen.Cycle(16)
	if _, err := Run[bigTalker](g, nil); err == nil {
		t.Fatal("expected bandwidth violation in CONGEST")
	}
	// The same protocol is legal in LOCAL.
	if _, err := Run[bigTalker](g, nil, WithModel(ModelLocal)); err != nil {
		t.Fatalf("LOCAL run failed: %v", err)
	}
}

func TestBandwidthValue(t *testing.T) {
	tests := []struct {
		nUpper, factor, want int
	}{
		{nUpper: 2, factor: 1, want: 1},
		{nUpper: 1024, factor: 1, want: 10},
		{nUpper: 1024, factor: 8, want: 80},
		{nUpper: 1025, factor: 1, want: 11},
	}
	for _, tt := range tests {
		if got := Bandwidth(tt.nUpper, tt.factor); got != tt.want {
			t.Errorf("Bandwidth(%d,%d) = %d, want %d", tt.nUpper, tt.factor, got, tt.want)
		}
	}
}

// Agreement across worker counts on every registered algorithm is covered
// by the registry-generated parity suite in internal/protocol
// (parity_test.go).

func TestSeedChangesRandomness(t *testing.T) {
	g := gen.Cycle(64)
	run := func(seed uint64) []any {
		res, err := Run[coinFlipper](g, nil, WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		return res.Outputs
	}
	a, b := run(1), run(2)
	if reflect.DeepEqual(a, b) {
		t.Error("different seeds produced identical random outputs")
	}
	if !reflect.DeepEqual(a, run(1)) {
		t.Error("same seed not reproducible")
	}
}

type coinFlipper struct {
	info NodeInfo
	coin uint64
}

func (p *coinFlipper) Init(info NodeInfo) { p.info = info }

func (p *coinFlipper) Round(int, []*Message) ([]*Message, bool) {
	p.coin = p.info.Rand.Uint64()
	return nil, true
}

func (p *coinFlipper) Output() any { return p.coin }

func TestNUpperValidation(t *testing.T) {
	g := gen.Cycle(10)
	if _, err := Run[coinFlipper](g, nil, WithNUpper(5)); err == nil {
		t.Error("expected error for NUpper < n")
	}
}

func TestRoundLimit(t *testing.T) {
	g := gen.Cycle(4)
	_, err := Run[neverDone](g, nil, WithMaxRounds(10))
	if !errors.Is(err, ErrRoundLimit) {
		t.Errorf("err = %v, want ErrRoundLimit", err)
	}
}

type neverDone struct{}

func (p *neverDone) Init(NodeInfo)                            {}
func (p *neverDone) Round(int, []*Message) ([]*Message, bool) { return nil, false }
func (p *neverDone) Output() any                              { return nil }

func TestTooManyPortsRejected(t *testing.T) {
	g := gen.Path(3)
	_, err := Run[overSender](g, nil)
	if err == nil {
		t.Error("expected error for sending on more ports than degree")
	}
}

type overSender struct{ info NodeInfo }

func (p *overSender) Init(info NodeInfo) { p.info = info }

func (p *overSender) Round(int, []*Message) ([]*Message, bool) {
	var w wire.Writer
	w.WriteBool(true)
	out := make([]*Message, p.info.Degree+1)
	for i := range out {
		out[i] = NewMessage(&w)
	}
	return out, true
}

func (p *overSender) Output() any { return nil }

func TestMessagesToHaltedNodesDropped(t *testing.T) {
	// Node 0 halts immediately; node 1 keeps sending to it for 3 rounds.
	// The run must terminate cleanly with correct message accounting.
	g := gen.Path(2)
	res, err := Run[stubbornSender](g, nil, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 4 {
		t.Errorf("rounds = %d, want 4", res.Rounds)
	}
}

// stubbornSender: the node with the smaller ID halts in round 1; the other
// keeps sending until round 4.
type stubbornSender struct{ info NodeInfo }

func (p *stubbornSender) Init(info NodeInfo) { p.info = info }

func (p *stubbornSender) Round(round int, recv []*Message) ([]*Message, bool) {
	if p.info.ID == 1 {
		return nil, true // halts immediately, will receive dropped messages
	}
	var w wire.Writer
	w.WriteBool(true)
	out := make([]*Message, p.info.Degree)
	for i := range out {
		out[i] = NewMessage(&w)
	}
	return out, round >= 4
}

func (p *stubbornSender) Output() any { return nil }

func TestBoolOutputs(t *testing.T) {
	res := &Result{Outputs: []any{true, false, nil, "x", true}}
	got := BoolOutputs(res)
	want := []bool{true, false, false, false, true}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BoolOutputs = %v, want %v", got, want)
	}
}

// portConsistency checks that messages are delivered on the correct reverse
// ports: each node sends its ID tagged with the port it used, and the
// receiver verifies the sender is exactly the neighbour on the receiving
// port.
type portConsistency struct {
	info NodeInfo
	g    *graph.Graph
	ok   bool
}

func (p *portConsistency) Init(info NodeInfo) { p.info = info; p.ok = true }

func (p *portConsistency) Round(round int, recv []*Message) ([]*Message, bool) {
	if round == 1 {
		out := make([]*Message, p.info.Degree)
		for i := range out {
			var w wire.Writer
			w.WriteUint(p.info.ID, p.info.MaxID)
			out[i] = NewMessage(&w)
		}
		return out, false
	}
	for port, m := range recv {
		if m == nil {
			p.ok = false
			continue
		}
		id, _ := m.Reader().ReadUint(p.info.MaxID)
		wantID := p.g.ID(int(p.g.Neighbors(p.info.Index)[port]))
		if id != wantID {
			p.ok = false
		}
	}
	return nil, true
}

func (p *portConsistency) Output() any { return p.ok }

func TestPortConsistency(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{name: "cycle", g: gen.Cycle(9)},
		{name: "gnp", g: gen.GNP(120, 0.08, 3)},
		{name: "clique", g: gen.Clique(15)},
		{name: "tree", g: gen.RandomTree(80, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.g, func(p *portConsistency) { p.g = tc.g })
			if err != nil {
				t.Fatal(err)
			}
			for v, out := range res.Outputs {
				if !out.(bool) {
					t.Errorf("node %d saw misrouted message", v)
				}
			}
		})
	}
}

func TestTruncationErrorCarriesPartial(t *testing.T) {
	const n = 30
	g := gen.Path(n)
	res, err := Run(g, func(p *floodMax) { p.rounds = n }, WithMaxRounds(3))
	if err == nil {
		t.Fatal("expected round-limit error")
	}
	if res != nil {
		t.Fatal("Run must return a nil result alongside the error")
	}
	if !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("error %v does not unwrap to ErrRoundLimit", err)
	}
	var te *TruncationError
	if !errors.As(err, &te) {
		t.Fatalf("error %T is not a TruncationError", err)
	}
	if te.Limit != 3 {
		t.Errorf("Limit = %d, want 3", te.Limit)
	}
	if te.Partial == nil || !te.Partial.Truncated {
		t.Fatal("TruncationError must carry the truncated partial result")
	}
	if len(te.Partial.Outputs) != n {
		t.Fatalf("partial outputs: got %d, want %d", len(te.Partial.Outputs), n)
	}
	for v, out := range te.Partial.Outputs {
		if _, ok := out.(uint64); !ok {
			t.Fatalf("node %d output missing from partial result", v)
		}
	}
}

// stubHook is a minimal DeliveryHook for in-package tests (the real
// injector lives in internal/fault, which imports congest).
type stubHook struct {
	dropFrom  int // drop every message this node sends (-1 = none)
	crashNode int // crash-stop this node at crashAt (-1 = none)
	crashAt   int
}

func (h *stubHook) Begin(*graph.Graph) {}

func (h *stubHook) State(round, v int) NodeState {
	if v == h.crashNode && round >= h.crashAt {
		return NodeStopped
	}
	return NodeUp
}

func (h *stubHook) Deliver(round, from, to int, m *Message) (*Message, bool) {
	if from == h.dropFrom {
		return nil, false
	}
	return m, false
}

func TestHookDropsAndCrashes(t *testing.T) {
	const n = 12
	g := gen.Path(n)
	// Drop everything node 0 sends: its ID never propagates, so the flood
	// converges to the max over nodes 1..n-1 for every other node.
	res, err := Run(g, func(p *floodMax) { p.rounds = n },
		WithFaults(&stubHook{dropFrom: 0, crashNode: -1}))
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultLost == 0 {
		t.Error("expected dropped messages to be counted")
	}
	want := g.MaxID()
	for v := 1; v < n; v++ {
		if got := res.Outputs[v].(uint64); got != want {
			t.Errorf("node %d best = %d, want %d", v, got, want)
		}
	}

	// Crash-stop the middle node at round 1: it freezes on its initial
	// state and partitions the path, so IDs cannot cross it.
	mid := n / 2
	res, err = Run(g, func(p *floodMax) { p.rounds = n },
		WithFaults(&stubHook{dropFrom: -1, crashNode: mid, crashAt: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Outputs[mid].(uint64); got != uint64(mid+1) {
		t.Errorf("crashed node output = %d, want its own ID %d", got, mid+1)
	}
	if got := res.Outputs[0].(uint64); got == want {
		t.Error("node 0 learned an ID from across the crashed node")
	}
}
