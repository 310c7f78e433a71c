package congest_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"distmwis/internal/congest"
	"distmwis/internal/fault"
	"distmwis/internal/graph"
	"distmwis/internal/graph/gen"
	"distmwis/internal/reliable"
	"distmwis/internal/wire"
)

// Tests for every case in which NodeInfo.Message must fall back to a heap
// message. Each runs slotProbe and checks that every payload a node
// received is, bit for bit, the payload its neighbour sent on that edge in
// the round the payload is stamped with. A slot refilled while a copy of
// its message was still to be read would show up as a payload stamped with
// a later round, or as bytes that differ from the logged send.

// probeSent is one logged send: the payload bytes and bit length.
type probeSent struct {
	data []byte
	bits int
}

// probeGot is one logged receipt: the round it was read in, the port, the
// stamp it carried and its payload.
type probeGot struct {
	round, port, stamp int
	probeSent
}

// probeLog is a node's output. It is built from heap copies: the process
// itself lives in a recycled array that is zeroed when the run ends.
type probeLog struct {
	sent map[[2]int]probeSent // (stamp, port) → payload
	got  []probeGot
}

// slotProbe sends round-stamped payloads for rounds rounds and halts one
// round later, after reading the last of them. mode picks the send shape:
//
//	"ports"     a distinct message on every port: all but the first of a
//	            round's messages are second messages in one round
//	"local"     one broadcast of a 48-byte payload, over wire.CongestBytes
//	"rotate"    one message per round on port round mod degree
//	"full"      one broadcast padded to exactly the bandwidth
//	"broadcast" one broadcast of a slot-sized payload
type slotProbe struct {
	info   congest.NodeInfo
	rounds int
	mode   string
	w      wire.Writer
	log    probeLog
}

func (p *slotProbe) Init(info congest.NodeInfo) {
	p.info = info
	p.log.sent = map[[2]int]probeSent{}
}

// write stamps the payload with the round, the sender's ID and a tag.
func (p *slotProbe) write(round, tag int) {
	p.w.Reset()
	p.w.WriteUint(uint64(round), uint64(p.rounds))
	p.w.WriteUint(p.info.ID, p.info.MaxID)
	p.w.WriteUint(uint64(tag), uint64(p.info.NUpper))
}

func (p *slotProbe) Round(round int, recv []*congest.Message) ([]*congest.Message, bool) {
	for port, m := range recv {
		if m == nil {
			continue
		}
		stamp, err := m.Reader().ReadUint(uint64(p.rounds))
		if err != nil {
			panic(fmt.Sprintf("node %d round %d port %d: unreadable stamp: %v", p.info.Index, round, port, err))
		}
		p.log.got = append(p.log.got, probeGot{round, port, int(stamp), probeSent{m.AppendData(nil), m.Bits()}})
	}
	if round > p.rounds {
		return nil, true
	}
	out := p.info.Out
	switch p.mode {
	case "ports":
		for port := range out {
			p.write(round, port)
			p.send(round, port)
		}
	case "local":
		p.write(round, 0)
		for i := 0; i < 6; i++ {
			p.w.WriteBits(p.info.ID*0x9e3779b97f4a7c15+uint64(round*8+i), 64)
		}
		p.send(round, -1)
	case "rotate":
		if len(out) > 0 {
			p.write(round, 0)
			p.send(round, round%len(out))
		}
	case "full":
		p.write(round, 0)
		for p.w.Len() < p.info.Bandwidth {
			p.w.WriteBits(p.info.Rand.Uint64(), min(64, p.info.Bandwidth-p.w.Len()))
		}
		p.send(round, -1)
	default:
		p.write(round, 0)
		p.send(round, -1)
	}
	return out, false
}

// send puts the writer's payload on port, or on every port for -1, and
// logs it as written, not as read back from the message.
func (p *slotProbe) send(round, port int) {
	m := p.info.Message(&p.w)
	for q := range p.info.Out {
		if port < 0 || q == port {
			p.info.Out[q] = m
			p.log.sent[[2]int{round, q}] = probeSent{slices.Clone(p.w.Bytes()), p.w.Len()}
		}
	}
}

func (p *slotProbe) Output() any { return p.log }

// checkProbe verifies every receipt against its sender's log and returns
// how many receipts were read lag rounds after their stamp, by lag. Any
// lag outside allowed fails the test.
func checkProbe(t *testing.T, g *graph.Graph, res *congest.Result, allowed ...int) map[int]int {
	t.Helper()
	lags := map[int]int{}
	for u := 0; u < g.N(); u++ {
		for _, got := range res.Outputs[u].(probeLog).got {
			v := int(g.Neighbors(u)[got.port])
			back := slices.Index(g.Neighbors(v), int32(u))
			sent, ok := res.Outputs[v].(probeLog).sent[[2]int{got.stamp, back}]
			if !ok {
				t.Fatalf("node %d read a payload stamped %d on port %d in round %d, but node %d sent none then", u, got.stamp, got.port, got.round, v)
			}
			if got.bits != sent.bits || !bytes.Equal(got.data, sent.data) {
				t.Fatalf("node %d round %d port %d: received %d bits %x, node %d sent %d bits %x in round %d",
					u, got.round, got.port, got.bits, got.data, v, sent.bits, sent.data, got.stamp)
			}
			lag := got.round - got.stamp
			if !slices.Contains(allowed, lag) {
				t.Fatalf("node %d read node %d's round-%d payload in round %d, lag %d not in %v", u, v, got.stamp, got.round, lag, allowed)
			}
			lags[lag]++
		}
	}
	return lags
}

// received counts every receipt in a run.
func received(res *congest.Result) int64 {
	var n int64
	for _, out := range res.Outputs {
		n += int64(len(out.(probeLog).got))
	}
	return n
}

func probeRun(t *testing.T, g *graph.Graph, mode string, workers int, opts ...congest.Option) *congest.Result {
	t.Helper()
	opts = append([]congest.Option{congest.WithSeed(3), congest.WithWorkers(workers)}, opts...)
	res, err := congest.Run(g, func(p *slotProbe) { p.rounds, p.mode = 9, mode }, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSlotSecondMessageInRound sends a distinct message on every port each
// round, so every node fills its slot once and builds the rest on the heap.
func TestSlotSecondMessageInRound(t *testing.T) {
	g := gen.GNP(96, 0.06, 2)
	for _, workers := range []int{1, 2} {
		res := probeRun(t, g, "ports", workers)
		checkProbe(t, g, res, 1)
		if got := received(res); got != res.Messages || got == 0 {
			t.Fatalf("workers %d: %d receipts for %d messages", workers, got, res.Messages)
		}
	}
}

// TestSlotOversizedLocalPayload broadcasts a LOCAL-model payload larger
// than a slot's buffer.
func TestSlotOversizedLocalPayload(t *testing.T) {
	g := gen.GNP(96, 0.06, 3)
	for _, workers := range []int{1, 2} {
		res := probeRun(t, g, "local", workers, congest.WithModel(congest.ModelLocal))
		if res.MaxMessageBits <= 8*wire.CongestBytes {
			t.Fatalf("payload of %d bits fits a slot; test vacuous", res.MaxMessageBits)
		}
		checkProbe(t, g, res, 1)
		if got := received(res); got != res.Messages || got == 0 {
			t.Fatalf("workers %d: %d receipts for %d messages", workers, got, res.Messages)
		}
	}
}

// dupAll is a fault hook that delivers every message and duplicates it,
// so each copy re-arrives one round after the original.
type dupAll struct{}

func (dupAll) Begin(*graph.Graph)               {}
func (dupAll) State(int, int) congest.NodeState { return congest.NodeUp }
func (dupAll) Deliver(_, _, _ int, m *congest.Message) (*congest.Message, bool) {
	return m, true
}

// TestSlotFaultDuplicate runs a ring whose nodes send on alternate ports,
// so the duplicate of a round-r message is read in round r+2 — after its
// sender has sent again in r+1 and while it steps r+2, when a slot of the
// same parity would be refilled.
func TestSlotFaultDuplicate(t *testing.T) {
	g := gen.Cycle(96)
	for _, workers := range []int{1, 2} {
		res := probeRun(t, g, "rotate", workers, congest.WithFaults(dupAll{}))
		lags := checkProbe(t, g, res, 1, 2)
		if lags[2] == 0 || res.FaultDuplicated == 0 {
			t.Fatalf("workers %d: no duplicate read a round late (lags %v, %d duplicates); test vacuous", workers, lags, res.FaultDuplicated)
		}
	}
}

// TestSlotReliableTransport runs the probe under the reliable transport,
// which keeps inner messages for retransmission, alone and over a lossy
// link that forces retransmissions.
func TestSlotReliableTransport(t *testing.T) {
	g := gen.GNP(96, 0.06, 4)
	for _, lossy := range []bool{false, true} {
		for _, workers := range []int{1, 2} {
			opts := []congest.Option{congest.WithReliable(reliable.New(reliable.Options{}))}
			if lossy {
				opts = append(opts, congest.WithFaults(fault.NewInjector(fault.Schedule{Seed: 8, Loss: 0.2})))
			}
			res := probeRun(t, g, "broadcast", workers, opts...)
			checkProbe(t, g, res, 1)
			if received(res) == 0 || (lossy && res.Retransmits == 0) {
				t.Fatalf("lossy %v workers %d: %d receipts, %d retransmits; test vacuous", lossy, workers, received(res), res.Retransmits)
			}
		}
	}
}
