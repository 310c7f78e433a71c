// Package congest simulates the synchronous CONGEST and LOCAL models of
// distributed computing (Peleg 2000; Linial 1992), the models all results in
// the paper are stated in.
//
// A protocol is a per-node Process. In every synchronous round each live
// node receives at most one message per incident edge (port-numbered), runs
// its local computation, and emits at most one message per port. In the
// CONGEST model every message is limited to B = c·⌈log₂ n⌉ bits — enforced
// here against the bit-exact sizes produced by package wire. The LOCAL model
// lifts the bandwidth bound.
//
// Faithfulness to the paper's assumptions (its Section 3):
//   - nodes know only their own identifier, weight, degree, and a polynomial
//     upper bound on n (NUpper); they do not know n or Δ;
//   - randomness is private per node (a deterministic PCG stream keyed by
//     the run seed and the node's identifier, never its index);
//   - ports are anonymous: a node cannot see its neighbours' identifiers
//     until they are sent in messages.
//
// One shared round loop enforces the synchronous model; the cross-cutting
// seams — delivery, bandwidth enforcement, fault hooks, tracing, reliable
// transport — live there once. Each round's node steps go to one executor
// (see pool.go) whose only scheduling choice is a worker count: with one
// worker it steps nodes in index order on the calling goroutine, with more
// it fans node steps out over persistent workers and joins them at a round
// barrier. A node's step is its whole round: it reads the node's inbox and
// runs Round, whose sends are calls that copy each message by value into
// the receivers' inbox slots for the next round (see send.go and
// slots.go). Every slot has one sender and a round's reads and writes go
// to different slabs, so no node can observe another node's mid-round
// state. Per-node randomness is
// pre-seeded and per-worker tallies are merged at the barrier in a fixed
// order, so every worker count yields bit-identical executions: scheduling
// changes no round, message or bit. Runs with a fault hook step on one
// worker (see DeliveryHook).
//
// So a node's outputs and messages are the same in a run over any union
// of connected components that contains it, given the same Config.NUpper,
// MaxWeight and MaxID: the bounds size every wire field, so a message
// that exceeds the bandwidth in one such run exceeds it in all of them.
//
// A run allocates in proportion to itself, not to n (see slots.go). Run
// takes a process type and hands node v element v of a recycled, zeroed
// []T, from which the caller reads the outputs when the run ends; a send
// copies a wire.Writer's bytes into the receivers' slots, so a message
// costs no allocation; and a chain of runs shares one Scratch. A received
// message is valid only until its receiver's step returns; a process that
// keeps a payload past that copies it (NewMessage, AppendData).
package congest

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"time"

	"distmwis/internal/graph"
	"distmwis/internal/trace"
	"distmwis/internal/wire"
)

// ErrRoundLimit is returned when a protocol fails to terminate within the
// configured maximum number of rounds (and truncation was not requested).
var ErrRoundLimit = errors.New("congest: protocol exceeded round limit")

// ErrBandwidth is wrapped by the error of a run in which a node sent more
// than B bits: its identifiers or weights are not poly(n).
var ErrBandwidth = errors.New("message exceeds the CONGEST bandwidth")

// Message is an immutable bit-accounted payload travelling over one edge in
// one round.
type Message struct {
	// The payload is buf[lo:hi]. A received message is a view of its inbox
	// slot: buf is the whole slab, so delivering it writes no pointer.
	buf    []byte
	lo, hi int
	bitN   int
}

// data returns the payload bytes; their capacity runs to the end of buf.
func (m *Message) data() []byte { return m.buf[m.lo:m.hi] }

// NewMessage freezes the contents of w into a heap Message. The writer can
// be reused afterwards. A process that retains a payload builds it here.
func NewMessage(w *wire.Writer) *Message {
	// Capacity in whole words lets a send load the payload word-wise.
	n := len(w.Bytes())
	data := make([]byte, n, (n+7)&^7)
	copy(data, w.Bytes())
	return &Message{buf: data, hi: n, bitN: w.Len()}
}

// NewRawMessage builds a message directly from a packed byte buffer
// holding nbits valid bits. It copies the buffer. It exists so the fault
// layer can construct corrupted variants of in-flight messages; protocol
// code should use NewMessage, and callers that hand over ownership of a
// fresh buffer should use NewMessageOwned.
func NewRawMessage(data []byte, nbits int) *Message {
	if nbits < 0 || nbits > 8*len(data) {
		panic(fmt.Sprintf("congest: NewRawMessage: %d bits do not fit in %d bytes", nbits, len(data)))
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	return &Message{buf: buf, hi: len(buf), bitN: nbits}
}

// NewMessageOwned wraps data without copying. The caller transfers
// ownership: it must not read or mutate data afterwards, nor the memory
// behind it up to its capacity, which delivery may read. Together with
// AppendData it forms the zero-copy path for in-repo layers (fault
// injection, transports) that already build a private buffer per message;
// external protocol code should keep using NewMessage.
func NewMessageOwned(data []byte, nbits int) *Message {
	if nbits < 0 || nbits > 8*len(data) {
		panic(fmt.Sprintf("congest: NewMessageOwned: %d bits do not fit in %d bytes", nbits, len(data)))
	}
	return &Message{buf: data, hi: len(data), bitN: nbits}
}

// Bits returns the exact payload size in bits.
func (m *Message) Bits() int { return m.bitN }

// Data returns a copy of the packed payload bytes (Bits() of them valid).
// The copy is defensive: a Message is immutable and may still be in
// flight. Callers that need the bytes in a buffer they already own should
// use AppendData instead.
func (m *Message) Data() []byte {
	buf := make([]byte, m.hi-m.lo)
	copy(buf, m.data())
	return buf
}

// AppendData appends the packed payload bytes to dst and returns the
// extended slice. It is the zero-allocation read path: with sufficient
// capacity in dst no new buffer is created, and unlike Data it never
// allocates an intermediate copy.
func (m *Message) AppendData(dst []byte) []byte { return append(dst, m.data()...) }

// Reader returns a fresh reader over the payload.
func (m *Message) Reader() *wire.Reader { return wire.NewReader(m.data(), m.bitN) }

// NodeInfo is everything a node knows before round 1.
type NodeInfo struct {
	// Index is the simulator's internal node index. It exists so processes
	// can return outputs; protocol logic must not treat it as knowledge
	// (use ID, which is the paper's O(log n)-bit identifier).
	Index int
	// ID is the node's unique identifier.
	ID uint64
	// Degree is the number of incident edges (ports 0..Degree-1).
	Degree int
	// Weight is the node's weight w(v).
	Weight int64
	// NUpper is a polynomial upper bound on the network size, the only
	// global knowledge the paper grants (Section 3, "Assumptions").
	NUpper int
	// MaxID is an upper bound on identifier values (identifiers are
	// O(log n) bits; see Config.MaxID). Used to size wire fields.
	MaxID uint64
	// MaxWeight is an upper bound on node weights (W ≤ poly(n)), used to
	// size wire fields for weight exchange.
	MaxWeight int64
	// Bandwidth is B, the per-message bit budget (0 means unbounded/LOCAL).
	Bandwidth int
	// Faulty reports that a fault-injection hook is installed for this run
	// (Config.Hook). Protocols may switch to defensive message formats that
	// would be wasted bandwidth in a reliable network; with Faulty false
	// their executions must be bit-for-bit what they were without the hook.
	Faulty bool
	// Rand is the node's private randomness stream. It belongs to the
	// simulator's per-run state, which the next Run reuses: it is valid
	// only while the run lasts, as are the send methods (send.go).
	Rand *rand.Rand
	// net delivers the node's sends; capture, when non-nil, collects them
	// instead (CaptureSends).
	net     *simulator
	capture []*Message
	// words backs Words.
	words *wordArena
}

// Words returns n zeroed words of scratch that the node may use until the
// run ends: per-port state, typically, with n a multiple of Degree. It
// may only be called from Init. The words come from memory the simulator
// recycles across runs, so a protocol with per-port state allocates
// nothing per node; like Rand they are valid only while the run lasts.
func (info *NodeInfo) Words(n int) []uint64 {
	if info.words == nil {
		return make([]uint64, n)
	}
	return info.words.take(n)
}

// Process is one node's state machine. Its output — a membership flag, a
// colour — is state of its concrete type, which the caller of Run reads
// when the run ends.
type Process interface {
	// Init is called once before the first round.
	Init(info NodeInfo)
	// Round runs one synchronous round. recv[p] is the message received on
	// port p this round (nil if none); recv and its messages are valid only
	// until Round returns. The node sends by calling its NodeInfo's
	// Broadcast, BroadcastTo or Send, at most once per port, and each call
	// delivers at once into the receivers' slots for the next round.
	// Returning done halts the node; what it sent this round is still
	// delivered.
	Round(round int, recv []*Message) (done bool)
}

// Result summarises a protocol execution.
type Result struct {
	Counters
	// Truncated reports that the run was stopped by Config.HardStop before
	// all nodes halted.
	Truncated bool
	// Bandwidth echoes the enforced per-message bit budget (0 = unbounded).
	Bandwidth int
}

// Counters are the cost and fault tallies of one run, or (summed with Add)
// of a pipeline of runs.
type Counters struct {
	// Rounds is the number of synchronous rounds executed.
	Rounds int
	// Messages counts all messages delivered.
	Messages int64
	// Bits counts the total payload bits of all messages.
	Bits int64
	// MaxMessageBits is the largest single message observed.
	MaxMessageBits int
	// FaultLost counts messages dropped by the fault layer: adversarial
	// loss, plus messages addressed to a node that was down on arrival.
	FaultLost int64
	// FaultCorrupted counts messages discarded at the receiver because the
	// payload checksum no longer matched after adversarial corruption.
	FaultCorrupted int64
	// FaultDuplicated counts duplicate copies placed into inboxes by the
	// fault layer (a fresh message on the same port overwrites the copy).
	FaultDuplicated int64
	// Retransmits counts data frames re-sent by the reliable transport
	// (Config.Reliable); zero without one.
	Retransmits int64
	// TransportAcks counts the transport's pure control frames (standalone
	// ACKs and keep-alive pokes). These frames are also included in
	// Messages and Bits.
	TransportAcks int64
	// Recoveries counts checkpoint-restore crash recoveries performed by
	// the transport.
	Recoveries int64
	// ReplayedRounds counts logical rounds re-executed from receive logs
	// during those recoveries.
	ReplayedRounds int64
	// DeadPorts counts transport ports whose failure detector gave up on
	// the far end.
	DeadPorts int64
}

// Add sums o into c; MaxMessageBits takes the larger of the two.
func (c *Counters) Add(o Counters) {
	c.Rounds += o.Rounds
	c.Messages += o.Messages
	c.Bits += o.Bits
	c.MaxMessageBits = max(c.MaxMessageBits, o.MaxMessageBits)
	c.FaultLost += o.FaultLost
	c.FaultCorrupted += o.FaultCorrupted
	c.FaultDuplicated += o.FaultDuplicated
	c.Retransmits += o.Retransmits
	c.TransportAcks += o.TransportAcks
	c.Recoveries += o.Recoveries
	c.ReplayedRounds += o.ReplayedRounds
	c.DeadPorts += o.DeadPorts
}

// Config configures one Run. The zero value of every field selects the
// default, so Config{} is a CONGEST run with seed 1, B = 8·⌈log₂ n⌉, the
// bounds nodes are told taken from the graph, GOMAXPROCS workers and no
// hook, transport or tracer.
type Config struct {
	// Local selects the LOCAL model: messages of any size.
	Local bool
	// BandwidthFactor is c in B = c·⌈log₂ NUpper⌉ bits (default 8).
	BandwidthFactor int
	// Seed is the root seed from which per-node streams derive (default 1).
	Seed uint64
	// MaxRounds is the safety round limit (default 1<<20).
	MaxRounds int
	// HardStop, when positive, truncates the execution after exactly that
	// many rounds, collecting whatever outputs nodes currently have. The
	// Section 7 lower-bound experiments use it to study algorithms cut off
	// before completion.
	HardStop int
	// NUpper is the polynomial upper bound on n that nodes are told
	// (default: the true n, the most charitable choice). It must be >= n.
	NUpper int
	// Workers is how many goroutines step nodes each round (default:
	// GOMAXPROCS; a negative count means one). One worker, or any count on
	// a graph of fewer than 64 nodes, steps nodes inline in index order;
	// otherwise the count is clamped to n. The count changes only
	// scheduling, never a round, message or bit.
	Workers int
	// MaxWeight is the bound W ≥ max|w(v)| on node weights that nodes are
	// told (NodeInfo.MaxWeight), used to size wire fields for weight
	// exchange. Left zero, Run scans the graph and hands every node the
	// exact global maximum — knowledge the paper's Section 3 assumptions
	// do not grant, and a confound in experiments that sweep W (wire fields
	// would be sized by the realized maximum instead of the nominal bound).
	// Run rejects a bound below the true maximum absolute weight.
	MaxWeight int64
	// MaxID is the bound on identifiers that nodes are told
	// (NodeInfo.MaxID), used to size identifier fields. Left zero, Run
	// hands every node the graph's own largest identifier. Run rejects a
	// bound below it.
	MaxID uint64
	// Hook, when non-nil, is a delivery hook (typically a *fault.Injector).
	// With a hook installed NodeInfo.Faulty is true, which protocols use to
	// enable defensive message formats whose cost is only justified under
	// faults, and the run steps on one worker.
	Hook DeliveryHook
	// Scratch, when non-nil, is the memory the run works in (see Scratch):
	// a chain of runs, one at a time, shares it. Nil borrows one for the
	// run alone.
	Scratch *Scratch
	// Reliable, when non-nil, is a reliable-delivery transport. Every
	// process is wrapped via Reliable.Wrap, the physical bandwidth check is
	// widened by Reliable.HeaderBits(), and the transport's counters are
	// published in Result and (per-round deltas) in trace records. Nil
	// leaves the run exactly as it would be without a transport — the
	// zero-cost-when-off guarantee: no wrapping, no widened bound, no extra
	// bookkeeping in the round loop.
	Reliable Reliability
	// Tracer, when non-nil, is a round-level tracer (see internal/trace).
	// The simulator calls it from the round loop's goroutine: BeginRun
	// before round 1, OnRound after every completed round with that round's
	// traffic deltas and wall-clock split (node steps, which include
	// delivery, and the barrier merge), EndRun on every exit path.
	//
	// Tracing is strictly observational — with or without a tracer,
	// executions on the same seed produce bit-identical Results — and costs
	// nothing when absent: the untraced round loop performs no clock reads
	// and no extra bookkeeping.
	Tracer trace.Tracer
	// TraceLabel attributes this run's trace records to an orchestrator
	// phase label (e.g. "boost/push/goodnodes/mis"). Ignored without a
	// Tracer.
	TraceLabel string
}

// Bandwidth computes B for a given upper bound on n and factor.
func Bandwidth(nUpper, factor int) int {
	if nUpper < 2 {
		nUpper = 2
	}
	return factor * bits.Len(uint(nUpper-1))
}

// Runner runs one protocol on g whose output is one flag per node —
// membership in the set it computes — and stores node v's flag in out[v];
// len(out) must be g.N(). It is a process type bound to its per-run
// constants (see Bind). The phase-composition layers and the protocol
// registry take protocols in this form.
type Runner func(g *graph.Graph, c Config, out []bool) (*Result, error)

// Bind returns the Runner that calls Run for process type T with set and
// reads each node's flag from its Output method.
func Bind[T any, P interface {
	*T
	Process
	Output() bool
}](set func(P)) Runner {
	return func(g *graph.Graph, c Config, out []bool) (*Result, error) {
		return Run(g, set, c, func(v int, p P) { out[v] = p.Output() })
	}
}

// Run executes one protocol instance per node of g until every node halts.
// Node v's process is element v of a recycled []T (see slots.go), zeroed,
// so it starts exactly as &T{} would; set, when non-nil, then applies the
// per-run constants to each process before Init. When the run ends —
// every node halted, or Config.HardStop cut it off — collect, when
// non-nil, is called with every node's process in index order: the one
// place a caller reads outputs, before the array is recycled.
func Run[T any, P interface {
	*T
	Process
}](g *graph.Graph, set func(P), c Config, collect func(v int, p P)) (*Result, error) {
	sc := c.Scratch
	if sc == nil {
		sc = NewScratch()
		defer sc.Release()
	}
	sim, err := newSimulator(g, c, &sc.state)
	if err != nil {
		return nil, err
	}
	defer sim.release()
	procs := scratchProcs[T](sc, g.N())
	defer clear(procs)
	for v := range procs {
		p := P(&procs[v])
		if set != nil {
			set(p)
		}
		sim.procs[v] = p
	}
	res, err := sim.run()
	if err == nil && collect != nil {
		for v := range procs {
			collect(v, P(&procs[v]))
		}
	}
	return res, err
}

// newSimulator fills in c's defaults, validates it for g and prepares a
// simulator on st; the caller fills procs, then calls run and release.
func newSimulator(g *graph.Graph, c Config, st *runState) (*simulator, error) {
	if c.BandwidthFactor <= 0 {
		c.BandwidthFactor = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 1 << 20
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	n := g.N()
	if c.NUpper == 0 {
		c.NUpper = n
	}
	if c.NUpper < n {
		return nil, fmt.Errorf("congest: NUpper %d below n %d", c.NUpper, n)
	}
	bandwidth := 0
	if !c.Local {
		bandwidth = Bandwidth(c.NUpper, c.BandwidthFactor)
	}
	var trueMaxWeight int64
	for v := 0; v < n; v++ {
		w := g.Weight(v)
		if w < 0 {
			w = -w
		}
		if w > trueMaxWeight {
			trueMaxWeight = w
		}
	}
	if trueMaxWeight == 0 {
		trueMaxWeight = 1
	}
	if c.MaxWeight == 0 {
		c.MaxWeight = trueMaxWeight
	} else if c.MaxWeight < trueMaxWeight {
		return nil, fmt.Errorf("congest: MaxWeight %d below actual maximum |weight| %d", c.MaxWeight, trueMaxWeight)
	}
	if c.MaxID == 0 {
		c.MaxID = max(g.MaxID(), 1)
	} else if c.MaxID < g.MaxID() {
		return nil, fmt.Errorf("congest: MaxID %d below the largest identifier %d", c.MaxID, g.MaxID())
	}
	if c.Hook != nil {
		// DeliveryHook.Deliver sees messages one at a time, in the order
		// the senders, stepped by index, make their sends.
		c.Workers = 1
	}

	sim := &simulator{g: g, cfg: c, bandwidth: bandwidth, physBandwidth: bandwidth}
	if c.Reliable != nil && bandwidth > 0 {
		// Transport framing (seq/ack headers) rides above the CONGEST bound:
		// inner processes still budget against B, physical frames may carry
		// the exact header on top. See Reliability.HeaderBits.
		sim.physBandwidth = bandwidth + c.Reliable.HeaderBits()
	}
	// Heap slots when no bound fixes a stride: LOCAL runs (and tests that
	// force them).
	heap := sim.physBandwidth == 0 || forceHeapSlots
	sim.runState = st
	sim.reset(g, sim.physBandwidth, heap, heap || c.Hook != nil, c.MaxRounds)
	return sim, nil
}

// initProcs wraps every process in the reliable transport, if any, seeds
// its randomness and calls Init.
func (s *simulator) initProcs() {
	s.words.open()
	defer s.words.close()
	for v := range s.procs {
		if s.cfg.Reliable != nil {
			s.procs[v] = s.cfg.Reliable.Wrap(s.procs[v])
		}
		// rand.New and rand.NewPCG both inline, so filling the value slots
		// allocates nothing.
		s.pcgs[v] = *rand.NewPCG(s.cfg.Seed, 0x6a09e667f3bcc908^s.g.ID(v))
		s.rnds[v] = *rand.New(&s.pcgs[v])
		s.procs[v].Init(NodeInfo{
			Index:     v,
			ID:        s.g.ID(v),
			Degree:    s.g.Degree(v),
			Weight:    s.g.Weight(v),
			NUpper:    s.cfg.NUpper,
			MaxID:     s.cfg.MaxID,
			MaxWeight: s.cfg.MaxWeight,
			Bandwidth: s.bandwidth,
			Faulty:    s.cfg.Hook != nil,
			Rand:      &s.rnds[v],
			net:       s,
			words:     &s.words,
		})
	}
}

// simulator holds one execution's configuration, its pooled run state and
// the counters it reports.
type simulator struct {
	g *graph.Graph
	// cfg is the run's Config with every default filled in.
	cfg       Config
	bandwidth int
	// physBandwidth is the enforced per-frame limit: bandwidth plus the
	// reliable transport's header headroom (equal to bandwidth without one).
	physBandwidth int
	// round is the round being stepped; its sends land in slab par with
	// stamp stamp. The round loop sets them between rounds.
	round int
	par   int
	stamp uint32
	*runState
	res Result
}

// runState is every per-run buffer of a simulation whose size follows the
// graph. A solve chains many short protocols (the Theorem 2 pipeline makes
// about ten Run calls per request), so the buffers live in the solve's
// Scratch instead of being built per call, and are cleared of references
// when the run ends however it ends. Nothing a caller keeps points into
// it: outputs are read off the process array before it is recycled.
type runState struct {
	procs []Process
	// rev is g's reverse-arc table (graph.FillReverseArcs): a message on arc a
	// lands in slot rev[a]. revCur is the scratch that builds it.
	rev, revCur []int32
	done        graph.Bitset
	// live lists the nodes not done, ascending: the nodes a round steps.
	live []int32
	// inbox holds every arc's receive slot, one slab per round parity
	// (slots.go).
	inbox inboxes
	// stepper is, per node, the worker stepping it this round, whose
	// tallies its sends add to.
	stepper []int32
	// Per-node randomness: value slabs, so seeding n streams allocates
	// nothing.
	pcgs []rand.PCG
	rnds []rand.Rand
	// words backs NodeInfo.Words.
	words wordArena
	// ws holds each executor worker's tallies and receive scratch.
	ws []worker
	// Fault duplicates queued in one round, applied before the next
	// round's steps; their payloads are copied into dupBuf.
	pendingDups []pendingDup
	dupBuf      []byte
}

// resize returns s with length n and every element zero, reusing its
// backing array when the capacity allows.
func resize[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		return make(S, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// grow returns s with length n, reusing its backing array when the
// capacity allows; elements are not cleared.
func grow[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		return make(S, n)
	}
	return s[:n]
}

// reset sizes the state for g and a run whose frames carry at most
// physBandwidth bits.
func (st *runState) reset(g *graph.Graph, physBandwidth int, heap, each bool, maxRounds int) {
	n, ports := g.N(), 2*g.M()
	st.procs = resize(st.procs, n)
	st.rev, st.revCur = grow(st.rev, ports), grow(st.revCur, n)
	g.FillReverseArcs(st.rev, st.revCur)
	st.done = resize(st.done, (n+63)/64) // the words of graph.NewBitset(n)
	st.live = grow(st.live, n)
	for v := range st.live {
		st.live[v] = int32(v)
	}
	st.stepper = grow(st.stepper, n) // each step sets its node's
	st.pcgs = grow(st.pcgs, n)       // initProcs overwrites both
	st.rnds = grow(st.rnds, n)
	st.inbox.reset(ports, physBandwidth, heap, each, maxRounds)
}

// release is the one exit of every run — normal end, round limit, hard
// stop, node error or panic. It retires the run's stamps and drops every
// reference the run left behind, readying the state for the next run.
func (s *simulator) release() {
	st := s.runState
	st.inbox.retire(s.res.Rounds)
	clear(st.procs)
	for i := range st.ws {
		st.ws[i].release()
	}
	st.pendingDups, st.dupBuf = st.pendingDups[:0], st.dupBuf[:0]
}

// worker is one executor worker's view of a round: the tallies its node
// steps add to, merged at the round barrier, and the receive window it
// hands to each node it steps.
type worker struct {
	messages, bits int64
	maxBits        int
	halted         []int32
	// calls counts the send calls of the node being stepped.
	calls int
	// errV is the lowest index of a node whose step failed this round, and
	// err its error.
	errV int
	err  error
	recv []*Message
	// msgs are the receive views of one node's ports, one array per round
	// parity, each over that parity's slab.
	msgs [2][]Message
	// Keeps two workers' tallies off one cache line.
	_ [64]byte
}

// prepare readies w for a run over ib on a graph of maximum degree maxDeg.
func (w *worker) prepare(maxDeg int, ib *inboxes) {
	w.messages, w.bits, w.maxBits = 0, 0, 0
	w.halted = w.halted[:0]
	w.err = nil
	w.recv = grow(w.recv, maxDeg)
	for par := range w.msgs {
		w.msgs[par] = grow(w.msgs[par], maxDeg)
		for p := range w.msgs[par] {
			w.msgs[par][p].buf = ib.slab[par]
		}
	}
}

// release drops the references the run left in w's windows.
func (w *worker) release() {
	w.err = nil
	clear(w.recv)
	clear(w.msgs[0])
	clear(w.msgs[1])
}

// fail records node v's error unless a lower-index node already failed.
func (w *worker) fail(v int, err error) {
	if w.err == nil || v < w.errV {
		w.errV, w.err = v, err
	}
}

// pendingDup is a duplicate copy scheduled by the fault hook: the original
// payload, dupBuf[lo:lo+⌈bits/8⌉], re-arriving at node to through slot
// arc one round after the first delivery.
type pendingDup struct {
	to, arc int32
	lo      int
	bits    int
}

// steps runs the round of every node in nodes on worker wi. A node's step
// fills its receive window from the inbox and calls Round, whose sends
// deliver as they are made (send.go). The first failing node is recorded
// with the worker and ends the call: the round is doomed, and stopping
// makes the error the lowest-index one of the nodes the call was given.
func (s *simulator) steps(wi int, nodes []int32, round int) {
	w := &s.ws[wi]
	hook := s.cfg.Hook
	for _, v32 := range nodes {
		v := int(v32)
		if hook != nil && hook.State(round, v) != NodeUp {
			continue
		}
		lo, hi := s.g.Arcs(v)
		recv := w.recv[:hi-lo]
		s.inbox.receive(recv, &w.msgs, lo, round)
		s.stepper[v] = int32(wi)
		w.calls = 0
		fin := s.procs[v].Round(round, recv)
		if w.err != nil {
			return
		}
		if fin {
			w.halted = append(w.halted, v32)
		}
	}
}

// merge is the round barrier's bookkeeping: it folds every worker's
// tallies into the Result, marks the round's halted nodes done, and
// returns the round's largest message, the number of halts and the error
// of the lowest-index failing node, so error selection is deterministic
// and independent of the worker count.
func (s *simulator) merge() (maxBits, halts int, err error) {
	errV := -1
	for i := range s.ws {
		w := &s.ws[i]
		s.res.Messages += w.messages
		s.res.Bits += w.bits
		maxBits = max(maxBits, w.maxBits)
		for _, v := range w.halted {
			s.done.Set(int(v))
		}
		halts += len(w.halted)
		if w.err != nil && (errV < 0 || w.errV < errV) {
			errV, err = w.errV, w.err
		}
		w.messages, w.bits, w.maxBits = 0, 0, 0
		w.halted = w.halted[:0]
	}
	return maxBits, halts, err
}

// dropDone removes the nodes marked done from the live list, keeping it
// ascending.
func (s *simulator) dropDone() {
	k := 0
	for _, v := range s.live {
		if !s.done.Get(int(v)) {
			s.live[k] = v
			k++
		}
	}
	s.live = s.live[:k]
}

func (s *simulator) run() (*Result, error) {
	s.initProcs()
	n := s.g.N()
	live := n // len(s.live): the nodes not done
	s.res.Bandwidth = s.bandwidth
	// Transport counters are cumulative per Reliability instance; snapshot a
	// base so Result reports this run's deltas even if the instance is shared.
	var relBase Counters
	if s.cfg.Reliable != nil {
		relBase = s.cfg.Reliable.Counters()
	}

	exec := newPoolEngine(n, s.cfg.Workers, s.steps)
	defer exec.shutdown()
	if cap(s.ws) < exec.workers {
		s.ws = append(s.ws[:cap(s.ws)], make([]worker, exec.workers-cap(s.ws))...)
	}
	s.ws = s.ws[:exec.workers]
	for i := range s.ws {
		s.ws[i].prepare(s.g.MaxDegree(), &s.inbox)
	}

	if s.cfg.Hook != nil {
		s.cfg.Hook.Begin(s.g)
	}

	// Tracing state. All tracer work is guarded by tr != nil: with no
	// tracer installed the loop below does not read the clock or touch any
	// of these variables, keeping the untraced hot path unchanged.
	tr := s.cfg.Tracer
	var (
		labeler         PhaseLabeler
		runIdx          int
		prev            Counters
		prevLive        int
		prevRetransmits int64
		phaseT0         time.Time
		computeN        int64
	)
	if tr != nil {
		if n > 0 {
			labeler, _ = s.procs[0].(PhaseLabeler)
		}
		runIdx = tr.BeginRun(trace.RunInfo{
			Label:     s.cfg.TraceLabel,
			N:         n,
			Bandwidth: s.bandwidth,
			Workers:   exec.workers,
			Seed:      s.cfg.Seed,
		})
		defer func() {
			tr.EndRun(trace.Summary{
				Run:       runIdx,
				Label:     s.cfg.TraceLabel,
				Rounds:    s.res.Rounds,
				Messages:  s.res.Messages,
				Bits:      s.res.Bits,
				Truncated: s.res.Truncated,
			})
		}()
	}

	for round := 1; live > 0; round++ {
		if s.cfg.HardStop > 0 && round > s.cfg.HardStop {
			s.res.Truncated = true
			break
		}
		if round > s.cfg.MaxRounds {
			s.res.Truncated = true
			return nil, fmt.Errorf("%w: %d rounds", ErrRoundLimit, s.cfg.MaxRounds)
		}
		s.res.Rounds = round
		if tr != nil {
			prev, prevLive = s.res.Counters, live
			if s.cfg.Reliable != nil {
				// Raw cumulative value: the per-round delta subtracts two
				// readings, so the run-start base cancels.
				prevRetransmits = s.cfg.Reliable.Counters().Retransmits
			}
			phaseT0 = time.Now()
		}

		// Duplicates queued last round land before this round's sends, so
		// a fresh message on the same port overwrites the copy.
		if len(s.pendingDups) > 0 {
			s.applyDups(round)
		}
		s.round = round
		s.par, s.stamp = s.inbox.target(round + 1)
		exec.runRound(round, s.live)

		if tr != nil {
			computeN = time.Since(phaseT0).Nanoseconds()
			phaseT0 = time.Now()
		}
		roundMaxBits, halts, err := s.merge()
		if err != nil {
			return nil, err
		}
		// Crash-stop nodes halt permanently; their Output() keeps the state
		// at crash time.
		if s.cfg.Hook != nil {
			for _, v := range s.live {
				if !s.done.Get(int(v)) && s.cfg.Hook.State(round, int(v)) == NodeStopped {
					s.done.Set(int(v))
					halts++
				}
			}
		}
		if halts > 0 {
			s.dropDone()
			live = len(s.live)
		}
		if roundMaxBits > s.res.MaxMessageBits {
			s.res.MaxMessageBits = roundMaxBits
		}

		if tr != nil {
			var retransmits int64
			if s.cfg.Reliable != nil {
				retransmits = s.cfg.Reliable.Counters().Retransmits - prevRetransmits
			}
			rec := trace.Round{
				Run:             runIdx,
				Round:           round,
				Label:           s.cfg.TraceLabel,
				Messages:        s.res.Messages - prev.Messages,
				Bits:            s.res.Bits - prev.Bits,
				MaxMessageBits:  roundMaxBits,
				Halts:           prevLive - live,
				FaultLost:       s.res.FaultLost - prev.FaultLost,
				FaultCorrupted:  s.res.FaultCorrupted - prev.FaultCorrupted,
				FaultDuplicated: s.res.FaultDuplicated - prev.FaultDuplicated,
				Retransmits:     retransmits,
				ComputeNanos:    computeN,
				DeliveryNanos:   time.Since(phaseT0).Nanoseconds(),
			}
			if labeler != nil {
				rec.Phase = labeler.TracePhase(round)
			}
			tr.OnRound(rec)
		}
	}

	if c := s.cfg.Reliable; c != nil {
		now := c.Counters()
		s.res.Retransmits = now.Retransmits - relBase.Retransmits
		s.res.TransportAcks = now.TransportAcks - relBase.TransportAcks
		s.res.Recoveries = now.Recoveries - relBase.Recoveries
		s.res.ReplayedRounds = now.ReplayedRounds - relBase.ReplayedRounds
		s.res.DeadPorts = now.DeadPorts - relBase.DeadPorts
	}
	out := s.res
	return &out, nil
}

// deliverFaulty routes node from's message on port p through the delivery
// hook. It returns the (possibly rewritten) message to deliver into slot
// arc, or nil if the message is lost, corrupted beyond the checksum, or
// addressed to a node that is down when it would arrive (round+1).
// Duplicates of the original payload are queued, by value, for the
// following round. Fault runs step on one worker, so the hook and the
// fault counters are only ever touched sequentially.
func (s *simulator) deliverFaulty(round, from, p int, arc int32, m *Message) *Message {
	to := int(s.g.Neighbors(from)[p])
	if s.cfg.Hook.State(round+1, to) != NodeUp {
		s.res.FaultLost++
		return nil
	}
	out, dup := s.cfg.Hook.Deliver(round, from, to, m)
	if dup {
		// A duplicate re-sends the original frame; corruption (below) is
		// per-transmission and does not propagate into the copy.
		lo := len(s.dupBuf)
		s.dupBuf = append(s.dupBuf, m.data()[:(m.bitN+7)>>3]...)
		s.pendingDups = append(s.pendingDups, pendingDup{to: int32(to), arc: arc, lo: lo, bits: m.bitN})
	}
	if out == nil {
		s.res.FaultLost++
		return nil
	}
	if out != m {
		// The hook rewrote the payload. The bandwidth bound must be
		// preserved exactly, and the receiver verifies the link-layer
		// checksum: any mismatch makes the message indistinguishable from
		// a loss.
		if out.bitN != m.bitN || wire.Checksum(out.data(), out.bitN) != wire.Checksum(m.data(), m.bitN) {
			s.res.FaultCorrupted++
			return nil
		}
	}
	return out
}

// applyDups lands the duplicates queued in the previous round in the
// slots read in round+1, except at receivers that are down then.
func (s *simulator) applyDups(round int) {
	par, stamp := s.inbox.target(round + 1)
	for _, d := range s.pendingDups {
		if s.cfg.Hook.State(round+1, int(d.to)) != NodeUp {
			continue
		}
		s.inbox.put(par, d.arc, stamp, NewRawMessage(s.dupBuf[d.lo:d.lo+(d.bits+7)>>3], d.bits))
		s.res.FaultDuplicated++
	}
	s.pendingDups = s.pendingDups[:0]
	s.dupBuf = s.dupBuf[:0]
}
