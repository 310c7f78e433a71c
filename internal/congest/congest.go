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
// barrier. A node's step is its whole round: it reads the node's inbox,
// runs Round, and delivers each sent message by value into the receiver's
// inbox slot for the next round (see slots.go). Every slot has one sender
// and a round's reads and writes go to different slabs, so no node can
// observe another node's mid-round state. Per-node randomness is
// pre-seeded and per-worker tallies are merged at the barrier in a fixed
// order, so every worker count yields bit-identical executions: scheduling
// changes no round, message or bit. Runs with a fault hook step on one
// worker (see DeliveryHook).
//
// So a node's outputs and messages are the same in a run over any union
// of connected components that contains it, given the same NUpper,
// MaxWeight and MaxID: the bounds size every wire field, so a message
// that exceeds the bandwidth in one such run exceeds it in all of them.
//
// A run allocates in proportion to itself, not to n (see slots.go). Run
// takes a process type and hands node v element v of a recycled, zeroed
// []T; NodeInfo.Message builds a node's message in a per-node slot that
// the simulator reuses every round. Messages are valid only until the step
// that handles them returns: a slot message until its sender's step
// returns, a received message until its receiver's. A process that keeps
// or forwards a payload past that builds it with NewMessage.
package congest

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"distmwis/internal/graph"
	"distmwis/internal/trace"
	"distmwis/internal/wire"
)

// Model selects the communication model.
type Model int

const (
	// ModelCongest bounds every message to Bandwidth bits per round per edge.
	ModelCongest Model = iota + 1
	// ModelLocal allows unbounded messages.
	ModelLocal
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
// be reused afterwards. A process that retains or forwards a message must
// build it here; NodeInfo.Message is the allocation-free path for the
// common send-once case.
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
	// O(log n) bits; see WithMaxID). Used to size wire fields.
	MaxID uint64
	// MaxWeight is an upper bound on node weights (W ≤ poly(n)), used to
	// size wire fields for weight exchange.
	MaxWeight int64
	// Bandwidth is B, the per-message bit budget (0 means unbounded/LOCAL).
	Bandwidth int
	// Faulty reports that a fault-injection hook is installed for this run
	// (WithFaults). Protocols may switch to defensive message formats that
	// would be wasted bandwidth in a reliable network; with Faulty false
	// their executions must be bit-for-bit what they were without the hook.
	Faulty bool
	// Rand is the node's private randomness stream.
	Rand *rand.Rand
	// Out is the node's outbox: Degree slots, one per port, all nil when
	// Round is called. A process fills the ports it sends on and returns
	// Out from Round (Broadcast fills every port); the simulator clears it
	// after delivery.
	//
	// Rand and Out belong to the simulator's per-run state, which the next
	// Run reuses: both are valid only while the run lasts, and a process
	// must not use them once Output has been called.
	Out []*Message
	// slots backs Message; nil when the run has slots off.
	slots *slotTable
	// words backs Words.
	words *wordArena
}

// Words returns n zeroed words of scratch that the node may use until the
// run ends: per-port state, typically, with n a multiple of Degree. It
// may only be called from Init. The words come from memory the simulator
// recycles across runs, so a protocol with per-port state allocates
// nothing per node; like Rand and Out they must not be used once Output
// has been called.
func (info *NodeInfo) Words(n int) []uint64 {
	if info.words == nil {
		return make([]uint64, n)
	}
	return info.words.take(n)
}

// Message freezes the contents of w into this node's message slot and
// returns it; the writer can be reused afterwards. It is NewMessage without
// the allocation, under the ownership rule of slots.go: the message is
// valid until the node's step returns, so it may only be returned from
// this round's Round, never retained or forwarded. When no slot can take
// the payload — slots are off for the run, the node already filled its
// slot this round, or the payload exceeds wire.CongestBytes — it falls
// back to NewMessage.
func (info *NodeInfo) Message(w *wire.Writer) *Message {
	if info.slots != nil {
		if m := info.slots.fill(info.Index, w); m != nil {
			return m
		}
	}
	return NewMessage(w)
}

// Broadcast puts m on every port of out and returns out, the send of a
// node that tells all its neighbours the same thing.
func Broadcast(out []*Message, m *Message) []*Message {
	for i := range out {
		out[i] = m
	}
	return out
}

// Process is one node's state machine.
type Process interface {
	// Init is called once before the first round.
	Init(info NodeInfo)
	// Round runs one synchronous round. recv[p] is the message received on
	// port p this round (nil if none); recv and its messages are valid only
	// until Round returns. The returned slice assigns outgoing
	// messages to ports: send[p] goes to port p (nil sends nothing; a short
	// or nil slice sends nothing on the remaining ports). It is normally
	// NodeInfo.Out. Returning done halts the node after its outgoing
	// messages are delivered.
	Round(round int, recv []*Message) (send []*Message, done bool)
	// Output returns the node's final (or current, if truncated) output.
	Output() any
}

// Result summarises a protocol execution.
type Result struct {
	// Rounds is the number of synchronous rounds executed.
	Rounds int
	// Outputs holds each node's Output(), indexed by node.
	Outputs []any
	// Messages counts all messages delivered.
	Messages int64
	// Bits counts the total payload bits of all messages.
	Bits int64
	// MaxMessageBits is the largest single message observed.
	MaxMessageBits int
	// Truncated reports that the run was stopped by WithHardStop or the
	// round limit before all nodes halted.
	Truncated bool
	// Bandwidth echoes the enforced per-message bit budget (0 = unbounded).
	Bandwidth int
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
	// (WithReliable); zero without one.
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

type config struct {
	model           Model
	bandwidthFactor int
	seed            uint64
	maxRounds       int
	hardStop        int
	nUpper          int
	workers         int
	maxWeight       int64
	maxID           uint64
	hook            DeliveryHook
	tracer          trace.Tracer
	traceLabel      string
	reliable        Reliability
}

// Option configures Run.
type Option func(*config)

// WithModel selects CONGEST (default) or LOCAL.
func WithModel(m Model) Option { return func(c *config) { c.model = m } }

// WithBandwidthFactor sets c in B = c·⌈log₂ NUpper⌉ bits (default 8).
func WithBandwidthFactor(factor int) Option {
	return func(c *config) { c.bandwidthFactor = factor }
}

// WithSeed sets the root seed from which per-node streams derive
// (default 1).
func WithSeed(seed uint64) Option { return func(c *config) { c.seed = seed } }

// WithMaxRounds overrides the safety round limit (default 1<<20).
func WithMaxRounds(r int) Option { return func(c *config) { c.maxRounds = r } }

// WithHardStop truncates the execution after exactly r rounds, collecting
// whatever outputs nodes currently have. Used by the Section 7 lower-bound
// experiments, which study algorithms cut off before completion.
func WithHardStop(r int) Option { return func(c *config) { c.hardStop = r } }

// WithNUpper sets the polynomial upper bound on n that nodes are told
// (default: the true n, the most charitable choice). It must be >= n.
func WithNUpper(n int) Option { return func(c *config) { c.nUpper = n } }

// WithWorkers sets how many goroutines step nodes each round (default:
// GOMAXPROCS). One worker, or any count on a graph of fewer than 64 nodes,
// steps nodes inline in index order; otherwise the count is clamped to n.
// The count changes only scheduling, never a round, message or bit.
func WithWorkers(w int) Option { return func(c *config) { c.workers = w } }

// WithMaxWeight sets the upper bound W ≥ max|w(v)| on node weights that
// nodes are told (NodeInfo.MaxWeight), used to size wire fields for weight
// exchange. Without this option Run scans the graph and hands every node
// the exact global maximum — knowledge the paper's Section 3 assumptions
// do not grant, and a confound in experiments that sweep W (wire fields
// would be sized by the realized maximum instead of the nominal bound).
// Run rejects a bound below the true maximum absolute weight.
func WithMaxWeight(w int64) Option { return func(c *config) { c.maxWeight = w } }

// WithMaxID sets the upper bound on identifiers that nodes are told
// (NodeInfo.MaxID), used to size identifier fields. Without this option
// Run hands every node the graph's own largest identifier. Run rejects a
// bound below it.
func WithMaxID(id uint64) Option { return func(c *config) { c.maxID = id } }

// Bandwidth computes B for a given upper bound on n and factor.
func Bandwidth(nUpper, factor int) int {
	if nUpper < 2 {
		nUpper = 2
	}
	return factor * bits.Len(uint(nUpper-1))
}

// Runner runs one protocol on g: a process type bound to its per-run
// constants (see Bind). The phase-composition layers and the protocol
// registry take protocols in this form.
type Runner func(g *graph.Graph, opts ...Option) (*Result, error)

// Bind returns the Runner that calls Run for process type T with set.
func Bind[T any, P interface {
	*T
	Process
}](set func(P)) Runner {
	return func(g *graph.Graph, opts ...Option) (*Result, error) { return Run(g, set, opts...) }
}

// Run executes one protocol instance per node of g until every node halts.
// Node v's process is element v of a recycled []T (see slots.go), zeroed,
// so it starts exactly as &T{} would; set, when non-nil, then applies the
// per-run constants to each process before Init.
func Run[T any, P interface {
	*T
	Process
}](g *graph.Graph, set func(P), opts ...Option) (*Result, error) {
	sim, err := newSimulator(g, opts)
	if err != nil {
		return nil, err
	}
	defer sim.release()
	procs := borrowProcs[T](g.N())
	defer returnProcs(procs)
	for v := range *procs {
		p := P(&(*procs)[v])
		if set != nil {
			set(p)
		}
		sim.procs[v] = p
	}
	return sim.run()
}

// newSimulator validates the options for g and prepares a simulator on a
// borrowed runState; the caller fills procs, then calls run and release.
func newSimulator(g *graph.Graph, opts []Option) (*simulator, error) {
	cfg := config{
		model:           ModelCongest,
		bandwidthFactor: 8,
		seed:            1,
		maxRounds:       1 << 20,
		workers:         runtime.GOMAXPROCS(0),
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	n := g.N()
	if cfg.nUpper == 0 {
		cfg.nUpper = n
	}
	if cfg.nUpper < n {
		return nil, fmt.Errorf("congest: NUpper %d below n %d", cfg.nUpper, n)
	}
	bandwidth := 0
	if cfg.model == ModelCongest {
		bandwidth = Bandwidth(cfg.nUpper, cfg.bandwidthFactor)
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
	maxWeight := cfg.maxWeight
	if maxWeight == 0 {
		maxWeight = trueMaxWeight
	} else if maxWeight < trueMaxWeight {
		return nil, fmt.Errorf("congest: MaxWeight %d below actual maximum |weight| %d", cfg.maxWeight, trueMaxWeight)
	}
	maxID := cfg.maxID
	if maxID == 0 {
		maxID = max(g.MaxID(), 1)
	} else if maxID < g.MaxID() {
		return nil, fmt.Errorf("congest: MaxID %d below the largest identifier %d", cfg.maxID, g.MaxID())
	}
	if cfg.hook != nil {
		// DeliveryHook.Deliver sees messages one at a time, in (sender,
		// port) order, and senders deliver in their own steps.
		cfg.workers = 1
	}

	sim := &simulator{g: g, cfg: cfg, bandwidth: bandwidth, physBandwidth: bandwidth,
		maxID: maxID, maxWeight: maxWeight, rev: g.ReverseArcs()}
	if cfg.reliable != nil && bandwidth > 0 {
		// Transport framing (seq/ack headers) rides above the CONGEST bound:
		// inner processes still budget against B, physical frames may carry
		// the exact header on top. See Reliability.HeaderBits.
		sim.physBandwidth = bandwidth + cfg.reliable.HeaderBits()
	}
	// Heap slots when no bound fixes a stride: LOCAL runs (and tests that
	// force them). Sender slots are off there, and with the reliable
	// transport, which keeps inner messages for retransmission.
	heap := sim.physBandwidth == 0 || forceHeapSlots
	sim.runState = statePool.Get().(*runState)
	sim.reset(g, sim.physBandwidth, heap, !heap && cfg.reliable == nil, cfg.maxRounds)
	return sim, nil
}

// initProcs wraps every process in the reliable transport, if any, seeds
// its randomness and calls Init.
func (s *simulator) initProcs() {
	var slots *slotTable
	if s.slotsOn {
		slots = &s.slots
	}
	s.words.open()
	defer s.words.close()
	for v := range s.procs {
		if s.cfg.reliable != nil {
			s.procs[v] = s.cfg.reliable.Wrap(s.procs[v])
		}
		// rand.New and rand.NewPCG both inline, so filling the value slots
		// allocates nothing.
		s.pcgs[v] = *rand.NewPCG(s.cfg.seed, 0x6a09e667f3bcc908^s.g.ID(v))
		s.rnds[v] = *rand.New(&s.pcgs[v])
		lo, hi := s.g.Arcs(v)
		s.procs[v].Init(NodeInfo{
			Index:     v,
			ID:        s.g.ID(v),
			Degree:    hi - lo,
			Weight:    s.g.Weight(v),
			NUpper:    s.cfg.nUpper,
			MaxID:     s.maxID,
			MaxWeight: s.maxWeight,
			Bandwidth: s.bandwidth,
			Faulty:    s.cfg.hook != nil,
			Rand:      &s.rnds[v],
			Out:       s.outSlab[lo:hi:hi],
			slots:     slots,
			words:     &s.words,
		})
	}
}

// simulator holds one execution's configuration, its pooled run state and
// the counters it reports.
type simulator struct {
	g         *graph.Graph
	cfg       config
	bandwidth int
	// physBandwidth is the enforced per-frame limit: bandwidth plus the
	// reliable transport's header headroom (equal to bandwidth without one).
	physBandwidth int
	// maxID and maxWeight are the bounds every node is told.
	maxID     uint64
	maxWeight int64
	// rev is g's reverse-arc table: a message on arc a lands in slot rev[a].
	rev []int32
	*runState
	res Result
}

// runState is every per-run buffer of a simulation whose size follows the
// graph. A solve chains many short protocols (the Theorem 2 pipeline makes
// about ten Run calls per request), so Run borrows the buffers from
// statePool instead of building them per call, and gives them back when
// the run ends however it ends. Nothing a caller keeps points into it:
// Result.Outputs and TruncationError.Partial are allocated fresh.
type runState struct {
	procs []Process
	done  graph.Bitset
	// live lists the nodes not done, ascending: the nodes a round steps.
	live []int32
	// inbox holds every arc's receive slot, one slab per round parity
	// (slots.go).
	inbox inboxes
	// slots are the nodes' sender slots (slots.go); slotsOn reports
	// whether NodeInfo.Message hands them out this run.
	slots   slotTable
	slotsOn bool
	// outSlab backs the nodes' NodeInfo.Out windows, arc-indexed.
	outSlab []*Message
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

var statePool = sync.Pool{New: func() any { return new(runState) }}

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
func (st *runState) reset(g *graph.Graph, physBandwidth int, heap, slotsOn bool, maxRounds int) {
	n, ports := g.N(), 2*g.M()
	st.procs = resize(st.procs, n)
	st.done = resize(st.done, (n+63)/64) // the words of graph.NewBitset(n)
	st.live = grow(st.live, n)
	for v := range st.live {
		st.live[v] = int32(v)
	}
	st.outSlab = grow(st.outSlab, ports) // all nil: release clears it
	st.pcgs = grow(st.pcgs, n)           // initProcs overwrites both
	st.rnds = grow(st.rnds, n)
	st.inbox.reset(ports, physBandwidth, heap, maxRounds)
	st.slotsOn = slotsOn
	if slotsOn {
		st.slots.reset(n)
	}
}

// release is the one exit of every run — normal end, round limit, hard
// stop, node error or panic. It retires the run's stamps, drops every
// reference the run left behind and puts the state back into statePool.
func (s *simulator) release() {
	st := s.runState
	st.inbox.retire(s.res.Rounds)
	clear(st.procs)
	clear(st.outSlab)
	for i := range st.ws {
		st.ws[i].release()
	}
	st.pendingDups, st.dupBuf = st.pendingDups[:0], st.dupBuf[:0]
	statePool.Put(st)
}

// worker is one executor worker's view of a round: the tallies its node
// steps add to, merged at the round barrier, and the receive window it
// hands to each node it steps.
type worker struct {
	messages, bits int64
	maxBits        int
	halted         []int32
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
// fills its receive window from the inbox, calls Round, checks the sends
// against the port count and the bandwidth, and delivers each one into its
// receiver's slot. The first failing node is recorded with the worker and
// ends the call: the round is doomed, and stopping makes the error the
// lowest-index one of the nodes the call was given.
func (s *simulator) steps(wi int, nodes []int32, round int) {
	var (
		w          = &s.ws[wi]
		hook       = s.cfg.hook
		phys       = s.physBandwidth
		ib         = &s.inbox
		par, stamp = ib.target(round + 1)
		slab       = ib.slab[par]
		stride     = ib.stride
		pl         payload
	)
	for _, v32 := range nodes {
		v := int(v32)
		if hook != nil && hook.State(round, v) != NodeUp {
			continue
		}
		lo, hi := s.g.Arcs(v)
		recv := w.recv[:hi-lo]
		ib.receive(recv, &w.msgs, lo, round)
		send, fin := s.procs[v].Round(round, recv)
		if len(send) > hi-lo {
			w.fail(v, fmt.Errorf("congest: node %d sent on %d ports but has degree %d", v, len(send), hi-lo))
			return
		}
		// Out is all nil when Round is called. A send that is Out itself
		// (a Broadcast, say) is cleared as it is delivered, the rest of Out
		// after.
		out := s.outSlab[lo:hi]
		aliased := len(send) > 0 && &send[0] == &out[0]
		rest := out
		if aliased {
			rest = out[len(send):]
		}
		rev := s.rev[lo:hi]
		pl.m = nil // a forwarded receive view is reused by the next node
		for p, m := range send {
			if m == nil {
				continue
			}
			if aliased {
				send[p] = nil
			}
			// A send over the bandwidth fails the run, so the messages of
			// the lower ports delivered before the check are never read.
			if phys > 0 && m.bitN > phys {
				w.fail(v, fmt.Errorf("congest: node %d port %d message of %d bits exceeds bandwidth %d: %w", v, p, m.bitN, phys, ErrBandwidth))
				return
			}
			w.messages++
			w.bits += int64(m.bitN)
			w.maxBits = max(w.maxBits, m.bitN)
			if hook != nil {
				if m = s.deliverFaulty(round, v, p, rev[p], m); m == nil {
					continue
				}
			}
			if ib.heap {
				ib.putPointer(par, rev[p], stamp, m)
				continue
			}
			if pl.m != m {
				pl.load(m)
			}
			pl.store(valueSlot(slab, stride, rev[p]), header(stamp, m.bitN))
		}
		for p, m := range rest {
			if m != nil {
				rest[p] = nil
			}
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
	var relBase ReliabilityCounters
	if s.cfg.reliable != nil {
		relBase = s.cfg.reliable.Counters()
	}
	// finish completes the Result of a run that ended without a node error:
	// the transport deltas and every node's output.
	finish := func() Result {
		if c := s.cfg.reliable; c != nil {
			now := c.Counters()
			s.res.Retransmits = now.Retransmits - relBase.Retransmits
			s.res.TransportAcks = now.AckFrames - relBase.AckFrames
			s.res.Recoveries = now.Recoveries - relBase.Recoveries
			s.res.ReplayedRounds = now.ReplayedRounds - relBase.ReplayedRounds
			s.res.DeadPorts = now.DeadPorts - relBase.DeadPorts
		}
		s.res.Outputs = make([]any, n)
		for v := 0; v < n; v++ {
			s.res.Outputs[v] = s.procs[v].Output()
		}
		return s.res
	}

	exec := newPoolEngine(n, s.cfg.workers, s.steps)
	defer exec.shutdown()
	if cap(s.ws) < exec.workers {
		s.ws = append(s.ws[:cap(s.ws)], make([]worker, exec.workers-cap(s.ws))...)
	}
	s.ws = s.ws[:exec.workers]
	for i := range s.ws {
		s.ws[i].prepare(s.g.MaxDegree(), &s.inbox)
	}

	if s.cfg.hook != nil {
		s.cfg.hook.Begin(s.g)
	}

	// Tracing state. All tracer work is guarded by tr != nil: with no
	// tracer installed the loop below does not read the clock or touch any
	// of these variables, keeping the untraced hot path unchanged.
	tr := s.cfg.tracer
	var (
		labeler  PhaseLabeler
		runIdx   int
		prev     traceCounters
		phaseT0  time.Time
		computeN int64
	)
	if tr != nil {
		if n > 0 {
			labeler, _ = s.procs[0].(PhaseLabeler)
		}
		runIdx = tr.BeginRun(trace.RunInfo{
			Label:     s.cfg.traceLabel,
			N:         n,
			Bandwidth: s.bandwidth,
			Workers:   exec.workers,
			Seed:      s.cfg.seed,
		})
		defer func() {
			tr.EndRun(trace.Summary{
				Run:       runIdx,
				Label:     s.cfg.traceLabel,
				Rounds:    s.res.Rounds,
				Messages:  s.res.Messages,
				Bits:      s.res.Bits,
				Truncated: s.res.Truncated,
			})
		}()
	}

	for round := 1; live > 0; round++ {
		if s.cfg.hardStop > 0 && round > s.cfg.hardStop {
			s.res.Truncated = true
			break
		}
		if round > s.cfg.maxRounds {
			s.res.Truncated = true
			partial := finish()
			return nil, &TruncationError{Limit: s.cfg.maxRounds, Partial: &partial}
		}
		s.res.Rounds = round
		if tr != nil {
			prev = s.snapshotCounters(live)
			phaseT0 = time.Now()
		}

		// Duplicates queued last round land before this round's sends, so
		// a fresh message on the same port overwrites the copy.
		if len(s.pendingDups) > 0 {
			s.applyDups(round)
		}
		s.slots.round = round
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
		if s.cfg.hook != nil {
			for _, v := range s.live {
				if !s.done.Get(int(v)) && s.cfg.hook.State(round, int(v)) == NodeStopped {
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
			var retransmitsNow int64
			if s.cfg.reliable != nil {
				retransmitsNow = s.cfg.reliable.Counters().Retransmits
			}
			rec := trace.Round{
				Run:             runIdx,
				Round:           round,
				Label:           s.cfg.traceLabel,
				Messages:        s.res.Messages - prev.messages,
				Bits:            s.res.Bits - prev.bits,
				MaxMessageBits:  roundMaxBits,
				Halts:           prev.live - live,
				FaultLost:       s.res.FaultLost - prev.lost,
				FaultCorrupted:  s.res.FaultCorrupted - prev.corrupted,
				FaultDuplicated: s.res.FaultDuplicated - prev.duplicated,
				Retransmits:     retransmitsNow - prev.retransmits,
				ComputeNanos:    computeN,
				DeliveryNanos:   time.Since(phaseT0).Nanoseconds(),
			}
			if labeler != nil {
				rec.Phase = labeler.TracePhase(round)
			}
			tr.OnRound(rec)
		}
	}

	out := finish()
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
	if s.cfg.hook.State(round+1, to) != NodeUp {
		s.res.FaultLost++
		return nil
	}
	out, dup := s.cfg.hook.Deliver(round, from, to, m)
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
		if s.cfg.hook.State(round+1, int(d.to)) != NodeUp {
			continue
		}
		data := s.dupBuf[d.lo : d.lo+(d.bits+7)>>3]
		if s.inbox.heap {
			s.inbox.putPointer(par, d.arc, stamp, NewRawMessage(data, d.bits))
		} else {
			var pl payload
			pl.load(&Message{buf: data, hi: len(data), bitN: d.bits})
			pl.store(valueSlot(s.inbox.slab[par], s.inbox.stride, d.arc), header(stamp, d.bits))
		}
		s.res.FaultDuplicated++
	}
	s.pendingDups = s.pendingDups[:0]
	s.dupBuf = s.dupBuf[:0]
}

// BoolOutputs converts a Result's outputs to a []bool membership vector;
// nodes whose output is not a bool are treated as false.
func BoolOutputs(res *Result) []bool {
	out := make([]bool, len(res.Outputs))
	for i, o := range res.Outputs {
		if b, ok := o.(bool); ok {
			out[i] = b
		}
	}
	return out
}
