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
//   - randomness is private per node (independent deterministic PCG streams);
//   - ports are anonymous: a node cannot see its neighbours' identifiers
//     until they are sent in messages.
//
// One shared round loop enforces the synchronous model; the cross-cutting
// seams — delivery, bandwidth enforcement, fault hooks, tracing, reliable
// transport — live there once. Each round's compute phase goes to one
// executor (see pool.go) whose only scheduling choice is a worker count:
// with one worker it steps nodes in index order on the calling goroutine,
// with more it fans node steps out over persistent workers and joins them
// at a round barrier, so no node can observe another node's mid-round
// state. Because per-node state is confined to one goroutine within a
// round and per-node randomness is pre-seeded, every worker count yields
// bit-identical executions: scheduling changes no round, message or bit.
//
// A run allocates in proportion to itself, not to n (see slots.go). Run
// takes a process type and hands node v element v of a recycled, zeroed
// []T; NodeInfo.Message builds a node's message in one of two per-node
// slots that the simulator reuses every other round. A slot message is
// valid until its sender's step two rounds later, so a process must never
// retain or forward one; NewMessage builds a message that may be kept.
// Slots are off, and every message is a heap one, in runs with a fault
// hook or the reliable transport.
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

// Message is an immutable bit-accounted payload travelling over one edge in
// one round.
type Message struct {
	data []byte
	bitN int
}

// NewMessage freezes the contents of w into a heap Message. The writer can
// be reused afterwards. A process that retains or forwards a message must
// build it here; NodeInfo.Message is the allocation-free path for the
// common send-once case.
func NewMessage(w *wire.Writer) *Message {
	data := make([]byte, len(w.Bytes()))
	copy(data, w.Bytes())
	return &Message{data: data, bitN: w.Len()}
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
	return &Message{data: buf, bitN: nbits}
}

// NewMessageOwned wraps data without copying. The caller transfers
// ownership: it must not read or mutate data afterwards. Together with
// AppendData it forms the zero-copy path for in-repo layers (fault
// injection, transports) that already build a private buffer per message;
// external protocol code should keep using NewMessage.
func NewMessageOwned(data []byte, nbits int) *Message {
	if nbits < 0 || nbits > 8*len(data) {
		panic(fmt.Sprintf("congest: NewMessageOwned: %d bits do not fit in %d bytes", nbits, len(data)))
	}
	return &Message{data: data, bitN: nbits}
}

// Bits returns the exact payload size in bits.
func (m *Message) Bits() int { return m.bitN }

// Data returns a copy of the packed payload bytes (Bits() of them valid).
// The copy is defensive: a Message is immutable and may still be in
// flight. Callers that need the bytes in a buffer they already own should
// use AppendData instead.
func (m *Message) Data() []byte {
	buf := make([]byte, len(m.data))
	copy(buf, m.data)
	return buf
}

// AppendData appends the packed payload bytes to dst and returns the
// extended slice. It is the zero-allocation read path: with sufficient
// capacity in dst no new buffer is created, and unlike Data it never
// allocates an intermediate copy.
func (m *Message) AppendData(dst []byte) []byte { return append(dst, m.data...) }

// Reader returns a fresh reader over the payload.
func (m *Message) Reader() *wire.Reader { return wire.NewReader(m.data, m.bitN) }

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
	// MaxID is an upper bound on identifier values, implied by NUpper
	// (identifiers are O(log n) bits). Used to size wire fields.
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
}

// Message freezes the contents of w into this node's message slot for the
// current round and returns it; the writer can be reused afterwards. It is
// NewMessage without the allocation, under the ownership rule of slots.go:
// the message is valid until the node's step two rounds later, so it may
// only be returned from this round's Round, never retained or forwarded.
// When no slot can take the payload — slots are off for the run, the node
// already filled its slot this round, or the payload exceeds
// wire.CongestBytes — it falls back to NewMessage.
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
	// port p this round (nil if none). The returned slice assigns outgoing
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
	maxID := g.MaxID()
	if maxID == 0 {
		maxID = 1
	}

	st := statePool.Get().(*runState)
	st.reset(g, cfg.slotsOn())
	sim := &simulator{g: g, cfg: cfg, bandwidth: bandwidth, physBandwidth: bandwidth,
		maxID: maxID, maxWeight: maxWeight, runState: st}
	if cfg.reliable != nil && bandwidth > 0 {
		// Transport framing (seq/ack headers) rides above the CONGEST bound:
		// inner processes still budget against B, physical frames may carry
		// the exact header on top. See Reliability.HeaderBits.
		sim.physBandwidth = bandwidth + cfg.reliable.HeaderBits()
	}
	return sim, nil
}

// initProcs wraps every process in the reliable transport, if any, seeds
// its randomness and calls Init.
func (s *simulator) initProcs() {
	var slots *slotTable
	if s.cfg.slotsOn() {
		slots = &s.slots
	}
	for v := range s.procs {
		if s.cfg.reliable != nil {
			s.procs[v] = s.cfg.reliable.Wrap(s.procs[v])
		}
		// rand.New and rand.NewPCG both inline, so filling the value slots
		// allocates nothing.
		s.pcgs[v] = *rand.NewPCG(s.cfg.seed, 0x6a09e667f3bcc908^uint64(v))
		s.rnds[v] = *rand.New(&s.pcgs[v])
		s.procs[v].Init(NodeInfo{
			Index:     v,
			ID:        s.g.ID(v),
			Degree:    s.g.Degree(v),
			Weight:    s.g.Weight(v),
			NUpper:    s.cfg.nUpper,
			MaxID:     s.maxID,
			MaxWeight: s.maxWeight,
			Bandwidth: s.bandwidth,
			Faulty:    s.cfg.hook != nil,
			Rand:      &s.rnds[v],
			Out:       s.out[v],
			slots:     slots,
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
	*runState
	res Result
}

// slotsOn reports whether the run hands out message slots. They are off
// whenever a message can outlive its two-round window: a fault hook may
// retain it or deliver a duplicate a round late, and the reliable
// transport keeps inner messages for retransmission and replay.
func (c *config) slotsOn() bool { return c.hook == nil && c.reliable == nil }

// runState is every per-run buffer of a simulation whose size follows the
// graph. A solve chains many short protocols (the Theorem 2 pipeline makes
// about ten Run calls per request), so Run borrows the buffers from
// statePool instead of building them per call, and gives them back when
// the run ends however it ends. Nothing a caller keeps points into it:
// Result.Outputs and TruncationError.Partial are allocated fresh.
type runState struct {
	procs []Process
	done  graph.Bitset
	// Inboxes are per-node windows into two flat slabs (one per round
	// parity) that swap together at the end of every delivery phase, so
	// clearing a round's inboxes is one clear() of a slab.
	inbox, nextInbox    [][]*Message
	inboxSlab, nextSlab []*Message
	// slots are the nodes' message slots (slots.go).
	slots slotTable
	// out holds the nodes' NodeInfo.Out windows over outSlab.
	out     [][]*Message
	outSlab []*Message
	// reversePort[v][p] is the port at v's p-th neighbour leading back to
	// v; windows over revSlab, filled with the help of revCursor.
	reversePort [][]int32
	revSlab     []int32
	revCursor   []int32
	// Per-node randomness: value slabs, so seeding n streams allocates
	// nothing.
	pcgs []rand.PCG
	rnds []rand.Rand
	// Per-round compute results, written by the executor's workers.
	outboxes    [][]*Message
	doneNow     []bool
	errs        []error
	pendingDups []pendingDup
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

// reset sizes the state for g, clears it, and lays out the per-node windows
// and the reverse-port table, and the message slots when slotsOn.
func (st *runState) reset(g *graph.Graph, slotsOn bool) {
	n, ports := g.N(), 2*g.M()
	st.procs = resize(st.procs, n)
	st.done = resize(st.done, (n+63)/64) // the words of graph.NewBitset(n)
	st.inbox = resize(st.inbox, n)
	st.nextInbox = resize(st.nextInbox, n)
	st.inboxSlab = resize(st.inboxSlab, ports)
	st.nextSlab = resize(st.nextSlab, ports)
	st.out = resize(st.out, n)
	st.outSlab = resize(st.outSlab, ports)
	st.reversePort = resize(st.reversePort, n)
	st.revSlab = resize(st.revSlab, ports)
	st.revCursor = resize(st.revCursor, n)
	st.pcgs = resize(st.pcgs, n)
	st.rnds = resize(st.rnds, n)
	st.outboxes = resize(st.outboxes, n)
	st.doneNow = resize(st.doneNow, n)
	st.errs = resize(st.errs, n)
	off := 0
	for v := 0; v < n; v++ {
		hi := off + g.Degree(v)
		st.inbox[v] = st.inboxSlab[off:hi:hi]
		st.nextInbox[v] = st.nextSlab[off:hi:hi]
		st.out[v] = st.outSlab[off:hi:hi]
		st.reversePort[v] = st.revSlab[off:hi:hi]
		off = hi
	}
	st.buildReversePorts(g)
	if slotsOn {
		st.slots.reset(n)
	}
}

// release is the one exit of every run — normal end, round limit, hard
// stop, node error or panic. It drops every reference the run left
// behind and puts the state back into statePool.
func (st *runState) release() {
	clear(st.procs)
	clear(st.inboxSlab)
	clear(st.nextSlab)
	clear(st.outSlab)
	clear(st.outboxes)
	clear(st.errs)
	clear(st.pendingDups)
	st.pendingDups = st.pendingDups[:0]
	statePool.Put(st)
}

// pendingDup is a duplicate copy scheduled by the fault hook: the original
// payload, re-arriving at the receiver one round after the first delivery.
type pendingDup struct {
	to   int
	port int
	m    *Message
}

// buildReversePorts fills st.reversePort: for every directed edge (v, p),
// the port q at the far end u such that u's q-th neighbour is v. Because
// neighbour lists are sorted ascending, scanning v in ascending order means
// each u sees its neighbours arrive in exactly port order, so a per-node
// cursor assigns the reverse ports in one O(n + m) pass — no per-edge binary
// search. The table is per-node windows over the flat revSlab.
func (st *runState) buildReversePorts(g *graph.Graph) {
	cur := st.revCursor
	for v := range st.reversePort {
		rev := st.reversePort[v]
		for p, u := range g.Neighbors(v) {
			rev[p] = cur[u]
			cur[u]++
		}
	}
}

func (s *simulator) run() (*Result, error) {
	s.initProcs()
	n := s.g.N()
	live := n
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
	outboxes, doneNow, errs := s.outboxes, s.doneNow, s.errs

	step := func(v, round int) {
		if s.done.Get(v) {
			return
		}
		if s.cfg.hook != nil && s.cfg.hook.State(round, v) != NodeUp {
			return
		}
		send, fin := s.procs[v].Round(round, s.inbox[v])
		if len(send) > s.g.Degree(v) {
			errs[v] = fmt.Errorf("congest: node %d sent on %d ports but has degree %d", v, len(send), s.g.Degree(v))
			return
		}
		if s.physBandwidth > 0 {
			for p, m := range send {
				if m != nil && m.bitN > s.physBandwidth {
					errs[v] = fmt.Errorf("congest: node %d port %d message of %d bits exceeds bandwidth %d", v, p, m.bitN, s.physBandwidth)
					return
				}
			}
		}
		outboxes[v] = send
		doneNow[v] = fin
	}

	exec := newPoolEngine(n, s.cfg.workers, step, errs)
	defer exec.shutdown()

	if s.cfg.hook != nil {
		s.cfg.hook.Begin(n)
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

		s.slots.round = round
		exec.runRound(round)
		// Report the error of the lowest-index failing node, so error
		// selection is deterministic and independent of the worker count
		// even when parallel workers record several errors in one round.
		for v := 0; v < n; v++ {
			if errs[v] != nil {
				return nil, errs[v]
			}
		}

		// Crash-stop nodes halt permanently; their Output() keeps the state
		// at crash time. Handled here, on the single delivery goroutine, so
		// the live count never races with the workers.
		if s.cfg.hook != nil {
			for v := 0; v < n; v++ {
				if !s.done.Get(v) && s.cfg.hook.State(round, v) == NodeStopped {
					s.done.Set(v)
					live--
				}
			}
		}

		if tr != nil {
			computeN = time.Since(phaseT0).Nanoseconds()
			phaseT0 = time.Now()
		}

		// Delivery phase: clear next inboxes, move messages. nextSlab holds
		// the messages consumed during the *previous* round's compute phase
		// (the slabs swapped after they were delivered).
		clear(s.nextSlab)
		// Duplicates scheduled during the previous round's delivery arrive
		// first, so a fresh message on the same port overwrites the copy.
		if len(s.pendingDups) > 0 {
			for _, d := range s.pendingDups {
				if s.cfg.hook.State(round+1, d.to) != NodeUp {
					continue
				}
				s.nextInbox[d.to][d.port] = d.m
				s.res.FaultDuplicated++
			}
			s.pendingDups = s.pendingDups[:0]
		}
		roundMaxBits := 0
		for v := 0; v < n; v++ {
			if s.done.Get(v) {
				continue
			}
			nbrs := s.g.Neighbors(v)
			rports := s.reversePort[v]
			for p, m := range outboxes[v] {
				if m == nil {
					continue
				}
				u := int(nbrs[p])
				rport := int(rports[p])
				s.res.Messages++
				s.res.Bits += int64(m.bitN)
				if m.bitN > roundMaxBits {
					roundMaxBits = m.bitN
				}
				if s.cfg.hook != nil {
					if m = s.deliverFaulty(round, v, u, rport, m); m == nil {
						continue
					}
				}
				s.nextInbox[u][rport] = m
			}
			outboxes[v] = nil
			clear(s.out[v])
			if doneNow[v] {
				s.done.Set(v)
				doneNow[v] = false
				live--
			}
		}
		if roundMaxBits > s.res.MaxMessageBits {
			s.res.MaxMessageBits = roundMaxBits
		}
		s.inbox, s.nextInbox = s.nextInbox, s.inbox
		s.inboxSlab, s.nextSlab = s.nextSlab, s.inboxSlab

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

// deliverFaulty routes one message through the delivery hook. It returns
// the (possibly rewritten) message to deliver this round, or nil if the
// message is lost, corrupted beyond the checksum, or addressed to a node
// that is down when it would arrive (round+1). Duplicates of the original
// payload are queued for the following round.
func (s *simulator) deliverFaulty(round, from, to, rport int, m *Message) *Message {
	if s.cfg.hook.State(round+1, to) != NodeUp {
		s.res.FaultLost++
		return nil
	}
	sum := wire.Checksum(m.data, m.bitN)
	out, dup := s.cfg.hook.Deliver(round, from, to, m)
	if dup {
		// A duplicate re-sends the original frame; corruption (below) is
		// per-transmission and does not propagate into the copy.
		s.pendingDups = append(s.pendingDups, pendingDup{to: to, port: rport, m: m})
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
		if out.bitN != m.bitN || wire.Checksum(out.data, out.bitN) != sum {
			s.res.FaultCorrupted++
			return nil
		}
	}
	return out
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
