// Package reliable layers a deterministic ARQ transport between the congest
// simulator and a protocol process, turning the lossy links produced by
// internal/fault back into the perfectly reliable synchronous network the
// paper assumes (Kawarabayashi–Khoury–Schild–Schwartzman, Section 3).
//
// Each node's process is wrapped by a transport endpoint that owns the
// *physical* rounds and reconstructs *logical* rounds for the inner process:
// every logical-round message (including the explicit "no message" case)
// travels as a framed data unit with a per-edge sequence number, receivers
// piggyback cumulative ACKs on every frame, and unacknowledged frames are
// retransmitted on a deterministic timeout with bounded backoff. Corrupted
// frames are discarded by the simulator's link-layer checksum (CRC-8, see
// internal/wire), so corruption is just detectable loss and triggers the
// same retransmission path; the fault layer's one-round-delayed duplicates
// are suppressed by the sequence numbers. Under any fault.Schedule with
// Loss, Dup, Corrupt < 1 every logical round's messages are therefore
// delivered exactly once, in order, and the inner process runs bit-for-bit
// the execution it would have had on a reliable network (it is told
// Faulty=false and advances one logical round whenever all its inputs are
// in).
//
// The price is paid in physical rounds and header bits, both fully counted:
// a frame carries up to HeaderBits() of framing above the inner payload
// (granted as headroom over the CONGEST bound B by the simulator, so inner
// protocols still budget against B), and a stalled node simply waits,
// poking silent neighbours with keep-alive frames so that a slow link is
// not mistaken for a dead one. A per-port failure detector eventually
// declares a permanently silent neighbour dead (crash-stop faults) and
// substitutes nil messages so the node is not blocked forever; see
// DESIGN.md §7 for the guarantees and their limits.
//
// Checkpoint/restore (checkpoint.go) adds crash-recovery on top: processes
// implementing Checkpointer are periodically snapshotted together with
// their randomness stream, a crash wipes the live state, and recovery
// replays the logged inputs since the last snapshot — reproducing the
// pre-crash state exactly instead of rejoining stale. Monitor (monitor.go)
// closes the loop for the residual failure modes with an online
// independence check and deterministic local repair.
package reliable

import (
	"fmt"
	"math/rand/v2"
	"sync/atomic"

	"distmwis/internal/congest"
	"distmwis/internal/wire"
)

// Defaults for Options fields left zero.
const (
	// DefaultRoundBound bounds logical round numbers, sizing the sequence
	// and ACK fields. It matches the simulator's default round limit.
	DefaultRoundBound = 1 << 20
	// DefaultRetransmitAfter is the initial retransmission timeout in
	// physical rounds. The fault-free ACK round trip is 2 rounds, so 3 is
	// the smallest value that never retransmits spuriously.
	DefaultRetransmitAfter = 3
	// DefaultBackoffCap caps the doubling retransmission timeout.
	DefaultBackoffCap = 8
	// DefaultPokeEvery is how many rounds of silence on a needed port the
	// node tolerates before it starts sending one keep-alive frame per
	// round until it hears back, so that a long stall chain (a neighbour
	// blocked on its own neighbour) is not mistaken for a crash.
	DefaultPokeEvery = 8
	// DefaultDeclareDeadAfter is how many physical rounds of silence on a
	// needed port the node waits for before declaring the far end dead.
	// A waiting node attempts a poke round trip every round once silence
	// passes PokeEvery, so a false positive needs ~56 consecutive failed
	// exchanges — probability (1-(1-loss)²)^56, negligible for any
	// Loss+Corrupt bounded away from 1.
	DefaultDeclareDeadAfter = 64
	// DefaultLinger is how many quiet physical rounds a finished node waits
	// before halting, so its last ACKs and fin can still serve neighbours
	// whose own copies were lost. Any arrival restarts the linger window.
	// A neighbour still missing this node's fin pokes once per round, so
	// leaving it orphaned requires loss^Linger consecutive losses; if that
	// ever happens the orphan's failure detector is the designed escape
	// hatch (its own outputs are already final, so exactness is unaffected).
	DefaultLinger = 24
)

// Options configures a Transport.
type Options struct {
	// RoundBound is an upper bound on logical round numbers (0 selects
	// DefaultRoundBound). It sizes the sequence/ACK wire fields; an inner
	// process that reaches it stops advancing, leaving the run to end via
	// the simulator's round limit. Callers with a hard stop should pass it
	// to shrink the per-frame header.
	RoundBound int
	// CheckpointEvery enables checkpoint/restore crash recovery: every k-th
	// logical round the inner process is snapshotted via Checkpointer (0
	// disables; processes not implementing Checkpointer keep the fault
	// layer's frozen-state recovery semantics). See checkpoint.go.
	CheckpointEvery int
	// RetransmitAfter, BackoffCap, PokeEvery, DeclareDeadAfter and Linger
	// override the corresponding defaults when positive. They are protocol
	// parameters: every node must use the same values.
	RetransmitAfter  int
	BackoffCap       int
	PokeEvery        int
	DeclareDeadAfter int
	Linger           int
}

func (o Options) withDefaults() Options {
	if o.RoundBound <= 0 {
		o.RoundBound = DefaultRoundBound
	}
	if o.RetransmitAfter <= 0 {
		o.RetransmitAfter = DefaultRetransmitAfter
	}
	if o.BackoffCap <= 0 {
		o.BackoffCap = DefaultBackoffCap
	}
	if o.PokeEvery <= 0 {
		o.PokeEvery = DefaultPokeEvery
	}
	if o.DeclareDeadAfter <= 0 {
		o.DeclareDeadAfter = DefaultDeclareDeadAfter
	}
	if o.Linger <= 0 {
		o.Linger = DefaultLinger
	}
	return o
}

// Transport implements congest.Reliability: one instance serves every node
// of a run (Wrap is called once per process) and accumulates the run's
// transport counters. Use a fresh Transport per congest.Run, or rely on the
// simulator's base-snapshot so Result still reports per-run deltas.
type Transport struct {
	opts Options
	w    int // sequence/ACK field width in bits

	retransmits    atomic.Int64
	ackFrames      atomic.Int64
	recoveries     atomic.Int64
	replayedRounds atomic.Int64
	deadPorts      atomic.Int64
}

// New builds a transport with the given options (zero fields select the
// package defaults).
func New(opts Options) *Transport {
	o := opts.withDefaults()
	return &Transport{opts: o, w: wire.BitsFor(uint64(o.RoundBound))}
}

// Wrap implements congest.Reliability.
func (t *Transport) Wrap(p congest.Process) congest.Process {
	return &proc{t: t, inner: p}
}

// HeaderBits implements congest.Reliability: the worst-case frame header is
// req(1) + ack(W) + fin(1) + finRound(W) + data(1) + seq(W) + has(1) bits
// with W = BitsFor(RoundBound).
func (t *Transport) HeaderBits() int { return 3*t.w + 4 }

// Counters implements congest.Reliability.
func (t *Transport) Counters() congest.Counters {
	return congest.Counters{
		Retransmits:    t.retransmits.Load(),
		TransportAcks:  t.ackFrames.Load(),
		Recoveries:     t.recoveries.Load(),
		ReplayedRounds: t.replayedRounds.Load(),
		DeadPorts:      t.deadPorts.Load(),
	}
}

var _ congest.Reliability = (*Transport)(nil)

// outFrame is one unacknowledged logical-round message on a port.
type outFrame struct {
	seq      int              // logical round the payload belongs to
	m        *congest.Message // nil encodes "no message this round"
	attempts int              // transmissions so far
	nextSend int              // physical round the (re)transmission is due
}

// inSlot buffers a received logical-round payload until the inner process
// consumes it. Presence in the window map is what distinguishes a received
// empty round from a missing one.
type inSlot struct {
	m *congest.Message
}

// portState is the per-edge ARQ state.
type portState struct {
	out       []outFrame     // unacked data frames, ascending seq
	win       map[int]inSlot // received payloads by seq, kept until consumed
	cum       int            // highest contiguous seq received (cumulative ACK)
	finRound  int            // neighbour's final logical round (-1 unknown)
	dead      bool           // failure detector verdict
	lastHeard int            // physical round a frame last arrived
	lastSent  int            // physical round a frame was last sent
	waitSince int            // physical round the port last entered the waiting state
	ackDirty  bool           // owe the neighbour a fresh ACK
}

// proc is one node's transport endpoint wrapped around the inner process.
type proc struct {
	t     *Transport
	inner congest.Process
	info  congest.NodeInfo
	ports []portState
	// innerOut collects the inner process's sends (congest.CaptureSends).
	innerOut []*congest.Message

	logical    int  // completed inner rounds
	innerDone  bool // inner returned done
	finalRound int  // logical round the inner finished at
	lastPhys   int  // last physical round this endpoint stepped
	quiesceAt  int  // physical round quiescence began (0 = not quiescent)
	anno       string

	// Checkpoint/restore state (nil cp = checkpointing off for this node).
	cp        Checkpointer
	pcg       *rand.PCG
	snap      any
	snapPCG   []byte
	snapRound int
	log       [][]*congest.Message // inner inputs since the snapshot
}

// Init implements congest.Process. The inner process is told Faulty=false:
// the whole point of the transport is that the inner execution is the
// reliable-network one, defensive wire formats and all their bandwidth
// included would be wasted.
func (p *proc) Init(info congest.NodeInfo) {
	p.info = info
	p.ports = make([]portState, info.Degree)
	for i := range p.ports {
		p.ports[i].finRound = -1
		p.ports[i].win = make(map[int]inSlot, 2)
	}
	// The node's sends carry this endpoint's frames; the inner process's
	// sends go to an outbox of its own, which becomes data frames and is
	// cleared after every logical round.
	p.innerOut = make([]*congest.Message, info.Degree)
	inner := congest.CaptureSends(info, p.innerOut)
	inner.Faulty = false
	if p.t.opts.CheckpointEvery > 0 {
		if cp, ok := p.inner.(Checkpointer); ok {
			// Substitute a snapshottable randomness stream, seeded from the
			// node's own stream so the substitution is deterministic and
			// independent of the worker count. Without checkpointing the inner process
			// keeps the untouched stream and the logical execution is
			// bit-identical to an unwrapped fault-free run.
			p.cp = cp
			p.pcg = rand.NewPCG(info.Rand.Uint64(), info.Rand.Uint64())
			inner.Rand = rand.New(p.pcg)
		}
	}
	p.inner.Init(inner)
	if p.cp != nil {
		p.takeSnapshot()
	}
}

// Round implements congest.Process: one physical round of the transport.
func (p *proc) Round(round int, recv []*congest.Message) bool {
	if p.cp != nil && round > p.lastPhys+1 && p.lastPhys > 0 {
		// The simulator skipped us for one or more rounds: a crash-recovery
		// fault. Simulate the full amnesia crash the checkpoint layer is
		// for: wipe the inner state by restoring the last snapshot, then
		// replay the logged inputs. See checkpoint.go.
		p.recoverFromCheckpoint()
	}
	p.lastPhys = round

	heard := false
	for port, m := range recv {
		if m != nil {
			heard = true
			p.ingest(port, m, round)
		}
	}
	if heard {
		p.quiesceAt = 0 // any arrival restarts the linger window
	}

	// Run every logical round whose inputs are in. Catch-up bursts after a
	// stall are at most the receive-window depth; the cap exists for nodes
	// with no pending inputs at all (isolated, or every port dead/finished)
	// whose inner process never halts — they advance at a bounded pace so
	// the simulator's round limit can still catch a diverging protocol.
	advanced := 0
	for p.canAdvance() && advanced < 4 {
		p.advanceInner()
		advanced++
	}

	p.detectFailures(round)

	retransmitted := false
	for port := range p.ports {
		retransmitted = p.sendFrame(port, round) || retransmitted
	}

	switch {
	case advanced > 0:
		p.anno = p.innerPhase()
	case retransmitted:
		p.anno = "arq:retransmit"
	case p.innerDone:
		p.anno = "arq:drain"
	default:
		p.anno = "arq:stall"
	}

	if p.quiesced() {
		if p.quiesceAt == 0 {
			p.quiesceAt = round
		}
		if len(p.ports) == 0 || round-p.quiesceAt >= p.t.opts.Linger {
			return true
		}
	} else {
		p.quiesceAt = 0
	}
	return false
}

// TracePhase implements congest.PhaseLabeler: the inner protocol's own
// stage label while logical rounds advance, and an "arq:..." annotation for
// physical rounds the transport spends on recovery work (retransmissions,
// stalls, drain). The label reflects the sampled node's transport state, so
// unlike the bare simulator's labels it can differ across nodes under
// faults; the simulator only ever samples node 0.
func (p *proc) TracePhase(int) string { return p.anno }

func (p *proc) innerPhase() string {
	if pl, ok := p.inner.(congest.PhaseLabeler); ok {
		return pl.TracePhase(p.logical)
	}
	return ""
}

// ingest decodes one arriving frame. Malformed frames (impossible while the
// link-layer checksum holds) are ignored, which is the same as a loss.
func (p *proc) ingest(port int, m *congest.Message, round int) {
	ps := &p.ports[port]
	r := m.Reader()
	req, err := r.ReadBool()
	if err != nil {
		return
	}
	ack64, err := r.ReadBits(p.t.w)
	if err != nil {
		return
	}
	fin, err := r.ReadBool()
	if err != nil {
		return
	}
	finRound := -1
	if fin {
		fr, err := r.ReadBits(p.t.w)
		if err != nil {
			return
		}
		finRound = int(fr)
	}
	data, err := r.ReadBool()
	if err != nil {
		return
	}
	var seq int
	var payload *congest.Message
	hasData := false
	if data {
		seq64, err := r.ReadBits(p.t.w)
		if err != nil {
			return
		}
		has, err := r.ReadBool()
		if err != nil {
			return
		}
		seq = int(seq64)
		hasData = true
		if has {
			payload = sliceRemaining(r)
		}
	}

	// The frame decoded fully: commit its effects.
	ps.lastHeard = round
	if finRound >= 0 && ps.finRound < 0 {
		ps.finRound = finRound
		// A finished neighbour has read everything it ever will (it consumed
		// our rounds < finRound to get there); nothing pending needs to
		// reach it any more.
		ps.out = nil
	}
	for len(ps.out) > 0 && ps.out[0].seq <= int(ack64) {
		ps.out = ps.out[1:]
	}
	if req {
		ps.ackDirty = true
	}
	if hasData {
		if seq <= ps.cum {
			// Duplicate (fault-layer copy or a retransmission whose ACK was
			// lost): suppressed, but the sender clearly needs the ACK again.
			ps.ackDirty = true
			return
		}
		if _, ok := ps.win[seq]; !ok {
			ps.win[seq] = inSlot{m: payload}
			for {
				if _, ok := ps.win[ps.cum+1]; !ok {
					break
				}
				ps.cum++
			}
		}
		ps.ackDirty = true
	}
}

// canAdvance reports whether every input of the inner process's next
// logical round is available: for each live port either the payload with
// the required sequence number has arrived, or the neighbour is known to
// have finished before producing it (nil), or the port is dead (nil).
func (p *proc) canAdvance() bool {
	if p.innerDone {
		return false
	}
	// At RoundBound the sequence-number space is exhausted: freeze the
	// inner rather than panic, so a diverging execution (e.g. an inner
	// that cannot terminate because every informative neighbour
	// crash-stopped) degrades into a simulator-level truncation instead
	// of killing the host.
	if p.logical >= p.t.opts.RoundBound {
		return false
	}
	for i := range p.ports {
		ps := &p.ports[i]
		if ps.dead {
			continue
		}
		if ps.finRound >= 0 && p.logical > ps.finRound {
			continue
		}
		if ps.cum < p.logical {
			return false
		}
	}
	return true
}

// blockedOn reports whether ps is (one of) the ports canAdvance is waiting
// for.
func (p *proc) blockedOn(ps *portState) bool {
	if p.innerDone || ps.dead {
		return false
	}
	if ps.finRound >= 0 && p.logical > ps.finRound {
		return false
	}
	return ps.cum < p.logical
}

// advanceInner runs one logical round of the inner process and enqueues its
// outgoing messages (explicit nil markers included) as data frames.
func (p *proc) advanceInner() {
	next := p.logical + 1
	recv := make([]*congest.Message, len(p.ports))
	for i := range p.ports {
		ps := &p.ports[i]
		if ps.dead || (ps.finRound >= 0 && p.logical > ps.finRound) {
			continue
		}
		if slot, ok := ps.win[p.logical]; ok {
			recv[i] = slot.m
			delete(ps.win, p.logical)
		}
	}
	done := p.inner.Round(next, recv)
	p.logical = next
	if p.cp != nil {
		p.log = append(p.log, recv)
		if p.logical%p.t.opts.CheckpointEvery == 0 {
			p.takeSnapshot()
		}
	}
	for port := range p.ports {
		ps := &p.ports[port]
		if ps.dead || ps.finRound >= 0 {
			// A finished neighbour's process never reads rounds past its
			// final one (the bare simulator delivers them into an inbox no
			// one looks at), and a dead one never reads anything.
			continue
		}
		m := p.innerOut[port]
		if m != nil && p.info.Bandwidth > 0 && m.Bits() > p.info.Bandwidth {
			panic(fmt.Sprintf("reliable: node %d port %d inner message of %d bits exceeds bandwidth %d", p.info.Index, port, m.Bits(), p.info.Bandwidth))
		}
		ps.out = append(ps.out, outFrame{seq: next, m: m, nextSend: 0})
	}
	clear(p.innerOut)
	if done {
		p.innerDone = true
		p.finalRound = next
	}
}

// waitingOn reports whether this node currently needs something from the
// port's far end: unacked data, the input blocking the next inner round, or
// the neighbour's fin.
func (p *proc) waitingOn(ps *portState) bool {
	return len(ps.out) > 0 || p.blockedOn(ps) || (p.innerDone && ps.finRound < 0)
}

// silence is the number of physical rounds the port has been quiet while
// this node was waiting on it. Time the port spent idle (neither side owed
// the other anything — e.g. both endpoints blocked behind slower parts of
// the graph) does not count: legitimately silent rounds before the port
// re-entered the waiting state must not trip the failure detector the
// moment the node advances and starts waiting again.
func (ps *portState) silence(round int) int {
	since := ps.lastHeard
	if ps.waitSince > since {
		since = ps.waitSince
	}
	return round - since
}

// detectFailures declares ports dead after DeclareDeadAfter physical rounds
// of silence while this node actually needs them (owed an ACK, owed data,
// or owed a fin). A dead port's inputs become nil from the next advance on.
func (p *proc) detectFailures(round int) {
	for i := range p.ports {
		ps := &p.ports[i]
		if ps.dead {
			continue
		}
		if !p.waitingOn(ps) {
			ps.waitSince = round
			continue
		}
		if ps.silence(round) > p.t.opts.DeclareDeadAfter {
			ps.dead = true
			ps.out = nil
			p.t.deadPorts.Add(1)
		}
	}
}

// sendFrame sends the port's frame for this physical round: the due data
// frame with the lowest sequence number if any, otherwise a pure ACK when
// one is owed, otherwise a keep-alive poke when the node has been waiting
// silently too long, otherwise nothing. Reports whether the frame was a
// retransmission.
func (p *proc) sendFrame(port, round int) bool {
	ps := &p.ports[port]
	if ps.dead {
		return false
	}
	var of *outFrame
	for i := range ps.out {
		if ps.out[i].nextSend <= round {
			of = &ps.out[i]
			break
		}
	}
	// While this node needs anything from the far end — an ACK, data, or
	// its fin — and the port has been silent past the keep-alive threshold,
	// send a poke every round until something arrives. Every arriving frame
	// (poke or data) makes the peer answer, so one surviving round trip
	// resets the silence clock; the failure detector below only fires after
	// ~DeclareDeadAfter consecutive one-per-round exchanges all failed.
	poke := p.waitingOn(ps) && ps.silence(round) >= p.t.opts.PokeEvery
	if of == nil && !ps.ackDirty && !poke {
		return false
	}

	var w wire.Writer
	w.WriteBool(of == nil && poke) // req: explicitly ask for a reply
	w.WriteBits(uint64(ps.cum), p.t.w)
	if p.innerDone {
		w.WriteBool(true)
		w.WriteBits(uint64(p.finalRound), p.t.w)
	} else {
		w.WriteBool(false)
	}
	retransmit := false
	if of != nil {
		w.WriteBool(true)
		w.WriteBits(uint64(of.seq), p.t.w)
		if of.m != nil {
			w.WriteBool(true)
			appendMessage(&w, of.m)
		} else {
			w.WriteBool(false)
		}
		if of.attempts > 0 {
			retransmit = true
			p.t.retransmits.Add(1)
		}
		of.attempts++
		backoff := p.t.opts.RetransmitAfter << uint(of.attempts-1)
		if backoff > p.t.opts.BackoffCap {
			backoff = p.t.opts.BackoffCap
		}
		of.nextSend = round + backoff
	} else {
		w.WriteBool(false)
		p.t.ackFrames.Add(1)
	}
	ps.ackDirty = false
	ps.lastSent = round
	p.info.Send(port, &w)
	return retransmit
}

// quiesced reports whether this endpoint has nothing left to do: the inner
// process finished, every live port has acknowledged all our data, and
// every live neighbour's fin is known (so it no longer needs our ACKs to
// make progress — anything late is covered by the linger window).
func (p *proc) quiesced() bool {
	if !p.innerDone {
		return false
	}
	for i := range p.ports {
		ps := &p.ports[i]
		if ps.dead {
			continue
		}
		if len(ps.out) > 0 || ps.finRound < 0 {
			return false
		}
	}
	return true
}

// sliceRemaining copies the reader's unread bits into a fresh message — the
// inner payload carried behind a frame header.
func sliceRemaining(r *wire.Reader) *congest.Message {
	var w wire.Writer
	for {
		rem := r.Remaining()
		if rem == 0 {
			break
		}
		if rem > 64 {
			rem = 64
		}
		v, err := r.ReadBits(rem)
		if err != nil {
			break // unreachable: rem <= Remaining()
		}
		w.WriteBits(v, rem)
	}
	return congest.NewMessage(&w)
}

// appendMessage copies a payload's bits onto the end of a frame.
func appendMessage(w *wire.Writer, m *congest.Message) {
	r := m.Reader()
	for {
		rem := r.Remaining()
		if rem == 0 {
			return
		}
		if rem > 64 {
			rem = 64
		}
		v, err := r.ReadBits(rem)
		if err != nil {
			return // unreachable: rem <= Remaining()
		}
		w.WriteBits(v, rem)
	}
}
