package congest

import (
	"encoding/binary"
	"math"
	"runtime"
	"sync"

	"distmwis/internal/graph"
	"distmwis/internal/wire"
)

// Delivery memory and its recycling: inbox slots, process arrays and the
// Scratch that holds them.
//
// A solve chains many short protocols, so a run's allocations must not
// grow with n, and a round's cost should be its messages: node processes
// live in memory that is recycled across runs, and a message is moved
// once, by value, by the send call that makes it (send.go).
//
// Inbox slots. Every arc a = lo(v)+p, from v to its p-th neighbour u, has
// one receive slot at rev[a] = lo(u)+q, the arc from u back to v
// (graph.FillReverseArcs), in each of two slabs, one per round parity. A slot
// is ⌈physBandwidth/64⌉ payload words followed by one header word holding
// the round stamp and the bit length:
//
//	round r   step of v    each send call checks its payload once and
//	                       copies it from the writer into slab (r+1)&1
//	                       at rev[a] for each of its ports, stamped r+1
//	round r+1 step of u    u's slots lo(u)..hi(u) in slab (r+1)&1 whose
//	                       stamp is r+1 become u's recv window
//
// Every slot has exactly one writer, the sender on its arc, so workers
// deliver in parallel without locks, and a round's reads (one parity) never
// meet its writes (the other). The slabs hold no pointers and are never
// cleared between rounds: a stamp names the one round its slot is valid
// in, and stamps keep counting up across the runs that reuse the state.
// The same stamp tells a second send on a port: a slot already stamped
// for the next round was written this round (only a node's second send
// call in a round looks). The header after the payload guarantees eight
// addressable bytes from any payload byte, so wire.Reader reads a slot
// word by word.
//
// A received message is a view of its slot, valid only until the
// receiver's step returns: the slot is rewritten in round r+2. A process
// that keeps a received payload copies it (NewMessage, AppendData).
//
// LOCAL runs have no bound and so no stride. They keep heap slots: the
// header word alone in the slab, and a heap copy of the sent payload in a
// pointer slab beside it, one per send call.
//
// Process arrays. Run takes a process type: node v's process is element v
// of a []T kept in the run's Scratch and zeroed when the run ends, so a
// process starts exactly as &T{} does and needs no reset method.
//
// Scratch. The run state, the process arrays and the induced-subgraph
// buffers of a chain of runs live in one Scratch, which a solve borrows
// once and hands to every run through Config.Scratch. Only whole
// scratches return to one process-wide free list that the garbage
// collector ages like a sync.Pool (see scratches), so an idle server's
// scratches are reclaimed, and a solve finds a scratch whatever P it runs
// on.

// headerBytes is the size of a slot's header word.
const headerBytes = 8

// forceHeapSlots makes every run use heap slots, so tests can check that
// the two slot kinds deliver identically. Set only from tests.
var forceHeapSlots bool

// inboxes holds every arc's receive slot for both round parities.
type inboxes struct {
	// stride is the bytes per slot: payload words, then the header.
	stride int
	// heap marks heap slots: stride is headerBytes and ptrs holds the
	// payloads.
	heap bool
	slab [2][]byte
	ptrs [2][]*Message
	// each marks the runs that send a message at a time (heap slots or a
	// delivery hook); sentAt holds there, per arc, the stamp its sender
	// last sent with.
	each   bool
	sentAt []uint32
	// epoch is the stamp of round 0 of the current run.
	epoch uint32
}

// reset lays the slabs out for a run over ports arcs whose frames carry at
// most physBandwidth bits, sending a message at a time when each. Stamps
// stay valid across runs of one stride, so the slabs are cleared only when
// the stride changes or the run's stamps could pass the 32-bit range.
func (ib *inboxes) reset(ports, physBandwidth int, heap, each bool, maxRounds int) {
	stride := headerBytes
	if !heap {
		stride += 8 * ((physBandwidth + 63) / 64)
	}
	fresh := stride != ib.stride || uint64(ib.epoch)+uint64(maxRounds)+2 > math.MaxUint32
	for par := range ib.slab {
		if fresh {
			clear(ib.slab[par][:cap(ib.slab[par])])
		}
		ib.slab[par] = grow(ib.slab[par], ports*stride)
		if heap {
			ib.ptrs[par] = grow(ib.ptrs[par], ports)
		}
	}
	if fresh {
		clear(ib.sentAt[:cap(ib.sentAt)])
		ib.epoch = 0
	}
	if each {
		ib.sentAt = grow(ib.sentAt, ports)
	}
	ib.stride, ib.heap, ib.each = stride, heap, each
}

// retire moves the epoch past every stamp a run of rounds rounds wrote
// (sends of the last round carry rounds+1) and drops the heap slots'
// references.
func (ib *inboxes) retire(rounds int) {
	ib.epoch += uint32(rounds) + 2
	if ib.heap {
		clear(ib.ptrs[0])
		clear(ib.ptrs[1])
	}
}

// target returns the slab parity and the stamp of the slots read in round.
func (ib *inboxes) target(round int) (par int, stamp uint32) {
	return round & 1, ib.epoch + uint32(round)
}

// header is a slot's header word: the round stamp and the bit length.
func header(stamp uint32, bits int) uint64 { return uint64(stamp)<<32 | uint64(bits) }

// valueSlot returns slot arc of a value slab with the given stride, for
// payload.store.
func valueSlot(slab []byte, stride int, arc int32) []byte {
	lo := int(arc) * stride
	return slab[lo : lo+stride : lo+stride]
}

// put delivers m into slot arc of slab par, stamped stamp: its payload
// into a value slot, m itself into a heap slot.
func (ib *inboxes) put(par int, arc int32, stamp uint32, m *Message) {
	if ib.heap {
		ib.ptrs[par][arc] = m
		binary.LittleEndian.PutUint64(ib.slab[par][int(arc)*headerBytes:], header(stamp, m.bitN))
		return
	}
	var pl payload
	pl.load(m.data(), m.bitN)
	pl.store(valueSlot(ib.slab[par], ib.stride, arc), header(stamp, m.bitN), m.data())
}

// payloadWords bounds the payload a send holds in registers:
// wire.CongestBytes, the largest payload a wire.Writer keeps inline. Wider
// payloads are copied byte-wise.
const payloadWords = wire.CongestBytes / 8

// payload is one send's payload as little-endian words: a send call loads
// it once and stores it into each of its receivers' value slots.
type payload struct {
	// n is the payload's length in bytes.
	n int
	// words is the number of valid words in w, -1 for a payload wider
	// than w. Bytes past the payload's length in the last word are
	// whatever follows it in the loaded buffer; the receiver reads only
	// the payload's bits.
	words int
	w     [payloadWords]uint64
}

// load reads the payload of bits bits in d, a word at a time where d's
// capacity allows.
func (pl *payload) load(d []byte, bits int) {
	n := (bits + 7) >> 3
	pl.n = n
	pl.words = (n + 7) >> 3
	if pl.words > payloadWords {
		pl.words = -1
		return
	}
	if cap(d) >= 8*pl.words {
		d = d[:8*pl.words]
		for i := range pl.w[:pl.words] {
			pl.w[i] = binary.LittleEndian.Uint64(d[8*i:])
		}
		return
	}
	clear(pl.w[:pl.words])
	for i, b := range d[:n] {
		pl.w[i>>3] |= uint64(b) << (8 * uint(i&7))
	}
}

// store writes the payload into the front of value slot, and hdr into its
// last word. d is the buffer the payload was loaded from, which a payload
// wider than payloadWords is copied from.
func (pl *payload) store(slot []byte, hdr uint64, d []byte) {
	if pl.words == 1 {
		binary.LittleEndian.PutUint64(slot, pl.w[0])
	} else {
		pl.storeWide(slot, d)
	}
	binary.LittleEndian.PutUint64(slot[len(slot)-headerBytes:], hdr)
}

// storeWide is store for any other payload: word by word, or, past
// payloadWords, byte by byte.
func (pl *payload) storeWide(slot, d []byte) {
	if pl.words < 0 {
		copy(slot, d[:pl.n])
		return
	}
	for i, w := range pl.w[:pl.words] {
		binary.LittleEndian.PutUint64(slot[8*i:], w)
	}
}

// receive fills recv, the window of the arcs lo..lo+len(recv)-1, with the
// messages stamped for round, and nil where none arrived. Value slots are
// read in place through msgs, one view per port over the round's slab.
func (ib *inboxes) receive(recv []*Message, msgs *[2][]Message, lo, round int) {
	par, stamp := ib.target(round)
	stride := ib.stride
	slab := ib.slab[par]
	off := lo * stride
	if ib.heap {
		ptrs := ib.ptrs[par][lo : lo+len(recv)]
		for p := range recv {
			recv[p] = nil
			if uint32(binary.LittleEndian.Uint64(slab[off:off+headerBytes])>>32) == stamp {
				recv[p] = ptrs[p]
			}
			off += headerBytes
		}
		return
	}
	views := msgs[par][:len(recv)]
	for p := range recv {
		end := off + stride
		h := binary.LittleEndian.Uint64(slab[end-headerBytes : end])
		// Filling the view unconditionally keeps the loop free of a
		// branch on whether a message arrived.
		m := &views[p]
		m.bitN = int(uint32(h))
		m.lo, m.hi = off, off+(m.bitN+7)>>3
		if uint32(h>>32) != stamp {
			m = nil
		}
		recv[p] = m
		off = end
	}
}

// wordArena hands out NodeInfo.Words: windows of one recycled buffer,
// bump-allocated while the run's processes are initialised.
type wordArena struct {
	buf  []uint64
	used int
	// initing is set while initProcs runs, the only time Words may be
	// called: Init runs on one goroutine, node steps on many.
	initing bool
}

func (a *wordArena) open() { a.used, a.initing = 0, true }

func (a *wordArena) close() { a.initing = false }

// take returns the next n words, zeroed. When buf is full it grows into a
// new buffer; windows already handed out keep the old one.
func (a *wordArena) take(n int) []uint64 {
	if !a.initing {
		panic("congest: NodeInfo.Words called outside Init")
	}
	if a.used+n > len(a.buf) {
		a.buf = make([]uint64, max(2*len(a.buf), a.used+n))
	}
	w := a.buf[a.used : a.used+n : a.used+n]
	a.used += n
	clear(w)
	return w
}

// Scratch is the recycled memory of a chain of runs on one goroutine: the
// run state, one process array per process type, and a stack of buffers
// for the induced subgraphs the chain runs on. A solve borrows one with
// NewScratch, passes it to every run in Config.Scratch and to Induce, and
// gives it back with Release. The nil *Scratch is valid: its Induce
// allocates and its Pop and Release do nothing.
type Scratch struct {
	state runState
	// procs holds one *[]T per process type used, each zero through its
	// capacity between runs.
	procs []any
	// subs are the subgraph buffers; the first depth of them are in use.
	subs  []*graph.SubgraphBuffer
	depth int
}

// scratches is the free list of whole scratches. It is one list for the
// whole process, so a solve that ends on another P than it began on still
// finds its scratch, which a sync.Pool's per-P private slot would hide;
// and it is aged by the garbage collector as a sync.Pool is: a scratch
// left idle through two collections is dropped, so an idle server's
// scratches are reclaimed.
var scratches struct {
	mu sync.Mutex
	// free holds the scratches released since the last collection, old
	// those released before it.
	free, old []*Scratch
}

func init() { ageScratches() }

// ageScratches runs once per garbage collection: it drops the scratches
// that sat in old through a whole cycle, moves free to old, and arms
// itself for the next collection with a finalizer on a fresh unreachable
// object.
func ageScratches() {
	scratches.mu.Lock()
	clear(scratches.old)
	scratches.old, scratches.free = scratches.free, scratches.old[:0]
	scratches.mu.Unlock()
	runtime.SetFinalizer(new(*byte), func(**byte) { ageScratches() })
}

// NewScratch takes a scratch from the free list, or makes one.
func NewScratch() *Scratch {
	scratches.mu.Lock()
	defer scratches.mu.Unlock()
	for _, list := range []*[]*Scratch{&scratches.free, &scratches.old} {
		if k := len(*list); k > 0 {
			s := (*list)[k-1]
			(*list)[k-1] = nil
			*list = (*list)[:k-1]
			return s
		}
	}
	return new(Scratch)
}

// Release drops every subgraph the scratch holds and returns it to the
// free list. Nothing it handed out may be used afterwards.
func (s *Scratch) Release() {
	if s == nil {
		return
	}
	for s.depth > 0 {
		s.Pop()
	}
	scratches.mu.Lock()
	scratches.free = append(scratches.free, s)
	scratches.mu.Unlock()
}

// Induce returns g's subgraph induced by keep, carrying weights (indexed
// by g's nodes; nil keeps g's) — graph.InduceInto in the scratch's next
// free buffer. The subgraph is valid until the matching Pop: buffers are
// a stack, so the innermost subgraph is popped first.
func (s *Scratch) Induce(g *graph.Graph, keep []bool, weights []int64) *graph.Subgraph {
	if s == nil {
		return g.InduceInto(new(graph.SubgraphBuffer), keep, weights)
	}
	if s.depth == len(s.subs) {
		s.subs = append(s.subs, new(graph.SubgraphBuffer))
	}
	s.depth++
	return g.InduceInto(s.subs[s.depth-1], keep, weights)
}

// Pop releases the subgraph of the latest Induce.
func (s *Scratch) Pop() {
	if s == nil {
		return
	}
	s.depth--
	s.subs[s.depth].Reset()
}

// scratchProcs returns s's []T of length n. The arrays are zero through
// their capacity between runs (Run clears what it used), so it is zeroed.
func scratchProcs[T any](s *Scratch, n int) []T {
	for _, a := range s.procs {
		if a, ok := a.(*[]T); ok {
			*a = grow(*a, n)
			return *a
		}
	}
	a := make([]T, n)
	s.procs = append(s.procs, &a)
	return a
}
