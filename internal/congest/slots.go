package congest

import (
	"encoding/binary"
	"math"
	"sync"

	"distmwis/internal/wire"
)

// Delivery memory and per-run recycling: inbox slots, sender slots and
// process arrays.
//
// A solve chains many short protocols, so a run's allocations must not
// grow with n, and a round's cost should be its messages: node processes
// and messages live in memory that is recycled across runs, and a message
// is moved once, by value, by the node that sends it.
//
// Inbox slots. Every arc a = lo(v)+p, from v to its p-th neighbour u, has
// one receive slot at rev[a] = lo(u)+q, the arc from u back to v
// (graph.ReverseArcs), in each of two slabs, one per round parity. A slot
// is ⌈physBandwidth/64⌉ payload words followed by one header word holding
// the round stamp and the bit length:
//
//	round r   step of v    Round returns send; each message is checked
//	                       and copied into slab (r+1)&1 at rev[a],
//	                       stamped r+1
//	round r+1 step of u    u's slots lo(u)..hi(u) in slab (r+1)&1 whose
//	                       stamp is r+1 become u's recv window
//
// Every slot has exactly one writer, the sender on its arc, so workers
// deliver in parallel without locks, and a round's reads (one parity) never
// meet its writes (the other). The slabs hold no pointers and are never
// cleared between rounds: a stamp names the one round its slot is valid
// in, and stamps keep counting up across the runs that reuse the state.
// The header after the payload guarantees eight addressable bytes from
// any payload byte, so wire.Reader reads a slot word by word.
//
// A received message is a view of its slot, valid only until the
// receiver's step returns: the slot is rewritten in round r+2. A process
// that keeps a received payload copies it (NewMessage, AppendData).
//
// LOCAL runs have no bound and so no stride. They keep heap slots: the
// header word alone in the slab, and the sender's *Message in a pointer
// slab beside it.
//
// Sender slots. Every node owns one simulator-owned message with a payload
// buffer of wire.CongestBytes. NodeInfo.Message fills it; its step copies
// it into the receivers' slots, so it is dead once the step returns, and
// the next step refills it. The ownership rule for protocol code follows:
// a slot message may only be returned from the Round that built it, never
// retained or forwarded later — a process that keeps a message across
// rounds builds it with NewMessage. NodeInfo.Message falls back to
// NewMessage when
//   - the node has already filled its slot this round (a second distinct
//     message in one round);
//   - the payload exceeds wire.CongestBytes;
//   - slots are off for the run: in LOCAL runs, whose heap slots keep the
//     sender's message until it is read, and with WithReliable, whose
//     transport keeps inner messages for retransmission and replay.
//
// Process arrays. Run takes a process type: node v's process is element v
// of a []T borrowed from one sync.Pool per type and zeroed when it is
// returned, so a process starts exactly as &T{} does and needs no reset
// method. The arrays and runState live in sync.Pools, never pinned free
// lists, so the garbage collector reclaims them when the server goes idle.

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
	// epoch is the stamp of round 0 of the current run.
	epoch uint32
}

// reset lays the slabs out for a run over ports arcs whose frames carry at
// most physBandwidth bits. Stamps stay valid across runs of one stride, so
// the slabs are cleared only when the stride changes or the run's stamps
// could pass the 32-bit range.
func (ib *inboxes) reset(ports, physBandwidth int, heap bool, maxRounds int) {
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
		ib.epoch = 0
	}
	ib.stride, ib.heap = stride, heap
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

// putPointer delivers m into heap slot arc of slab par, stamped stamp.
func (ib *inboxes) putPointer(par int, arc int32, stamp uint32, m *Message) {
	ib.ptrs[par][arc] = m
	binary.LittleEndian.PutUint64(ib.slab[par][int(arc)*headerBytes:], header(stamp, m.bitN))
}

// payloadWords bounds the payload a send holds in registers: the largest
// sender slot. Wider payloads are copied byte-wise.
const payloadWords = wire.CongestBytes / 8

// payload is one message's payload as little-endian words: a value slot
// is filled by load, when the message differs from the last one loaded (a
// broadcast loads once), and then store, so the message is free again as
// soon as store returns.
type payload struct {
	m *Message
	// words is the number of valid words in w, -1 for a payload wider
	// than w. Bytes past the payload's length in the last word are
	// whatever follows it in the message's buffer: a received message's
	// data is sliced to the payload length, so they are never read.
	words int
	w     [payloadWords]uint64
}

// load reads m's payload, a word at a time where its buffer's capacity
// allows.
func (pl *payload) load(m *Message) {
	pl.m = m
	n := (m.bitN + 7) >> 3
	pl.words = (n + 7) >> 3
	if pl.words > payloadWords {
		pl.words = -1
		return
	}
	d := m.data()
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
// last word.
func (pl *payload) store(slot []byte, hdr uint64) {
	if pl.words == 1 {
		binary.LittleEndian.PutUint64(slot, pl.w[0])
	} else {
		pl.storeWide(slot)
	}
	binary.LittleEndian.PutUint64(slot[len(slot)-headerBytes:], hdr)
}

// storeWide is store for any other payload: word by word, or, past
// payloadWords, byte by byte.
func (pl *payload) storeWide(slot []byte) {
	if pl.words < 0 {
		copy(slot, pl.m.data()[:(pl.m.bitN+7)>>3])
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

// slotTable holds the sender slots of one run.
type slotTable struct {
	// round is the round being computed. The round loop writes it between
	// compute phases; node steps only read it.
	round int
	// last is, per node, the round in which it last filled its slot.
	last []int
	// msgs holds one slot per node. Each payload is a window of capacity
	// wire.CongestBytes over buf, laid out once when the table grows;
	// windows beyond the current n stay laid out.
	msgs []Message
	buf  []byte
}

// reset prepares the table for an n-node run.
func (t *slotTable) reset(n int) {
	t.round = 0
	t.last = resize(t.last, n)
	if len(t.msgs) >= n {
		return
	}
	t.msgs = make([]Message, n)
	t.buf = make([]byte, n*wire.CongestBytes)
	for i := range t.msgs {
		lo := i * wire.CongestBytes
		t.msgs[i].buf = t.buf[lo : lo+wire.CongestBytes : lo+wire.CongestBytes]
	}
}

// fill freezes w into node v's slot, or returns nil when the slot cannot
// take it (already filled this round, or too large).
func (t *slotTable) fill(v int, w *wire.Writer) *Message {
	b := w.Bytes()
	if t.last[v] == t.round || len(b) > wire.CongestBytes {
		return nil
	}
	t.last[v] = t.round
	m := &t.msgs[v]
	m.hi = copy(m.buf, b)
	m.bitN = w.Len()
	return m
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

// procPools maps a process type, keyed by its nil *T, to the sync.Pool of
// its recycled arrays. Pooled arrays are all zero through their capacity.
var procPools sync.Map

func procPool[T any]() *sync.Pool {
	key := any((*T)(nil))
	if p, ok := procPools.Load(key); ok {
		return p.(*sync.Pool)
	}
	p, _ := procPools.LoadOrStore(key, new(sync.Pool))
	return p.(*sync.Pool)
}

// borrowProcs returns a zeroed []T of length n.
func borrowProcs[T any](n int) *[]T {
	a, _ := procPool[T]().Get().(*[]T)
	if a == nil {
		a = new([]T)
	}
	if cap(*a) < n {
		*a = make([]T, n)
	} else {
		*a = (*a)[:n]
	}
	return a
}

// returnProcs zeroes the array, dropping every reference its processes
// held, and gives it back to its pool.
func returnProcs[T any](a *[]T) {
	clear(*a)
	procPool[T]().Put(a)
}
