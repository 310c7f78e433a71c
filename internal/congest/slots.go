package congest

import (
	"sync"

	"distmwis/internal/wire"
)

// Per-run recycling: message slots and process arrays.
//
// A solve chains many short protocols, so a run's allocations must not
// grow with n: node processes and their messages come from memory that is
// recycled across runs.
//
// Message slots. Every node owns two simulator-owned messages in the
// pooled runState, one per round parity, each with a payload buffer of
// wire.CongestBytes. NodeInfo.Message fills the slot of the current round:
//
//	round r   compute    sender calls info.Message, returns it in send
//	round r   delivery   simulator places it into receiver inbox slots
//	round r+1 compute    receivers parse it via Reader/AppendData
//	round r+2 compute    sender's step refills the same slot
//
// A round-r message is only ever read in compute r+1, strictly before the
// sender's step in round r+2 (compute phases are separated by the delivery
// barrier), so the reuse is safe for every worker count. The ownership
// rule for protocol code follows: a slot message is valid until its
// sender's step two rounds later, so it must never be retained or
// forwarded — a process that keeps a message across rounds, or relays a
// received one, builds it with NewMessage.
//
// NodeInfo.Message falls back to NewMessage, a heap message, when
//   - the node has already filled its slot this round (a second distinct
//     message in one round);
//   - the payload exceeds wire.CongestBytes (LOCAL-model payloads);
//   - slots are off for the run: with a fault hook (WithFaults), which may
//     retain a message or re-deliver a duplicate one round late, or with
//     WithReliable, whose transport keeps inner messages for
//     retransmission and replay.
//
// Process arrays. Run takes a process type: node v's
// process is element v of a []T borrowed from one sync.Pool per type and
// zeroed when it is returned, so a process starts exactly as &T{} does and
// needs no reset method. Both the arrays and runState live in sync.Pools,
// never pinned free lists, so the garbage collector reclaims them when the
// server goes idle.

// slotTable holds the message slots of one run.
type slotTable struct {
	// round is the round being computed. The round loop writes it between
	// compute phases; node steps only read it.
	round int
	// last is, per node, the round in which it last filled a slot.
	last []int
	// msgs holds two slots per node, 2v + round&1. Each payload is a
	// window of capacity wire.CongestBytes over buf, laid out once when
	// the table grows; windows beyond the current n stay laid out.
	msgs []Message
	buf  []byte
}

// reset prepares the table for an n-node run.
func (t *slotTable) reset(n int) {
	t.round = 0
	t.last = resize(t.last, n)
	if len(t.msgs) >= 2*n {
		return
	}
	t.msgs = make([]Message, 2*n)
	t.buf = make([]byte, 2*n*wire.CongestBytes)
	for i := range t.msgs {
		lo := i * wire.CongestBytes
		t.msgs[i].data = t.buf[lo:lo:(lo + wire.CongestBytes)]
	}
}

// fill freezes w into node v's slot for the current round, or returns nil
// when the slot cannot take it (already filled this round, or too large).
func (t *slotTable) fill(v int, w *wire.Writer) *Message {
	b := w.Bytes()
	if t.last[v] == t.round || len(b) > wire.CongestBytes {
		return nil
	}
	t.last[v] = t.round
	m := &t.msgs[2*v+t.round&1]
	m.data = m.data[:len(b)]
	copy(m.data, b)
	m.bitN = w.Len()
	return m
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
