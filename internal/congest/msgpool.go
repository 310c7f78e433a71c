package congest

import (
	"sync"

	"distmwis/internal/wire"
)

// Message pooling.
//
// On large graphs the round loop's allocation profile is dominated by one
// object class: the per-round, per-edge Message (header + payload buffer),
// built by a process, delivered into an inbox, read once the next round and
// then garbage. The pool below recycles those objects with returns batched
// at the one point in the round structure where ownership is provably
// unambiguous: the delivery phase's "clear last round's inboxes" pass.
//
// Lifecycle of a pooled message (round numbers relative to the send):
//
//	round r   compute    process calls NewPooledMessage, returns it in send
//	round r   delivery   simulator places it into receiver inbox slots and
//	                     lists it once on the slab's sent list
//	round r+1 compute    receiver(s) parse it via Reader/AppendData
//	round r+2 delivery   the slab is cleared, then its sent list goes back
//	                     to the pool
//
// A run that ends — however it ends — releases both slabs' sent lists
// (runState.release), so the final rounds' messages are recycled too. The
// release point runs strictly after the last possible read (compute
// precedes delivery within a round) and on the single delivery goroutine,
// so no synchronisation beyond sync.Pool's own is needed; and since the
// slab is cleared before the first Put, a concurrent run's Get can never
// hand out an object this run still references.
//
// Two per-message flags keep the sent list exact:
//
//   - free marks a message already listed: broadcast fan-out delivers one
//     object to many ports, and it must be released once. NewPooledMessage
//     clears it.
//   - pooled marks objects eligible for recycling at all. The fault layer
//     clears it in deliverFaulty, before the message could be listed: a
//     delivery hook may retain the message (duplicates re-arrive a round
//     later, and arbitrary hooks may log it), which would leave stale
//     pointers behind after a release. Unpooled messages simply fall to the
//     garbage collector, so the fault path is correct at the cost of
//     recycling — acceptable, because fault runs measure behaviour, not
//     throughput.
var msgPool = sync.Pool{New: func() any { return new(Message) }}

// NewPooledMessage freezes the contents of w into a recycled Message. The
// writer can be reused afterwards. Semantically identical to NewMessage;
// the only contract change is ownership: the returned message must be
// handed to the simulator (returned from Process.Round) and not retained
// by the sender, because the simulator returns it to the pool one round
// after delivery. Protocol code that stores messages across rounds must
// keep using NewMessage. A pooled message sent on no port is never
// delivered, so it falls to the garbage collector — unless it went through
// Broadcast, which recycles it at once.
func NewPooledMessage(w *wire.Writer) *Message {
	m := msgPool.Get().(*Message)
	m.pooled = true
	m.free = false
	b := w.Bytes()
	if cap(m.data) < len(b) {
		// Room for any CONGEST payload, so a message recycled from a
		// protocol with one-bit payloads still fits the next protocol's.
		m.data = make([]byte, len(b), max(len(b), wire.CongestBytes))
	} else {
		m.data = m.data[:len(b)]
	}
	copy(m.data, b)
	m.bitN = w.Len()
	return m
}

// releaseSent returns every message of a sent list to the pool and hands
// back the emptied list. The caller has already cleared the slab the
// messages were delivered into.
func releaseSent(sent []*Message) []*Message {
	for _, m := range sent {
		msgPool.Put(m)
	}
	clear(sent)
	return sent[:0]
}
