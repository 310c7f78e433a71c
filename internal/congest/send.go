package congest

import (
	"encoding/binary"
	"fmt"

	"distmwis/internal/graph"
	"distmwis/internal/wire"
)

// Sends are calls, made from Round: each checks the bandwidth once, loads
// the writer's payload words once and stores them straight into every
// receiver's slot for the next round (slots.go), tallying to the worker
// stepping the node. A second send on a port in one round, a port out of
// range or a payload over the bandwidth fails the run.

// Broadcast sends the contents of w on every port.
func (info *NodeInfo) Broadcast(w *wire.Writer) { info.send(nil, 0, info.Degree, w) }

// BroadcastTo sends the contents of w on the ports in ports, which must
// hold the node's degree; bits past it are ignored. An empty set sends
// nothing.
func (info *NodeInfo) BroadcastTo(ports graph.Bitset, w *wire.Writer) {
	if ports != nil {
		info.send(ports, 0, info.Degree, w)
	}
}

// Send sends the contents of w on port.
func (info *NodeInfo) Send(port int, w *wire.Writer) {
	if port < 0 || port >= info.Degree {
		info.fail(fmt.Errorf("congest: node %d sent on port %d but has degree %d", info.Index, port, info.Degree))
		return
	}
	info.send(nil, port, port+1, w)
}

// send sends w on the ports from..to-1 that are in mask (all of them when
// mask is nil).
func (info *NodeInfo) send(mask graph.Bitset, from, to int, w *wire.Writer) {
	if from >= to {
		return
	}
	if info.capture != nil {
		info.captureSend(mask, from, to, w)
		return
	}
	s, v := info.net, info.Index
	bits := w.Len()
	if s.physBandwidth > 0 && bits > s.physBandwidth {
		for p := from; p < to; p++ {
			if mask == nil || mask.Get(p) {
				info.fail(fmt.Errorf("congest: node %d port %d message of %d bits exceeds bandwidth %d: %w", v, p, bits, s.physBandwidth, ErrBandwidth))
				return
			}
		}
		return
	}
	wk := &s.ws[s.stepper[v]]
	if s.inbox.each {
		s.sendEach(wk, v, mask, from, to, NewMessage(w))
		return
	}
	lo, _ := s.g.Arcs(v)
	data := w.Bytes()
	var pl payload
	pl.load(data, bits)
	hdr := header(s.stamp, bits)
	slab, stride := s.inbox.slab[s.par], s.inbox.stride
	// Only a node's second call in a step can send on a port twice; it
	// finds the slot already stamped for the next round. A first call
	// skips the check, whose load would miss in the receiver's slab.
	wk.calls++
	again := wk.calls > 1
	sent := 0
	for i, arc := range s.rev[lo+from : lo+to] {
		if mask != nil && !mask.Get(from+i) {
			continue
		}
		slot := valueSlot(slab, stride, arc)
		if again && uint32(binary.LittleEndian.Uint64(slot[stride-headerBytes:])>>32) == s.stamp {
			wk.fail(v, secondSend(v, from+i))
			return
		}
		pl.store(slot, hdr, data)
		sent++
	}
	wk.tally(sent, bits)
}

// sendEach is send for the runs that send a message at a time, through
// heap slots or a delivery hook: a fault duplicate may already sit in a
// slot, so sentAt, not the slot, tells a second send.
func (s *simulator) sendEach(wk *worker, v int, mask graph.Bitset, from, to int, m *Message) {
	lo, _ := s.g.Arcs(v)
	sent := 0
	for p := from; p < to; p++ {
		if mask != nil && !mask.Get(p) {
			continue
		}
		a := lo + p
		if s.inbox.sentAt[a] == s.stamp {
			wk.fail(v, secondSend(v, p))
			return
		}
		s.inbox.sentAt[a] = s.stamp
		sent++
		out := m
		if s.cfg.Hook != nil {
			if out = s.deliverFaulty(s.round, v, p, s.rev[a], m); out == nil {
				continue
			}
		}
		s.inbox.put(s.par, s.rev[a], s.stamp, out)
	}
	wk.tally(sent, m.bitN)
}

// fail fails the run with the node's error; with captured sends it panics.
func (info *NodeInfo) fail(err error) {
	if info.capture != nil {
		panic(err.Error())
	}
	s := info.net
	s.ws[s.stepper[info.Index]].fail(info.Index, err)
}

func secondSend(v, port int) error {
	return fmt.Errorf("congest: node %d sent twice on port %d in one round", v, port)
}

// tally adds a send of bits bits on ports ports to the worker's counts.
func (w *worker) tally(ports, bits int) {
	if ports > 0 {
		w.messages += int64(ports)
		w.bits += int64(ports) * int64(bits)
		w.maxBits = max(w.maxBits, bits)
	}
}

// CaptureSends returns info with its sends collected in out, one message
// per port, instead of delivered; len(out) must be info.Degree. It is for
// a layer that runs a process inside its own (the reliable transport): the
// layer reads out after each Round and clears it before the next. A second
// send on a port before the clear, or a port out of range, panics.
func CaptureSends(info NodeInfo, out []*Message) NodeInfo {
	info.net, info.capture = nil, out
	return info
}

// captureSend is send into the capturing outbox: one heap message, shared
// by every port it goes to.
func (info *NodeInfo) captureSend(mask graph.Bitset, from, to int, w *wire.Writer) {
	m := NewMessage(w)
	for p := from; p < to; p++ {
		if mask == nil || mask.Get(p) {
			if info.capture[p] != nil {
				info.fail(secondSend(info.Index, p))
			}
			info.capture[p] = m
		}
	}
}
