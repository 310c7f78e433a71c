package congest

import "distmwis/internal/graph"

// NodeState describes a node's availability in one round, as reported by a
// DeliveryHook. A node that is not up neither executes its Round step nor
// receives the messages arriving that round (its inbox slots stay empty).
type NodeState int

const (
	// NodeUp is normal operation.
	NodeUp NodeState = iota
	// NodeDown is a transient crash (crash-recovery): the node skips the
	// round but keeps its state and may come back later. Skipped rounds are
	// observable to the process as a gap in the round numbers it sees.
	NodeDown
	// NodeStopped is a permanent crash (crash-stop): the simulator marks
	// the node halted; its Output() reflects the state at crash time.
	NodeStopped
)

// DeliveryHook lets a fault injector intercept the simulator between send
// and receive. A run with a hook steps its nodes on one worker, in index
// order, and a send call delivers at once, so the hook sees every message
// at the same deterministic point and an execution under a given hook is
// identical for every requested worker count.
//
// Begin is called once per Run, before round 1, with the graph being run;
// a hook keys random decisions by node ID (g.ID), never by index. State
// reports node availability; it must be pure (same answer for the
// same arguments throughout a run). Deliver is called sequentially, in
// the deterministic order the senders make their sends (senders by index,
// a call's ports ascending), once per sent message whose receiver is up;
// a hook whose decisions are keyed by (round, sender, receiver) decides
// the same whatever that order. It returns the message to deliver (nil =
// lost) and whether a duplicate copy of the original should additionally
// arrive one round later. m is valid only during the call, so a hook that keeps a payload
// copies it. A rewritten payload must keep the original bit length; the
// simulator verifies a wire.Checksum over the payload and discards any
// message whose checksum no longer matches (detectable corruption).
type DeliveryHook interface {
	Begin(g *graph.Graph)
	State(round, v int) NodeState
	Deliver(round, from, to int, m *Message) (out *Message, dup bool)
}
