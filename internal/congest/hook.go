package congest

import (
	"fmt"

	"distmwis/internal/graph"
)

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
// order, and each sender delivers in its own step, so the hook sees every
// message at the same deterministic point and an execution under a given
// hook is identical for every requested worker count.
//
// Begin is called once per Run, before round 1, with the graph being run;
// a hook keys random decisions by node ID (g.ID), never by index. State
// reports node availability; it must be pure (same answer for the
// same arguments throughout a run). Deliver is called sequentially, in
// deterministic (sender, port) order, once per sent message whose receiver
// is up; it returns the message to deliver (nil = lost) and whether a
// duplicate copy of the original should additionally arrive one round
// later. m is valid only during the call, so a hook that keeps a payload
// copies it. A rewritten payload must keep the original bit length; the
// simulator verifies a wire.Checksum over the payload and discards any
// message whose checksum no longer matches (detectable corruption).
type DeliveryHook interface {
	Begin(g *graph.Graph)
	State(round, v int) NodeState
	Deliver(round, from, to int, m *Message) (out *Message, dup bool)
}

// WithFaults installs a delivery hook (typically a *fault.Injector). When a
// hook is installed, NodeInfo.Faulty is true, which protocols use to enable
// defensive message formats whose cost is only justified under faults.
func WithFaults(hook DeliveryHook) Option { return func(c *config) { c.hook = hook } }

// TruncationError reports that a protocol exceeded the round limit set by
// WithMaxRounds. It wraps ErrRoundLimit, so errors.Is(err, ErrRoundLimit)
// continues to hold, and carries the partial Result — Outputs is fully
// populated from every node's state at the moment the limit fired — so
// callers that can use a best-effort answer are not left empty-handed.
type TruncationError struct {
	// Limit is the round limit that fired.
	Limit int
	// Partial is the truncated execution's Result. Outputs is always
	// populated (never nil entries beyond what Output() itself returns)
	// and Truncated is set.
	Partial *Result
}

func (e *TruncationError) Error() string {
	return fmt.Sprintf("%v: %d rounds", ErrRoundLimit, e.Limit)
}

func (e *TruncationError) Unwrap() error { return ErrRoundLimit }
