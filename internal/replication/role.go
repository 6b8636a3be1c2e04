package replication

import (
	"errors"
	"fmt"

	"nnexus/internal/wire"
)

// Role is what this process is to its replication group: an election-managed
// Node (either role over its lifetime), a static Primary, a static Follower,
// or — the zero value — a single node. At most one field is set. It is the
// only place that tells the four apart: the serving layers and the facade ask
// it who may write, whom to stream from and what to report.
type Role struct {
	Node     *Node
	Primary  *Primary
	Follower *Follower
}

// NotPrimaryError rejects a mutation that reached a node which may not
// write. The request was not executed, so the client may send the very same
// request to Leader.
type NotPrimaryError struct {
	Leader string // where writes should go; "" when unknown (mid-election)
	reason string
}

func (e *NotPrimaryError) Error() string { return "not primary: " + e.reason }

// CurrentPrimary returns the primary surface serving the repl* streams and
// quorum waits right now: the node's (nil while it follows) or the static one.
func (r Role) CurrentPrimary() *Primary {
	if r.Node != nil {
		return r.Node.CurrentPrimary()
	}
	return r.Primary
}

// CurrentFollower returns the follower loop feeding this process right now
// (nil on a primary or a single node).
func (r Role) CurrentFollower() *Follower {
	if r.Node != nil {
		return r.Node.CurrentFollower()
	}
	return r.Follower
}

// CheckWritable lets a mutation execute (nil) on a primary or a single node
// and answers a *NotPrimaryError naming the leader anywhere else. A node
// demoted by fencing counts it: a stale primary would have accepted the write.
func (r Role) CheckWritable() error {
	switch {
	case r.Node != nil:
		if r.Node.IsPrimary() {
			return nil
		}
		if r.Node.Fenced() {
			r.Node.CountFenced()
		}
		return &NotPrimaryError{Leader: r.Node.LeaderAddr(),
			reason: fmt.Sprintf("this node follows epoch %d", r.Node.Epoch())}
	case r.Follower != nil:
		return &NotPrimaryError{Leader: r.Follower.Leader(), reason: "this node is a read replica"}
	}
	return nil
}

// WireStatus answers replStatus: the replication position (under an elected
// node's election epoch, a static role's storage epoch) and the leader address.
func (r Role) WireStatus() (*wire.ReplPayload, string) {
	switch {
	case r.Node != nil:
		return r.Node.WireStatus()
	case r.Primary != nil:
		return r.Primary.Status(), ""
	case r.Follower != nil:
		return r.Follower.WireStatus(), r.Follower.Leader()
	}
	return &wire.ReplPayload{Role: RoleSingle}, ""
}

// Elector returns the node that answers the election exchanges (replVote,
// replLead), which only a member of a failover cluster takes part in.
func (r Role) Elector() (*Node, error) {
	if r.Node == nil {
		return nil, errors.New("node is not in a failover cluster")
	}
	return r.Node, nil
}

// Stop ends the background loops of whichever role is set.
func (r Role) Stop() {
	if r.Node != nil {
		r.Node.Stop()
	}
	if r.Follower != nil {
		r.Follower.Stop()
	}
}

// ElectionInfo reports the failover state machine; nil outside a cluster.
func (r Role) ElectionInfo() map[string]interface{} {
	if r.Node == nil {
		return nil
	}
	return r.Node.Info()
}

// Info reports the replication position for readiness probes: role, epoch
// and head, plus per-follower lag on a primary and applied offset, lag and
// sync state on a follower.
func (r Role) Info() map[string]interface{} {
	if p := r.CurrentPrimary(); p != nil {
		st := p.Status()
		lags := p.FollowerLags()
		followers := make(map[string]interface{}, len(lags))
		var maxLag uint64
		for name, lag := range lags {
			followers[name] = lag
			if lag > maxLag {
				maxLag = lag
			}
		}
		return map[string]interface{}{
			"role":      st.Role,
			"epoch":     st.Epoch,
			"head":      st.Head,
			"followers": followers,
			"maxLag":    maxLag,
		}
	}
	if f := r.CurrentFollower(); f != nil {
		st := f.Status()
		info := map[string]interface{}{
			"role":    st.Role,
			"epoch":   st.Epoch,
			"applied": st.Applied,
			"head":    st.Head,
			"lag":     st.Lag(),
			"synced":  st.Synced,
			"leader":  st.Leader,
		}
		if st.Err != "" {
			info["error"] = st.Err
		}
		return info
	}
	if r.Node != nil {
		// Mid-transition (between roles): report the election view.
		return map[string]interface{}{"role": r.Node.Role(), "epoch": r.Node.Epoch()}
	}
	return map[string]interface{}{"role": RoleSingle}
}
