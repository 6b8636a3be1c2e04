package replication

import "nnexus/internal/clock"

// Status is what a node reports of its replication, read at one instant: its
// role and the leader it recognizes, its two epochs, its place in the WAL
// history and, on a primary, how far behind each follower is. replStatus and
// the leader hint of a staleEpoch reply are projections of it; marshalled to
// JSON it is the "replication" component of /readyz, and Election the
// "election" one.
type Status struct {
	// Role is RolePrimary, RoleFollower or RoleSingle.
	Role string `json:"role"`
	// Leader is the primary this node recognizes: itself on a primary, ""
	// while none is known and on a single node.
	Leader string `json:"leader"`
	// Term is the election epoch, the newest leadership term the node has
	// seen. replStatus and the election exchanges carry it as their epoch.
	Term uint64 `json:"-"`
	// Epoch is the history epoch, naming one continuous streamed WAL history:
	// on a primary and between roles the store's own, on a follower the one
	// its state is synced under. A follower whose Epoch is not its primary's
	// re-bootstraps from a snapshot.
	Epoch uint64 `json:"epoch"`
	// Head is the newest record of that history: the store's on a primary
	// and between roles, the primary's as last observed on a follower.
	Head uint64 `json:"head"`
	// Applied is the newest record the node's engine has applied: a read
	// served here sees every write up to it.
	Applied uint64 `json:"applied"`
	// Lag is Head - Applied.
	Lag uint64 `json:"lag"`
	// Synced says Head is current: always on a primary and a single node, on
	// a follower while its last exchange with the primary succeeded, never
	// between roles.
	Synced bool `json:"synced"`
	// Error is a follower's last sync error.
	Error string `json:"error,omitempty"`
	// Followers is, on a primary, each acknowledging follower's lag in records
	// behind Head, and MaxLag the largest of them.
	Followers map[string]uint64 `json:"followers"`
	MaxLag    uint64            `json:"maxLag"`
	// Election is the failover state of a node in a failover cluster, nil
	// on any other.
	Election *ElectionStatus `json:"-"`
}

// ElectionStatus is the failover part of a Status. Role, Term and Leader
// repeat the Status's, so that the "election" component of /readyz reads on
// its own.
type ElectionStatus struct {
	Role   string `json:"role"`
	Term   uint64 `json:"epoch"`
	Leader string `json:"leader"`
	// Fenced says the node was demoted by fencing and has not won an
	// election since: its unshipped writes are being discarded.
	Fenced bool `json:"fenced"`
	// Elections counts the elections the node stood in, VotesSeen the votes
	// its latest one gathered, and VotedFor the candidate it granted its vote
	// in Term ("" for none).
	Elections int64  `json:"elections"`
	VotesSeen int    `json:"votesSeen"`
	VotedFor  string `json:"votedFor,omitempty"`
	// Peers is the number of other cluster members.
	Peers int `json:"peers"`
	// LastLeaderContactSeconds is the time since the freshest evidence of a
	// live leader: a vote granted, a leadership announced, a replication
	// exchange.
	LastLeaderContactSeconds float64 `json:"lastLeaderContactSeconds"`
}

// Status reads the node's replication state under its lock, so no role flip
// lands between its parts. A nil node is a single node.
func (n *Node) Status() Status {
	if n == nil {
		return Status{Role: RoleSingle, Synced: true}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	st := Status{Role: n.role, Leader: n.leader, Term: n.term}
	switch {
	case n.primary != nil:
		n.primary.status(&st)
	case n.follower != nil:
		n.follower.status(&st)
	default: // between roles
		st.Epoch, st.Head = n.cfg.Store.ReplicationEpoch(), n.cfg.Store.ReplicationHead()
		st.Applied = st.Head
	}
	if n.clustered() {
		st.Election = &ElectionStatus{
			Role: n.role, Term: n.term, Leader: n.leader,
			Fenced:                   n.fenced,
			Elections:                n.elections,
			VotesSeen:                n.lastVotes,
			VotedFor:                 n.votedFor,
			Peers:                    len(n.peers),
			LastLeaderContactSeconds: clock.Now().Sub(n.lastHeardLocked()).Seconds(),
		}
	}
	return st
}
