// Leader election and stale-primary fencing: a Node is one process's place in
// its replication group — primary or follower — and, given peers, makes it
// self-healing; a node without peers keeps the role it booted in. Followers
// that lose contact with the primary beyond a tolerance window propose
// themselves with an incremented election epoch and their applied WAL offset;
// a voter grants at most one vote per epoch, and only to candidates at least
// as caught up as itself, so the winner of a majority provably holds every
// quorum-acknowledged record. The winner persists the won epoch, promotes its
// store/engine/server stack from read-only follower to writable primary, and
// announces itself; every other node retargets its replication stream.
//
// Fencing is epoch-monotonic: election epochs only grow, are persisted before
// they are used (vote-before-reply, claim-before-request), and every vote or
// leadership message carries one. A deposed primary that returns sees the
// higher epoch on its first contact with any peer — a vote request, a
// replLead announcement, or its own watchdog probe — and demotes: it drains
// its subscriber surface, detaches the engine from its store, and re-joins as
// a follower, whose snapshot bootstrap truncates the unshipped WAL suffix
// that never reached a quorum. A stale epoch is rejected with a typed error
// at the wire layer, so split-brain is structurally impossible rather than
// merely unlikely.
package replication

import (
	"cmp"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"nnexus/internal/clock"
	"nnexus/internal/storage"
	"nnexus/internal/telemetry"
	"nnexus/internal/wire"
)

// voteFileName persists the node's election epoch and vote (a state file of
// its store) BEFORE either is acted on, so a restarted node can never vote
// twice in one epoch or claim a leadership it already ceded.
const voteFileName = "election.epoch"

// DefaultElectionTimeout is the primary-silence tolerance window: a follower
// that has not heard from its primary for longer (plus jitter) starts an
// election.
const DefaultElectionTimeout = 2 * time.Second

// ErrStaleEpoch reports a replication or leadership message carrying an
// election epoch older than the receiver's: the sender has been deposed (or
// lost the election) and must demote. The server layer maps it to the wire
// code staleEpoch.
var ErrStaleEpoch = errors.New("replication: stale epoch")

// Peer is a Node's view of one other cluster member: the follower replication
// exchanges plus the election and status methods. *client.Client implements
// it.
type Peer interface {
	Source
	ReplVote(epoch, offset uint64, candidate string) (*wire.ReplPayload, error)
	ReplLead(epoch uint64, leader string) error
	ReplStatus() (*wire.ReplPayload, string, error)
	Close() error
}

// StoreBinder flips an engine between its two replication postures: attached
// to a store (primary — local writes persist and replicate) and detached
// (follower — state is fed exclusively by the replication stream).
// *core.Engine implements it.
type StoreBinder interface {
	AttachStore(st *storage.Store)
	DetachStore()
}

// NodeConfig assembles a Node.
type NodeConfig struct {
	// Self is this node's advertised address — what peers dial and what its
	// votes and leadership claims carry. Required with Peers.
	Self string
	// Peers are the other cluster members' advertised addresses (Self is
	// filtered out defensively). Majorities are computed over len(Peers)+1.
	// A node without peers never stands, votes or probes: it stays the
	// primary, or the follower of InitialLeader, it was started as.
	Peers []string
	// Store is the node's durable state, and keeps the node's election epoch
	// and vote beside its WAL. A node that can ever serve the replication
	// log — it starts as primary, or has peers and may win — needs it opened
	// with storage.WithReplication.
	Store *storage.Store
	// Applier feeds replicated records to the engine while following.
	Applier Applier
	// Binder attaches/detaches the engine's store across role flips.
	Binder StoreBinder
	// Dial connects to a peer or to InitialLeader; it must not block on an
	// unreachable address (connect lazily, like client.New). The node closes
	// what it dialed when it stops.
	Dial func(addr string) (Peer, error)
	// InitialPrimary starts the node as the serving primary; otherwise it
	// starts as a follower of InitialLeader (or, with no leader known, runs
	// an election after the first timeout).
	InitialPrimary bool
	InitialLeader  string
	// ElectionTimeout is the primary-silence tolerance window (default
	// DefaultElectionTimeout). Candidates re-arm with jitter in
	// [timeout, 1.5·timeout] so simultaneous timeouts desynchronize.
	ElectionTimeout time.Duration
	// Name is what the node's followers identify themselves with to the
	// primary ("" is the local hostname), and Wait the long-poll duration
	// they request (0 is 5s); see NewFollower.
	Name string
	Wait time.Duration
	// Telemetry registers nnexus_replication_epoch, nnexus_elections_total
	// and nnexus_fenced_requests_total, and each primary the node becomes
	// registers its lag gauge and quorum histogram (see NewPrimary), on one
	// registry (nil registers on a private one).
	Telemetry *telemetry.Registry
}

// Node is one replication-group member's state machine. It owns the node's
// Primary or Follower (swapping them as roles flip) and answers for the node
// wherever the serving layers ask: who may write, the repl* exchanges, the
// readiness reports. A nil *Node is a single node that replicates nothing.
type Node struct {
	cfg     NodeConfig
	peers   []string // cfg.Peers without Self
	timeout time.Duration

	telEpoch     *telemetry.Gauge
	telElections *telemetry.Counter
	telFenced    *telemetry.Counter

	// transMu serializes role transitions (election, promote, demote); it is
	// always acquired before mu and never while holding it.
	transMu sync.Mutex

	mu        sync.Mutex
	started   bool
	role      string
	term      uint64 // current election epoch (highest seen)
	votedFor  string // candidate granted in term ("" = none)
	leader    string
	primary   *Primary
	follower  *Follower
	fenced    bool // demoted by fencing; cleared on winning an election
	lastHeard time.Time
	lastVotes int // votes gathered in the most recent election
	elections int64
	stopped   bool

	peerMu  sync.Mutex
	peerCli map[string]Peer

	startOnce sync.Once
	stopOnce  sync.Once
	stopCh    chan struct{}
	doneCh    chan struct{}
}

// NewNode assembles a node in its initial role. Call Start to begin the
// election loop.
func NewNode(cfg NodeConfig) (*Node, error) {
	n := &Node{
		cfg:       cfg,
		timeout:   cfg.ElectionTimeout,
		peerCli:   make(map[string]Peer),
		lastHeard: clock.Now(),
		stopCh:    make(chan struct{}),
		doneCh:    make(chan struct{}),
	}
	if n.timeout <= 0 {
		n.timeout = DefaultElectionTimeout
	}
	for _, addr := range cfg.Peers {
		if addr != "" && addr != cfg.Self {
			n.peers = append(n.peers, addr)
		}
	}
	if n.clustered() && cfg.Self == "" {
		return nil, errors.New("replication: node needs a self address")
	}
	if cfg.Store == nil {
		return nil, errors.New("replication: node needs a store")
	}
	if (cfg.InitialPrimary || n.clustered()) && !cfg.Store.ReplicationEnabled() {
		return nil, errors.New("replication: node store must be opened with WithReplication")
	}
	if cfg.Dial == nil && (n.clustered() || cfg.InitialLeader != "") {
		return nil, errors.New("replication: node needs a dial function")
	}
	var err error
	if n.term, n.votedFor, err = n.loadVote(); err != nil {
		return nil, err
	}
	n.cfg.Telemetry = cmp.Or(cfg.Telemetry, telemetry.NewRegistry())
	reg := n.cfg.Telemetry
	n.telEpoch = reg.Gauge("nnexus_replication_epoch",
		"Current election epoch (leadership term) of this node.")
	n.telElections = reg.Counter("nnexus_elections_total",
		"Elections this node has started as a candidate.")
	n.telFenced = reg.Counter("nnexus_fenced_requests_total",
		"Requests rejected because they carried (or arrived at) a stale epoch.")
	n.telEpoch.Set(int64(n.term))
	if cfg.InitialPrimary {
		p, err := NewPrimary(cfg.Store, reg)
		if err != nil {
			return nil, err
		}
		n.role = RolePrimary
		n.leader = cfg.Self
		n.primary = p
		return n, nil
	}
	n.role = RoleFollower
	n.leader = cfg.InitialLeader
	if n.leader != "" {
		src, err := cfg.Dial(n.leader)
		if err != nil {
			return nil, fmt.Errorf("replication: dial initial leader: %w", err)
		}
		f, err := NewFollower(cfg.Store, cfg.Applier, src, cfg.Name, cfg.Wait)
		if err != nil {
			return nil, err
		}
		n.follower = f
		n.peerMu.Lock()
		n.peerCli[n.leader] = src
		n.peerMu.Unlock()
	}
	return n, nil
}

// Start seeds the initial follower (if any) and launches the election loop.
func (n *Node) Start() error {
	var startErr error
	n.startOnce.Do(func() {
		n.mu.Lock()
		n.started = true
		f := n.follower
		n.mu.Unlock()
		if f != nil {
			if startErr = f.Start(); startErr != nil {
				close(n.doneCh)
				return
			}
		}
		go n.run()
	})
	return startErr
}

// Stop terminates the election loop and the node's current role object, and
// closes every dialed peer.
func (n *Node) Stop() {
	if n == nil {
		return
	}
	n.stopOnce.Do(func() {
		// Consume the start once first: a Start racing this Stop either ran
		// to completion already (run() owns doneCh) or becomes a no-op and
		// doneCh is ours to close.
		n.startOnce.Do(func() {})
		n.mu.Lock()
		n.stopped = true
		started := n.started
		n.mu.Unlock()
		close(n.stopCh)
		if !started {
			close(n.doneCh)
		}
	})
	<-n.doneCh
	// The loop has exited and stopped is set, so no further transition can
	// install new role objects; taking transMu waits out an in-flight one.
	n.transMu.Lock()
	n.mu.Lock()
	f, p := n.follower, n.primary
	n.follower, n.primary = nil, nil
	n.mu.Unlock()
	n.transMu.Unlock()
	if f != nil {
		f.Stop()
	}
	if p != nil {
		p.Drain()
	}
	n.peerMu.Lock()
	clis := n.peerCli
	n.peerCli = make(map[string]Peer)
	n.peerMu.Unlock()
	for _, c := range clis {
		_ = c.Close()
	}
}

// run is the node's heartbeat: followers watch for primary silence and stand
// for election; primaries probe peers for a higher epoch that would mean they
// have been deposed while unreachable.
func (n *Node) run() {
	defer close(n.doneCh)
	// A (re)starting primary probes immediately: if the cluster moved on
	// while it was down, it discovers the higher epoch before serving long.
	if n.currentRole() == RolePrimary && len(n.peers) > 0 {
		n.watchdog()
	}
	tick := n.timeout / 8
	if tick < 2*time.Millisecond {
		tick = 2 * time.Millisecond
	}
	armed := n.jitteredTimeout()
	lastProbe := clock.Now()
	timer := clock.NewTimer(tick)
	defer timer.Stop()
	for ; ; timer.Reset(tick) {
		select {
		case <-n.stopCh:
			return
		case <-timer.C:
		}
		switch n.currentRole() {
		case RoleFollower:
			if len(n.peers) == 0 {
				continue // nobody to ask for votes
			}
			if clock.Now().Sub(n.lastHeardTime()) >= armed {
				n.runElection()
				n.touchHeard()
				armed = n.jitteredTimeout()
			}
		case RolePrimary:
			if len(n.peers) > 0 && clock.Now().Sub(lastProbe) >= n.timeout {
				lastProbe = clock.Now()
				n.watchdog()
			}
		}
	}
}

// jitteredTimeout returns the silence window before the next candidacy:
// uniformly in [timeout, 1.5·timeout], so two followers that lose the primary
// at the same instant rarely collide — and a collided (split) vote resolves
// on the next differently-jittered retry at a higher epoch.
func (n *Node) jitteredTimeout() time.Duration {
	return n.timeout + time.Duration(rand.Int63n(int64(n.timeout/2)+1))
}

// lastHeardTime is the freshest evidence of a live, current leader: the
// node's own accounting (vote grants, leadership announcements) or the
// follower loop's last successful exchange.
func (n *Node) lastHeardTime() time.Time {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.lastHeardLocked()
}

// lastHeardLocked is lastHeardTime for callers holding n.mu.
func (n *Node) lastHeardLocked() time.Time {
	if n.follower != nil {
		if lc := n.follower.LastContact(); lc.After(n.lastHeard) {
			return lc
		}
	}
	return n.lastHeard
}

func (n *Node) touchHeard() {
	n.mu.Lock()
	n.lastHeard = clock.Now()
	n.mu.Unlock()
}

// runElection stands for election: bump and persist the epoch, vote for
// self, and ask every peer in parallel. A majority promotes; a rejection
// naming a higher epoch adopts it (so the next candidacy jumps past every
// vote already spent).
func (n *Node) runElection() {
	n.transMu.Lock()
	defer n.transMu.Unlock()
	n.mu.Lock()
	if n.stopped || n.role != RoleFollower {
		n.mu.Unlock()
		return
	}
	n.term++
	cand := n.term
	n.votedFor = n.cfg.Self
	n.elections++
	n.lastVotes = 1
	if err := n.saveVoteLocked(); err != nil {
		n.mu.Unlock()
		log.Printf("replication: election %d aborted, cannot persist vote: %v", cand, err)
		return
	}
	applied := n.cfg.Store.ReplicationHead()
	n.mu.Unlock()
	n.telElections.Inc()
	n.telEpoch.Set(int64(cand))
	log.Printf("replication: standing for election, epoch %d, applied offset %d", cand, applied)

	type ballot struct {
		granted bool
		term    uint64
	}
	results := make(chan ballot, len(n.peers))
	for _, addr := range n.peers {
		go func(addr string) {
			p, err := n.getPeer(addr)
			if err != nil {
				results <- ballot{}
				return
			}
			pay, err := p.ReplVote(cand, applied, n.cfg.Self)
			if err != nil || pay == nil {
				results <- ballot{}
				return
			}
			results <- ballot{granted: pay.Granted, term: pay.Epoch}
		}(addr)
	}
	votes := 1 // self
	quorum := (len(n.peers)+1)/2 + 1
	var higher uint64
	for i := 0; i < len(n.peers) && votes < quorum; i++ {
		select {
		case b := <-results:
			if b.granted {
				votes++
			} else if b.term > cand && b.term > higher {
				higher = b.term
			}
		case <-n.stopCh:
			return
		}
	}
	n.mu.Lock()
	n.lastVotes = votes
	if higher > n.term {
		n.term = higher
		n.votedFor = ""
		_ = n.saveVoteLocked()
	}
	n.mu.Unlock()
	if votes < quorum {
		log.Printf("replication: election for epoch %d failed (%d/%d votes)", cand, votes, quorum)
		return
	}
	n.promote(cand)
}

// promote flips the node to primary after winning epoch `won`: the follower
// loop stops, the store adopts a fresh storage epoch strictly above anything
// its future subscribers synced under (so each of them re-bootstraps — the
// mechanism that truncates a deposed primary's unshipped WAL suffix), the
// engine re-attaches to the store, and the win is announced to every peer.
// Callers hold transMu.
func (n *Node) promote(won uint64) {
	n.mu.Lock()
	if n.stopped || n.role != RoleFollower || n.term != won || n.votedFor != n.cfg.Self {
		n.mu.Unlock()
		return
	}
	f := n.follower
	n.follower = nil
	n.mu.Unlock()
	var syncedUnder uint64
	if f != nil {
		syncedUnder = f.Epoch()
		f.Stop()
	}
	st := n.cfg.Store
	newStorage := st.ReplicationEpoch() + 1
	if syncedUnder >= newStorage {
		newStorage = syncedUnder + 1
	}
	if err := st.SetReplicationEpoch(newStorage); err != nil {
		log.Printf("replication: promotion to epoch %d failed installing storage epoch: %v", won, err)
		return
	}
	p, err := NewPrimary(st, n.cfg.Telemetry)
	if err != nil {
		log.Printf("replication: promotion to epoch %d failed: %v", won, err)
		return
	}
	if n.cfg.Binder != nil {
		n.cfg.Binder.AttachStore(st)
	}
	n.mu.Lock()
	n.role = RolePrimary
	n.leader = n.cfg.Self
	n.primary = p
	n.fenced = false
	n.lastHeard = clock.Now()
	n.mu.Unlock()
	log.Printf("replication: won election, serving as primary for epoch %d (storage epoch %d)", won, newStorage)
	for _, addr := range n.peers {
		go func(addr string) {
			if peer, err := n.getPeer(addr); err == nil {
				_ = peer.ReplLead(won, n.cfg.Self)
			}
		}(addr)
	}
}

// demoteTo fences a deposed primary: callers invoke it with evidence of a
// leadership epoch at least as new as this node's. The primary surface
// drains (waking blocked subscribes and quorum waiters), the engine detaches
// from the store, and the node re-joins as a follower of leaderAddr — whose
// snapshot bootstrap truncates whatever WAL suffix this node applied but
// never shipped to a quorum. An empty leaderAddr (epoch known, winner not
// yet) leaves the node leaderless; the election loop takes over.
func (n *Node) demoteTo(epoch uint64, leaderAddr string) {
	n.transMu.Lock()
	defer n.transMu.Unlock()
	n.mu.Lock()
	if n.stopped || n.role != RolePrimary {
		n.mu.Unlock()
		return
	}
	prim := n.primary
	n.primary = nil
	n.role = RoleFollower
	if epoch > n.term {
		n.term = epoch
		n.votedFor = ""
	}
	n.leader = leaderAddr
	n.fenced = true
	n.lastHeard = clock.Now()
	_ = n.saveVoteLocked()
	n.mu.Unlock()
	n.telEpoch.Set(int64(epoch))
	log.Printf("replication: fenced — epoch %d held by %q supersedes this primary; demoting to follower", epoch, leaderAddr)
	if prim != nil {
		prim.Drain()
	}
	if n.cfg.Binder != nil {
		n.cfg.Binder.DetachStore()
	}
	if leaderAddr == "" || leaderAddr == n.cfg.Self {
		return
	}
	n.buildFollower(leaderAddr)
}

// buildFollower starts a follower loop toward leaderAddr and installs it.
// Callers hold transMu.
func (n *Node) buildFollower(leaderAddr string) {
	src, err := n.getPeer(leaderAddr)
	if err != nil {
		log.Printf("replication: cannot dial new leader %q: %v", leaderAddr, err)
		return
	}
	f, err := NewFollower(n.cfg.Store, n.cfg.Applier, src, n.cfg.Name, n.cfg.Wait)
	if err != nil {
		log.Printf("replication: cannot follow new leader %q: %v", leaderAddr, err)
		return
	}
	if err := f.Start(); err != nil {
		log.Printf("replication: cannot follow new leader %q: %v", leaderAddr, err)
		return
	}
	n.mu.Lock()
	if n.stopped || n.role != RoleFollower || n.follower != nil {
		n.mu.Unlock()
		f.Stop()
		return
	}
	n.follower = f
	n.mu.Unlock()
}

// watchdog probes every peer's replStatus for deposition evidence: an epoch
// above this node's own, or another node claiming the primary role at this
// node's very epoch when this node never won that epoch's election (its
// persisted vote names someone else, or nobody) — the latter catches a
// leadership this node merely adopted rather than won, where epochs alone
// cannot tell the two primaries apart. Either sighting fences this node.
func (n *Node) watchdog() {
	n.mu.Lock()
	myTerm := n.term
	wonTerm := n.votedFor == n.cfg.Self
	n.mu.Unlock()
	type sighting struct {
		epoch  uint64
		role   string
		leader string
	}
	results := make(chan sighting, len(n.peers))
	for _, addr := range n.peers {
		go func(addr string) {
			p, err := n.getPeer(addr)
			if err != nil {
				results <- sighting{}
				return
			}
			pay, leader, err := p.ReplStatus()
			if err != nil || pay == nil {
				results <- sighting{}
				return
			}
			if pay.Role == RolePrimary {
				leader = addr
			}
			results <- sighting{epoch: pay.Epoch, role: pay.Role, leader: leader}
		}(addr)
	}
	for range n.peers {
		var s sighting
		select {
		case s = <-results:
		case <-n.stopCh:
			return
		}
		if s.epoch > myTerm || (s.role == RolePrimary && s.epoch == myTerm && !wonTerm) {
			n.demoteTo(s.epoch, s.leader)
			return
		}
	}
}

// HandleVote answers one replVote exchange. A vote is granted when the
// proposed epoch is newer than any this node has seen (or repeats its own
// current vote — retries are idempotent) AND the candidate's applied offset
// is at least this node's own: a majority of such grants proves the winner
// holds every record any quorum acknowledged. The grant is persisted before
// it is returned. Rejections carry this node's epoch and offset so the
// candidate can tell why it lost.
func (n *Node) HandleVote(epoch, offset uint64, candidate string) *wire.ReplPayload {
	for {
		pay, stepDown := n.handleVote(epoch, offset, candidate)
		if !stepDown {
			return pay
		}
		// A serving primary about to GRANT a higher-epoch vote is conceding
		// that a fresh candidate is gathering a majority: it must step down
		// before the grant is released (as a Raft leader does), because
		// granting while continuing to serve manufactures a dual primary the
		// moment the candidate wins — and if the winner's single replLead
		// announcement were then lost, only the watchdog's primary-claim rule
		// would remain to fence this node. A candidate refused on freshness
		// does NOT depose the leader (it cannot win a majority this node's
		// records are required for), which keeps a flapping, behind follower
		// from disrupting a healthy leadership.
		n.demoteTo(epoch, "")
	}
}

// handleVote evaluates one vote request. It reports stepDown (with a nil
// payload) when the caller must demote a serving primary and re-evaluate.
func (n *Node) handleVote(epoch, offset uint64, candidate string) (*wire.ReplPayload, bool) {
	applied := n.cfg.Store.ReplicationHead()
	n.mu.Lock()
	defer n.mu.Unlock()
	reject := &wire.ReplPayload{Role: n.role, Epoch: n.term, Applied: applied}
	if n.stopped || candidate == "" {
		return reject, false
	}
	if epoch < n.term {
		// A candidate from a past epoch: fence it.
		n.telFenced.Inc()
		return reject, false
	}
	if epoch == n.term && n.votedFor != "" && n.votedFor != candidate {
		return reject, false // one vote per epoch
	}
	if epoch > n.term {
		// Adopt the newer epoch even when refusing the candidate on
		// freshness, so this node never regresses behind the cluster. (A
		// primary adopting-but-refusing keeps serving; if the candidate
		// somehow wins anyway, HandleLead's equal-epoch demotion or the
		// watchdog's primary-claim rule fences this node.)
		n.term = epoch
		n.votedFor = ""
		_ = n.saveVoteLocked()
		n.telEpoch.Set(int64(epoch))
		reject.Epoch = epoch
	}
	if offset < applied {
		return reject, false // candidate is missing records this node holds
	}
	if n.role == RolePrimary {
		return nil, true // step down before releasing the grant
	}
	n.votedFor = candidate
	if err := n.saveVoteLocked(); err != nil {
		return reject, false // an unpersisted vote must not be released
	}
	n.lastHeard = clock.Now()
	return &wire.ReplPayload{Role: n.role, Granted: true, Epoch: epoch, Applied: applied}, false
}

// HandleLead answers one replLead exchange — a freshly promoted primary
// announcing its won epoch. A claim older than this node's epoch (or
// conflicting with its own standing leadership of the same epoch) is fenced
// with ErrStaleEpoch; a current one is adopted: a deposed primary demotes,
// a follower retargets its replication stream at the new leader.
func (n *Node) HandleLead(epoch uint64, leaderAddr string) error {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return fmt.Errorf("%w: node stopped", ErrStaleEpoch)
	}
	if epoch < n.term ||
		(epoch == n.term && n.role == RolePrimary && n.votedFor == n.cfg.Self) {
		cur := n.term
		n.telFenced.Inc()
		n.mu.Unlock()
		return fmt.Errorf("%w: leadership claim for epoch %d, current epoch is %d", ErrStaleEpoch, epoch, cur)
	}
	if n.role == RolePrimary {
		n.mu.Unlock()
		n.demoteTo(epoch, leaderAddr)
		return nil
	}
	if epoch > n.term {
		n.term = epoch
		n.votedFor = ""
		n.telEpoch.Set(int64(epoch))
	}
	prevLeader := n.leader
	n.leader = leaderAddr
	n.lastHeard = clock.Now()
	_ = n.saveVoteLocked()
	f := n.follower
	n.mu.Unlock()
	if leaderAddr == "" || leaderAddr == prevLeader && f != nil {
		return nil
	}
	if f != nil {
		if src, err := n.getPeer(leaderAddr); err == nil {
			f.Retarget(src)
		}
		return nil
	}
	n.transMu.Lock()
	defer n.transMu.Unlock()
	n.mu.Lock()
	ok := !n.stopped && n.role == RoleFollower && n.follower == nil
	n.mu.Unlock()
	if ok {
		n.buildFollower(leaderAddr)
	}
	return nil
}

// clustered reports whether the node has peers to elect among; without any
// it never stands, votes or probes.
func (n *Node) clustered() bool { return n != nil && len(n.peers) > 0 }

// currentRole returns the node's role (RolePrimary or RoleFollower).
func (n *Node) currentRole() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// CheckWritable lets a mutation execute (nil) on a primary or a single node
// and answers a *NotPrimaryError naming the leader anywhere else. A node
// demoted by fencing counts it: a stale primary would have accepted the write.
func (n *Node) CheckWritable() error {
	if n == nil {
		return nil
	}
	n.mu.Lock()
	role, leader, term, fenced := n.role, n.leader, n.term, n.fenced
	n.mu.Unlock()
	switch {
	case role == RolePrimary:
		return nil
	case !n.clustered():
		return &NotPrimaryError{Leader: leader, reason: "this node is a read replica"}
	}
	if fenced {
		n.telFenced.Inc()
	}
	return &NotPrimaryError{Leader: leader, reason: fmt.Sprintf("this node follows epoch %d", term)}
}

// Elector returns the node when it answers the election exchanges (replVote,
// replLead), which only a member of a failover cluster takes part in.
func (n *Node) Elector() (*Node, error) {
	if !n.clustered() {
		return nil, errors.New("node is not in a failover cluster")
	}
	return n, nil
}

// CurrentPrimary returns the primary surface serving the repl* streams and
// quorum waits right now (nil while the node follows, and on a single node).
func (n *Node) CurrentPrimary() *Primary {
	if n == nil {
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.primary
}

// getPeer returns a (cached) connection to addr, dialing lazily.
func (n *Node) getPeer(addr string) (Peer, error) {
	n.peerMu.Lock()
	defer n.peerMu.Unlock()
	if p, ok := n.peerCli[addr]; ok {
		return p, nil
	}
	p, err := n.cfg.Dial(addr)
	if err != nil {
		return nil, err
	}
	n.peerCli[addr] = p
	return p, nil
}

// saveVoteLocked persists the current epoch and vote. Callers hold n.mu.
// Persist-before-act is what makes a restarted node unable to vote twice in
// one epoch, which holds because the store writes the file atomically and
// durably: a crash leaves either the old vote or the new one.
func (n *Node) saveVoteLocked() error {
	if err := n.cfg.Store.SaveState(voteFileName, func(b []byte) []byte {
		return fmt.Appendf(b, "%d\n%s\n", n.term, n.votedFor)
	}); err != nil {
		return fmt.Errorf("replication: persist vote: %w", err)
	}
	return nil
}

// loadVote reads the persisted epoch and vote (0, "" when the file has never
// been written). An existing but unparsable file is an error, not a fresh
// start: silently voting from (0, "") in an epoch this node already voted in
// is exactly the double-vote the persistence exists to prevent.
func (n *Node) loadVote() (term uint64, votedFor string, err error) {
	data, err := n.cfg.Store.LoadState(voteFileName)
	if data == nil || err != nil {
		return 0, "", err
	}
	const refuse = "refusing to rejoin with a reset vote — repair or remove the file after verifying the cluster's epoch"
	lines := strings.SplitN(string(data), "\n", 3)
	if len(lines) < 2 {
		return 0, "", fmt.Errorf("replication: persisted vote %s is corrupt (%d bytes); %s", voteFileName, len(data), refuse)
	}
	term, perr := strconv.ParseUint(strings.TrimSpace(lines[0]), 10, 64)
	if perr != nil {
		return 0, "", fmt.Errorf("replication: persisted vote %s is corrupt: %v; %s", voteFileName, perr, refuse)
	}
	return term, strings.TrimSpace(lines[1]), nil
}
