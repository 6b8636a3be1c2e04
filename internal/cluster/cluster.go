// Package cluster boots N nodes on loopback the one way there is to boot
// them: bind every listener first, so that each node's configuration can name
// the others' addresses, then nnexus.New + ServeListener per node — the
// assembly every deployment gets. A node can be killed and restarted against
// its data directory and address. The experiments of cmd/nnexus-bench and the
// root chaos tests share it; it reports errors and knows nothing of testing.
package cluster

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"nnexus"
)

// Cluster is the nodes Start booted. Engines[i] is nil while node i is down.
type Cluster struct {
	Addrs   []string
	Engines []*nnexus.Engine

	mu      sync.Mutex // Kill runs from experiment scripts while Close waits
	servers []*nnexus.Server
	cfgs    []nnexus.Config
	root    string // parent of every node's directory
}

// Start boots n nodes. config returns node i's configuration given every
// node's address and a directory of its own (removed by Close), which the node
// persists to when config puts it in DataDir. The nodes boot in order, so a
// follower finds its primary serving. On an error nothing is left running.
func Start(n int, config func(i int, addrs []string, dir string) nnexus.Config) (*Cluster, error) {
	root, err := os.MkdirTemp("", "nnexus-cluster-*")
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		Addrs:   make([]string, n),
		Engines: make([]*nnexus.Engine, n),
		servers: make([]*nnexus.Server, n),
		cfgs:    make([]nnexus.Config, n),
		root:    root,
	}
	lns := make([]net.Listener, n)
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			break
		}
		c.Addrs[i] = lns[i].Addr().String()
	}
	for i := 0; err == nil && i < n; i++ {
		c.cfgs[i] = config(i, c.Addrs, filepath.Join(root, strconv.Itoa(i)))
		err = c.serve(i, lns[i])
		lns[i] = nil // serve took it, even when it failed
	}
	if err != nil {
		for _, ln := range lns {
			if ln != nil {
				ln.Close()
			}
		}
		c.Close()
		return nil, err
	}
	return c, nil
}

// Peers returns addrs without the i-th: node i's Config.ClusterPeers.
func Peers(addrs []string, i int) []string {
	return append(append([]string(nil), addrs[:i]...), addrs[i+1:]...)
}

// serve boots node i on ln, which it owns from here.
func (c *Cluster) serve(i int, ln net.Listener) error {
	engine, err := nnexus.New(c.cfgs[i])
	if err != nil {
		ln.Close()
		return err
	}
	srv, _, err := engine.ServeListener(ln, nil)
	if err != nil {
		engine.Close()
		return err
	}
	c.mu.Lock()
	c.Engines[i], c.servers[i] = engine, srv
	c.mu.Unlock()
	return nil
}

// Kill stops node i abruptly: listener and connections torn down, then the
// engine (and its replication loops) stopped. Its directory stays. Idempotent.
func (c *Cluster) Kill(i int) {
	c.mu.Lock()
	engine, srv := c.Engines[i], c.servers[i]
	c.Engines[i], c.servers[i] = nil, nil
	c.mu.Unlock()
	if srv != nil {
		srv.Close()
		engine.Close()
	}
}

// Restart boots a killed node i again with the configuration it had, against
// its directory and on its address.
func (c *Cluster) Restart(i int) error {
	ln, err := net.Listen("tcp", c.Addrs[i])
	if err != nil {
		return fmt.Errorf("cluster: rebind node %d: %w", i, err)
	}
	return c.serve(i, ln)
}

// WaitCaughtUp waits until every live follower has applied, in sync, the WAL
// head of node primary, and returns that head.
func (c *Cluster) WaitCaughtUp(primary int, timeout time.Duration) (uint64, error) {
	for deadline := time.Now().Add(timeout); ; time.Sleep(10 * time.Millisecond) {
		head, _ := c.Engines[primary].ReplicationInfo()["head"].(uint64)
		behind := ""
		for i, e := range c.Engines {
			if e == nil {
				continue
			}
			if info := e.ReplicationInfo(); info["role"] == "follower" && (info["applied"] != head || info["synced"] != true) {
				behind = fmt.Sprintf("node %d: %v", i, info)
			}
		}
		if behind == "" {
			return head, nil
		}
		if time.Now().After(deadline) {
			return head, fmt.Errorf("cluster: never caught up to offset %d: %s", head, behind)
		}
	}
}

// Close kills every node and removes their directories.
func (c *Cluster) Close() {
	for i := range c.Engines {
		c.Kill(i)
	}
	os.RemoveAll(c.root)
}
