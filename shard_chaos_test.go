package nnexus_test

// Shard chaos: a two-shard deployment assembled entirely from the public
// facade, with one shard's primary killed mid-traffic. The acceptance bar:
// reads and writes owned by the surviving shards never notice, scatter-gather
// reads that do touch the dead shard degrade to typed partial results (every
// link present is correct, missing ones are attributed to the listed shards),
// the hit shard recovers through the same election machinery as an unsharded
// cluster, and full results resume — all with no human in the loop.

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"nnexus"
	"nnexus/internal/cluster"
)

// shardOwnedWords returns one single-word label owned by each shard of the
// ring, so tests can place entries (and aim link texts) at a chosen shard.
func shardOwnedWords(t testing.TB, ring *nnexus.ShardRing) []string {
	t.Helper()
	words := []string{
		"graph", "plane", "even", "space", "function", "metric",
		"prime", "group", "field", "ring", "mobius", "number",
		"lattice", "matrix", "tensor", "kernel",
	}
	owned := make([]string, ring.NumShards())
	found := 0
	for _, w := range words {
		id := ring.OwnerLabel(w)
		if owned[id] == "" {
			owned[id] = w
			if found++; found == ring.NumShards() {
				return owned
			}
		}
	}
	t.Fatalf("no candidate word for every shard: %q", owned)
	return nil
}

// startShardFleet boots one standalone (single-node) daemon per shard of m,
// each persisting its ring slice, and records their addresses in m.
func startShardFleet(t testing.TB, m *nnexus.ShardMap) *cluster.Cluster {
	t.Helper()
	ring := m.Ring()
	fleet := startCluster(t, len(m.Shards), func(i int, _ []string, dir string) nnexus.Config {
		return nnexus.Config{Scheme: nnexus.SampleMSC(10), DataDir: dir, ShardRing: ring, ShardID: i}
	})
	for i := range m.Shards {
		m.Shards[i].Addrs = []string{fleet.Addrs[i]}
	}
	return fleet
}

// TestShardedNetworkLinking runs the scatter-gather router over real TCP
// servers (one single-node daemon per shard) and asserts the results are
// identical to a single unsharded engine holding the same two corpora, both
// self-linking and under ordered cross-corpus link policies — the network
// path reuses the same equivalence protocol the in-process fuzz target
// proves, wire.ShardMatch is lossless for Link reconstruction, and the
// shardScan request carries the link policy's corpora.
func TestShardedNetworkLinking(t *testing.T) {
	m := &nnexus.ShardMap{Version: 1, Shards: []nnexus.ShardSpec{{ID: 0}, {ID: 1}}}
	startShardFleet(t, m)

	router, err := nnexus.DialSharded(m, nnexus.WithCallTimeout(3*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	reference, err := nnexus.New(nnexus.Config{Scheme: nnexus.SampleMSC(10)})
	if err != nil {
		t.Fatal(err)
	}
	defer reference.Close()

	domain := nnexus.Domain{
		Name: "planetmath.org", URLTemplate: "http://planetmath.org/{id}", Scheme: "msc",
	}
	if err := router.AddDomain(domain); err != nil {
		t.Fatal(err)
	}
	if err := reference.AddDomain(domain); err != nil {
		t.Fatal(err)
	}
	words := shardOwnedWords(t, m.Ring())
	titles := append([]string{}, words...)
	titles = append(titles, words[0]+" "+words[1], "metric space")
	add := func(corpus, title string) {
		e := &nnexus.Entry{Corpus: corpus, Domain: "planetmath.org", Title: title, Classes: []string{chaosClasses}}
		id, err := router.AddEntry(e)
		if err != nil {
			t.Fatalf("sharded AddEntry(%s/%q): %v", corpus, title, err)
		}
		ref := *e
		ref.ID = 0
		refID, err := reference.AddEntry(&ref)
		if err != nil {
			t.Fatal(err)
		}
		if id != refID {
			t.Fatalf("ID sequences diverged: sharded %d, reference %d", id, refID)
		}
	}
	for _, title := range titles {
		add("", title)
	}
	// A second namespace: homonyms of both shards' words, and a phrase only
	// it defines, so self-linking and ordered cross-corpus policies differ.
	for _, title := range []string{words[0], words[1], words[1] + " " + words[0]} {
		add("wiki", title)
	}

	texts := []string{
		"",
		words[0],
		fmt.Sprintf("a %s meets a %s in a metric space", words[0], words[1]),
		fmt.Sprintf("%s %s %s %s", words[0], words[1], words[0], words[1]),
		"the metric space of a " + words[0] + " " + words[1],
	}
	policies := []nnexus.LinkOptions{
		{},
		{SourceCorpus: "wiki"},
		{SourceCorpus: "wiki", TargetCorpora: []string{"wiki", "default"}},
		{TargetCorpora: []string{"default", "wiki"}},
	}
	for _, text := range texts {
		for _, opts := range policies {
			got, err := router.LinkText(text, opts)
			if err != nil {
				t.Fatalf("sharded LinkText(%q, %+v): %v", text, opts, err)
			}
			want, err := reference.LinkText(text, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("sharded result diverged for %q (opts %+v):\n  sharded:   %+v\n  unsharded: %+v", text, opts, got, want)
			}
		}
	}
}

// TestChaosShardPartialResults kills a single-node shard outright: reads
// owned by the surviving shard stay error-free, scatter-gather reads that
// touch the dead shard return the typed *ShardUnavailableError naming
// exactly that shard alongside a partial result whose present links are all
// correct, and restarting the shard (same data directory, same address)
// restores full results through the same router.
func TestChaosShardPartialResults(t *testing.T) {
	m := &nnexus.ShardMap{Version: 1, Shards: []nnexus.ShardSpec{{ID: 0}, {ID: 1}}}
	fleet := startShardFleet(t, m)
	router, err := nnexus.DialSharded(m,
		nnexus.WithCallTimeout(2*time.Second),
		nnexus.WithMaxRetries(1))
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	if err := router.AddDomain(nnexus.Domain{
		Name: "planetmath.org", URLTemplate: "http://planetmath.org/{id}", Scheme: "msc",
	}); err != nil {
		t.Fatal(err)
	}
	words := shardOwnedWords(t, m.Ring())
	for _, w := range words {
		if _, err := router.AddEntry(&nnexus.Entry{
			Domain: "planetmath.org", Title: w, Classes: []string{chaosClasses},
		}); err != nil {
			t.Fatal(err)
		}
	}
	mixed := words[0] + " and " + words[1]
	full, err := router.LinkText(mixed, nnexus.LinkOptions{})
	if err != nil {
		t.Fatalf("pre-kill LinkText: %v", err)
	}
	if len(full.Links) != 2 {
		t.Fatalf("pre-kill links = %d, want 2", len(full.Links))
	}

	// Abrupt shard-0 death. "and" may hash to either shard, so only the
	// bare shard-1 word is guaranteed to scatter to shard 1 alone.
	fleet.Kill(0)

	got, err := router.LinkText(words[1], nnexus.LinkOptions{})
	if err != nil {
		t.Fatalf("surviving-shard read failed during the outage: %v", err)
	}
	if len(got.Links) != 1 || got.Links[0].Label != words[1] {
		t.Fatalf("surviving-shard read links = %+v, want [%s]", got.Links, words[1])
	}

	partial, err := router.LinkText(mixed, nnexus.LinkOptions{})
	var unavail *nnexus.ShardUnavailableError
	if !errors.As(err, &unavail) {
		t.Fatalf("mixed read error = %v, want *ShardUnavailableError", err)
	}
	if len(unavail.Shards) != 1 || unavail.Shards[0] != 0 {
		t.Fatalf("unavailable shards = %v, want [0]", unavail.Shards)
	}
	if partial == nil {
		t.Fatal("typed partial error must carry the partial result")
	}
	if len(partial.Links) != 1 || partial.Links[0].Label != words[1] {
		t.Fatalf("partial links = %+v, want only %q", partial.Links, words[1])
	}

	// Same data directory, same address: the shard rejoins and the router's
	// lazily-redialing shard client resumes full results with no restart.
	if err := fleet.Restart(0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "full results after the shard rejoined", func() bool {
		res, err := router.LinkText(mixed, nnexus.LinkOptions{})
		return err == nil && len(res.Links) == 2
	})
}

// TestChaosShardFailover gives shard 0 a three-node election-enabled
// replication group and kills its primary mid-traffic: shard 1 (a bystander
// single-node shard) serves its reads and writes without interruption,
// shard-0 reads ride over to the caught-up replicas, shard-0 writes resume
// once the group elects a new primary (PR 7 machinery, unchanged), and the
// write landed during the gap is linkable afterwards.
func TestChaosShardFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("shard failover chaos is not -short")
	}
	m := &nnexus.ShardMap{Version: 1, Shards: []nnexus.ShardSpec{{ID: 0}, {ID: 1}}}

	// Nodes 0-2 are shard 0's group — node 0 its bootstrap primary, 1 and 2
	// election-enabled followers, each serving only shard 0's ring slice —
	// and node 3 is shard 1, a single node.
	ring := m.Ring()
	nodes := startCluster(t, 4, func(i int, addrs []string, dir string) nnexus.Config {
		cfg := nnexus.Config{Scheme: nnexus.SampleMSC(10), DataDir: dir, ShardRing: ring}
		if i == 3 {
			cfg.ShardID = 1
			return cfg
		}
		cfg.ClusterPeers = cluster.Peers(addrs[:3], i)
		cfg.AdvertiseAddr = addrs[i]
		cfg.ElectionTimeout = failoverElectionTimeout
		cfg.QuorumTimeout = 5 * time.Second
		cfg.ReplicaName = fmt.Sprintf("shard0-node%d", i)
		if i == 0 {
			cfg.ReplicationPrimary = true
		} else {
			cfg.FollowPrimary = addrs[0]
		}
		return cfg
	})
	m.Shards[0].Addrs, m.Shards[1].Addrs = nodes.Addrs[:3], nodes.Addrs[3:]
	group := nodes.Engines[:3]

	router, err := nnexus.DialSharded(m,
		nnexus.WithReplicaProbeInterval(25*time.Millisecond),
		nnexus.WithCallTimeout(3*time.Second),
		nnexus.WithMaxRetries(1))
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	if err := router.AddDomain(nnexus.Domain{
		Name: "planetmath.org", URLTemplate: "http://planetmath.org/{id}", Scheme: "msc",
	}); err != nil {
		t.Fatal(err)
	}
	words := shardOwnedWords(t, ring)
	for _, w := range words {
		if _, err := router.AddEntry(&nnexus.Entry{
			Domain: "planetmath.org", Title: w, Classes: []string{chaosClasses},
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Let shard 0's followers catch up before the kill so replica reads can
	// serve the full concept map.
	if _, err := nodes.WaitCaughtUp(0, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	mixed := words[0] + " versus " + words[1]
	if res, err := router.LinkText(mixed, nnexus.LinkOptions{}); err != nil || len(res.Links) != 2 {
		t.Fatalf("pre-kill mixed read = %+v, %v; want 2 links", res, err)
	}

	// Abrupt primary death mid-traffic.
	nodes.Kill(0)

	// The bystander shard never notices: its writes succeed immediately and
	// its single-word reads scatter to it alone.
	if _, err := router.AddEntry(&nnexus.Entry{
		Domain: "planetmath.org", Title: words[1] + " theorem", Classes: []string{chaosClasses},
	}); err != nil {
		t.Fatalf("bystander-shard write failed during shard 0's outage: %v", err)
	}
	if res, err := router.LinkText(words[1], nnexus.LinkOptions{}); err != nil || len(res.Links) != 1 {
		t.Fatalf("bystander-shard read = %+v, %v; want 1 link", res, err)
	}

	// Shard-0 reads ride over to the replicas: full mixed results, allowing
	// transient typed partials while the shard client re-routes.
	waitFor(t, "mixed reads served by shard 0 replicas", func() bool {
		res, err := router.LinkText(mixed, nnexus.LinkOptions{})
		return err == nil && len(res.Links) == 2
	})

	// Shard-0 writes resume once the group elects a new primary.
	var gapID int64
	gapTitle := words[0] + " lemma"
	waitFor(t, "shard 0 writes resumed after election", func() bool {
		id, err := router.AddEntry(&nnexus.Entry{
			Domain: "planetmath.org", Title: gapTitle, Classes: []string{chaosClasses},
		})
		if err != nil {
			return false
		}
		gapID = id
		return true
	})
	primaries := 0
	for _, e := range group[1:] {
		if st := e.Replication(); st.Election != nil && st.Role == "primary" {
			primaries++
		}
	}
	if primaries != 1 {
		t.Fatalf("shard 0 primaries after failover = %d, want exactly 1", primaries)
	}
	waitFor(t, "the gap write became linkable", func() bool {
		res, err := router.LinkText(gapTitle, nnexus.LinkOptions{})
		if err != nil {
			return false
		}
		for _, l := range res.Links {
			if l.Label == gapTitle && l.Target == gapID {
				return true
			}
		}
		return false
	})
}
