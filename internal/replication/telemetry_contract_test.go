package replication

import (
	"strings"
	"testing"
	"time"

	"nnexus/internal/storage"
	"nnexus/internal/telemetry"
)

// TestFailoverTelemetryExposition is the exposition-format contract for the
// failover metric families (companion to the telemetry package's PR 1
// suite): the election epoch gauge, the elections and fenced-request
// counters, and the quorum-commit latency histogram must appear under their
// documented names and types when a node and primary carry a registry.
func TestFailoverTelemetryExposition(t *testing.T) {
	reg := telemetry.NewRegistry()
	dir := t.TempDir()
	st, err := storage.Open(dir, storage.WithReplication())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fb := newFabric()
	n, err := NewNode(NodeConfig{
		Self:      "voter",
		Peers:     []string{"a", "b"},
		Store:     st,
		Dial:      func(addr string) (Peer, error) { return fabricPeer{fb: fb, from: "voter", addr: addr}, nil },
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	p, err := NewPrimary(st, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Drain()

	// Drive each family at least once: an epoch adoption moves the gauge, a
	// stale candidate bumps the fenced counter, and a quorum-ack satisfied
	// by a follower observes one commit latency.
	if pay := n.HandleVote(7, 0, "a"); !pay.Granted {
		t.Fatalf("setup vote refused: %+v", pay)
	}
	if pay := n.HandleVote(2, 0, "b"); pay.Granted {
		t.Fatal("stale candidate granted")
	}
	if err := st.Put("t", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	p.Ack("f1", p.Head())
	if err := p.WaitQuorum(p.Head(), 1, time.Second); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE nnexus_replication_epoch gauge",
		"nnexus_replication_epoch 7",
		"# TYPE nnexus_elections_total counter",
		"# TYPE nnexus_fenced_requests_total counter",
		"nnexus_fenced_requests_total 1",
		"# TYPE nnexus_quorum_commit_seconds histogram",
		"nnexus_quorum_commit_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition is missing %q", want)
		}
	}
	// Histogram buckets must be cumulative and end at +Inf.
	if !strings.Contains(out, `nnexus_quorum_commit_seconds_bucket{le="+Inf"} 1`) {
		t.Errorf("exposition is missing the +Inf bucket:\n%s", out)
	}
}
