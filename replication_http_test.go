package nnexus_test

// A follower's HTTP surface must reject writes just like its wire surface
// does: httpapi drives the engine directly, so without role gating a POST
// to a replica's /api/entries would insert locally and silently diverge
// the node from the replication stream. HTTPHandler wires the gate
// automatically whenever the engine was built with FollowPrimary.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"nnexus"
)

func TestFollowerHTTPRejectsWrites(t *testing.T) {
	cl, links := startReplicas(t, 1)
	pEngine, fEngine, link := cl.Engines[0], cl.Engines[1], links[1]

	// Seed one entry on the primary and wait for the follower to mirror it.
	pHTTP := httptest.NewServer(pEngine.HTTPHandler())
	t.Cleanup(pHTTP.Close)
	if err := pEngine.AddDomain(nnexus.Domain{
		Name: "planetmath.org", URLTemplate: "http://pm/{id}", Scheme: "msc", Priority: 1,
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(pHTTP.URL+"/api/entries", "application/json",
		strings.NewReader(`{"domain":"planetmath.org","title":"graph","classes":["05C99"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("primary HTTP write = %d, want 201", resp.StatusCode)
	}
	waitFor(t, "follower caught up", func() bool {
		head := pEngine.ReplicationInfo()["head"].(uint64)
		info := fEngine.ReplicationInfo()
		return info["applied"].(uint64) == head && info["synced"].(bool)
	})

	// The same write against the follower's HTTP API must be refused with a
	// body naming the leader, leaving the replica's state untouched.
	fHTTP := httptest.NewServer(fEngine.HTTPHandler())
	t.Cleanup(fHTTP.Close)
	resp, err = http.Post(fHTTP.URL+"/api/entries", "application/json",
		strings.NewReader(`{"domain":"planetmath.org","title":"rogue","classes":["05C99"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("follower HTTP write = %d, want 403", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if body["leader"] != link.Addr() {
		t.Fatalf("rejection leader = %q, want %q", body["leader"], link.Addr())
	}

	// Reads keep serving from the replicated state.
	resp, err = http.Get(fHTTP.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Entries int `json:"entries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || stats.Entries != 1 {
		t.Fatalf("follower GET /api/stats = %d, entries %d; want 200 with 1", resp.StatusCode, stats.Entries)
	}
}
