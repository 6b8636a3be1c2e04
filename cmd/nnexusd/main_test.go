package main

import (
	"bytes"
	"encoding/json"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"nnexus"
	"nnexus/internal/client"
)

// syncBuffer collects the daemon's log while the test reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// freeAddr returns a loopback address nothing listens on right now.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// TestRunBootsServesAndDrains is the daemon end to end: one XML document with
// a domain, a tenant file and limits, both doors open, the tenant gate
// answering on both from the one registry, then a signal and a clean drain.
func TestRunBootsServesAndDrains(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	tenants := filepath.Join(dir, "tenants.json")
	if err := os.WriteFile(tenants, []byte(`{"corpora": {"hot": {"ratePerSec": 0.001, "burst": 2}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	conf := filepath.Join(dir, "nnexus.xml")
	if err := os.WriteFile(conf, []byte(`<nnexus>
	  <server data="`+data+`" max-conns="32" max-active="64" request-timeout="10s" drain-timeout="5s"/>
	  <tenants tenant-config="`+tenants+`"/>
	  <domain name="planetmath.org" priority="1" scheme="msc"><urltemplate>http://pm/{id}</urltemplate></domain>
	</nnexus>`), 0o644); err != nil {
		t.Fatal(err)
	}
	addr, web := freeAddr(t), freeAddr(t)

	var logs syncBuffer
	stop := make(chan os.Signal, 2)
	exited := make(chan error, 1)
	go func() {
		exited <- run([]string{"-config", conf, "-addr", addr, "-http", web}, stop, log.New(&logs, "", 0))
	}()
	defer func() {
		select {
		case stop <- syscall.SIGTERM: // a failed assertion must not leave the daemon up
		default:
		}
	}()

	// The socket door: ping, and a write into the domain the file configured.
	var c *nnexus.Client
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		select {
		case err := <-exited:
			t.Fatalf("daemon exited early: %v\n%s", err, logs.String())
		default:
		}
		var err error
		if c, err = nnexus.Dial(addr, nnexus.WithMaxRetries(0)); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never listened on %s: %v", addr, err)
		}
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	id, err := c.AddEntry(&nnexus.Entry{Domain: "planetmath.org", Title: "planar graph", Classes: []string{"05C10"}})
	if err != nil || id != 1 {
		t.Fatalf("addEntry = %d, %v", id, err)
	}

	// The HTTP door: ready, with the replication component.
	resp, err := http.Get("http://" + web + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready struct {
		Ready      bool `json:"ready"`
		Components map[string]struct {
			OK   bool                   `json:"ok"`
			Info map[string]interface{} `json:"info"`
		} `json:"components"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !ready.Ready {
		t.Errorf("/readyz = %d %+v, want 200 ready", resp.StatusCode, ready)
	}
	if role := ready.Components["replication"].Info["role"]; role != "single" {
		t.Errorf("/readyz replication role = %v, want single: %+v", role, ready.Components)
	}
	if !ready.Components["storage"].OK {
		t.Errorf("/readyz has no passing storage check: %+v", ready.Components)
	}

	// One registry behind both doors: the hot corpus's two tokens go one per
	// door, and the third request is refused on each.
	viaSocket := func() error {
		_, err := c.LinkTextIn("hot", nil, "a planar graph", nil, "", "", "")
		return err
	}
	viaHTTP := func() int {
		resp, err := http.Post("http://"+web+"/api/link", "application/json",
			strings.NewReader(`{"text": "a planar graph", "corpus": "hot"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if err := viaSocket(); err != nil {
		t.Fatalf("first hot request (socket): %v", err)
	}
	if code := viaHTTP(); code != http.StatusOK {
		t.Fatalf("second hot request (http) = %d, want 200", code)
	}
	if err := viaSocket(); !client.IsRateLimited(err) {
		t.Errorf("third hot request (socket): %v, want rateLimited", err)
	}
	if code := viaHTTP(); code != http.StatusTooManyRequests {
		t.Errorf("fourth hot request (http) = %d, want 429", code)
	}

	// Signal, drain, compact.
	stop <- syscall.SIGTERM
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("daemon did not drain:\n%s", logs.String())
	}
	if !strings.Contains(logs.String(), "drained") {
		t.Errorf("log lacks the drained line:\n%s", logs.String())
	}
	if st, err := os.Stat(filepath.Join(data, "wal.log")); err != nil || st.Size() != 0 {
		t.Errorf("wal.log after the drain: %v, %v; want compacted to empty", st, err)
	}
	if _, err := os.Stat(filepath.Join(data, "snapshot.dat")); err != nil {
		t.Errorf("no snapshot after the drain: %v", err)
	}
	if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Error("the socket still accepts after the drain")
	}
}

// TestRunExitsOnBusyHTTPPort: a taken -http port stops the daemon with an
// error instead of leaving it serving the socket without its probes.
func TestRunExitsOnBusyHTTPPort(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	addr := freeAddr(t)
	exited := make(chan error, 1)
	stop := make(chan os.Signal, 1)
	go func() {
		exited <- run([]string{"-addr", addr, "-http", busy.Addr().String()}, stop, log.New(&syncBuffer{}, "", 0))
	}()
	select {
	case err := <-exited:
		if err == nil || !strings.Contains(err.Error(), "address already in use") {
			t.Errorf("run = %v, want the bind error", err)
		}
	case <-time.After(10 * time.Second):
		stop <- syscall.SIGTERM
		t.Fatal("daemon kept running with its -http port taken")
	}
	if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Error("the socket listener outlived the failed boot")
	}
}
