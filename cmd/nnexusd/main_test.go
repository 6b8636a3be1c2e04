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

// daemon is one run of the daemon in the background, with a socket client
// connected to it.
type daemon struct {
	client *nnexus.Client
	stop   chan os.Signal
	exited chan error
	logs   *syncBuffer
}

// startDaemon runs the daemon with args and waits until its socket answers.
// The cleanup signals it, so a failed assertion does not leave it up.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	addr := ""
	for i, a := range args {
		if a == "-addr" && i+1 < len(args) {
			addr = args[i+1]
		}
	}
	d := &daemon{stop: make(chan os.Signal, 2), exited: make(chan error, 1), logs: &syncBuffer{}}
	go func() { d.exited <- run(args, d.stop, log.New(d.logs, "", 0)) }()
	t.Cleanup(func() {
		select {
		case d.stop <- syscall.SIGTERM:
		default:
		}
	})
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		select {
		case err := <-d.exited:
			t.Fatalf("daemon exited early: %v\n%s", err, d.logs.String())
		default:
		}
		var err error
		if d.client, err = nnexus.Dial(addr, nnexus.WithMaxRetries(0)); err == nil {
			t.Cleanup(func() { d.client.Close() })
			return d
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never listened on %s: %v", addr, err)
		}
	}
}

// drain signals the daemon and waits for a clean exit.
func (d *daemon) drain(t *testing.T) {
	t.Helper()
	d.stop <- syscall.SIGTERM
	select {
	case err := <-d.exited:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("daemon did not drain:\n%s", d.logs.String())
	}
	if !strings.Contains(d.logs.String(), "drained") {
		t.Errorf("log lacks the drained line:\n%s", d.logs.String())
	}
}

// TestRunBootsServesAndDrains is the daemon end to end: one XML document with
// a domain and limits, both doors open and linking, then a signal and a clean
// drain.
func TestRunBootsServesAndDrains(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	conf := filepath.Join(dir, "nnexus.xml")
	if err := os.WriteFile(conf, []byte(`<nnexus>
	  <server data="`+data+`" max-conns="32" max-active="64" drain-timeout="5s"/>
	  <domain name="planetmath.org" priority="1" scheme="msc"><urltemplate>http://pm/{id}</urltemplate></domain>
	</nnexus>`), 0o644); err != nil {
		t.Fatal(err)
	}
	addr, web := freeAddr(t), freeAddr(t)

	d := startDaemon(t, "-config", conf, "-addr", addr, "-http", web)
	c := d.client
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

	// Both doors link against the entry the socket stored.
	if res, err := c.LinkText("a planar graph", nil, "", "", ""); err != nil || len(res.Links) != 1 {
		t.Errorf("link (socket) = %+v, %v; want one link", res, err)
	}
	resp, err = http.Post("http://"+web+"/api/link", "application/json",
		strings.NewReader(`{"text": "a planar graph"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("link (http) = %d, want 200", resp.StatusCode)
	}

	// Signal, drain, compact.
	d.drain(t)
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

// TestSecondBootAppendsNothing: a restart against the same data directory
// replays the configured domain from the store and must not write it again;
// the first boot's domain record is in the snapshot the drain left, so the
// second boot's log stays empty. -sync makes every append reach wal.log
// before the request returns, so its size is read while the daemon runs.
func TestSecondBootAppendsNothing(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	conf := filepath.Join(dir, "nnexus.xml")
	if err := os.WriteFile(conf, []byte(`<nnexus>
	  <server data="`+data+`"/>
	  <domain name="planetmath.org" priority="1" scheme="msc"><urltemplate>http://pm/{id}</urltemplate></domain>
	</nnexus>`), 0o644); err != nil {
		t.Fatal(err)
	}
	walSize := func() int64 {
		t.Helper()
		st, err := os.Stat(filepath.Join(data, "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}

	first := startDaemon(t, "-config", conf, "-sync", "-addr", freeAddr(t))
	if _, err := first.client.AddEntry(&nnexus.Entry{Domain: "planetmath.org", Title: "planar graph"}); err != nil {
		t.Fatal(err)
	}
	if walSize() == 0 {
		t.Fatal("the first boot left an empty wal.log: nothing to compare")
	}
	first.drain(t)

	second := startDaemon(t, "-config", conf, "-sync", "-addr", freeAddr(t))
	if size := walSize(); size != 0 {
		t.Errorf("wal.log holds %d bytes after a restart that wrote nothing", size)
	}
	if res, err := second.client.LinkText("a planar graph", nil, "", "", ""); err != nil || len(res.Links) != 1 {
		t.Errorf("link after the restart = %+v, %v; want the replayed entry", res, err)
	}
	second.drain(t)
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
