package nnexus_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"nnexus"
	"nnexus/internal/wire"
)

// readyzGolden is, per kind of node, every /readyz component and the
// "key:type" list of its info: the names operators and probes read. A node
// may report more keys than these, never fewer, and never another component.
var readyzGolden = map[string]map[string]string{
	"single node": {
		"engine":      "",
		"replication": "role:string",
	},
	"primary with one follower": {
		"replication": "epoch:number followers:object head:number maxLag:number role:string",
		"storage":     "",
		"engine":      "",
	},
	"follower": {
		"replication": "applied:number epoch:number head:number lag:number leader:string role:string synced:bool",
		"storage":     "",
		"engine":      "",
	},
	"clustered node": {
		"election":    "elections:number epoch:number fenced:bool lastLeaderContactSeconds:number leader:string peers:number role:string votesSeen:number",
		"replication": "epoch:number followers:object head:number maxLag:number role:string",
		"storage":     "",
		"engine":      "",
	},
	"between roles": {
		"election":    "elections:number epoch:number fenced:bool lastLeaderContactSeconds:number leader:string peers:number role:string votesSeen:number",
		"replication": "epoch:number role:string",
		"storage":     "",
		"engine":      "",
	},
}

// readyzKeys answers GET /readyz on e and returns each component as its
// sorted "key:type" list (the component's own ok/error fields are not info).
func readyzKeys(t *testing.T, e *nnexus.Engine) (map[string]string, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	e.HTTPHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	var report struct {
		Components map[string]struct {
			Info map[string]interface{} `json:"info"`
		} `json:"components"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &report); err != nil {
		t.Fatalf("/readyz: %v: %s", err, rec.Body)
	}
	out := make(map[string]string, len(report.Components))
	for name, comp := range report.Components {
		var keys []string
		for k, v := range comp.Info {
			typ := "null"
			switch v.(type) {
			case string:
				typ = "string"
			case float64:
				typ = "number"
			case bool:
				typ = "bool"
			case map[string]interface{}:
				typ = "object"
			}
			keys = append(keys, k+":"+typ)
		}
		sort.Strings(keys)
		out[name] = strings.Join(keys, " ")
	}
	return out, rec.Body.String()
}

func TestReadyzGolden(t *testing.T) {
	nodes := map[string]*nnexus.Engine{}
	nodes["single node"] = openNode(t, nnexus.Config{}).engine
	cl, _ := startReplicas(t, 1)
	if _, err := cl.WaitCaughtUp(0, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	nodes["primary with one follower"], nodes["follower"] = cl.Engines[0], cl.Engines[1]
	peers := []string{deadAddr(t), deadAddr(t)}
	nodes["clustered node"] = openNode(t, nnexus.Config{DataDir: t.TempDir(), ReplicationPrimary: true,
		ClusterPeers: peers, ElectionTimeout: time.Minute}).engine
	// A primary told of a newer epoch whose winner is not yet known steps
	// down to no role object at all until an election settles it.
	between := openNode(t, nnexus.Config{DataDir: t.TempDir(), ReplicationPrimary: true,
		ClusterPeers: peers, ElectionTimeout: time.Minute})
	if resp := between.srv.Handle(&wire.Request{Method: wire.MethodReplLead, Seq: 1, Epoch: 9}); !resp.IsOK() {
		t.Fatalf("replLead: %s", resp.Error)
	}
	nodes["between roles"] = between.engine
	waitFor(t, "the primary to list its follower", func() bool {
		_, body := readyzKeys(t, cl.Engines[0])
		return strings.Contains(body, `"f1"`)
	})
	for name, want := range readyzGolden {
		got, body := readyzKeys(t, nodes[name])
		if len(got) != len(want) {
			t.Errorf("%s: components %v, want %v", name, got, want)
		}
		for comp, keys := range want {
			have, ok := got[comp]
			if !ok {
				t.Errorf("%s: no %s component in %s", name, comp, body)
				continue
			}
			for _, key := range strings.Fields(keys) {
				if !strings.Contains(" "+have+" ", " "+key+" ") {
					t.Errorf("%s: %s component lacks %s: %s", name, comp, key, body)
				}
			}
		}
	}
}
