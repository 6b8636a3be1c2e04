package cluster

import (
	"strings"
	"testing"
	"time"

	"nnexus"
)

// WaitCaughtUp names a primary that is down instead of reading its engine.
func TestWaitCaughtUpPrimaryDown(t *testing.T) {
	c, err := Start(2, func(i int, addrs []string, dir string) nnexus.Config {
		cfg := nnexus.Config{Scheme: nnexus.SampleMSC(10), DataDir: dir, ReplicationPrimary: i == 0}
		if i > 0 {
			cfg.FollowPrimary = addrs[0]
		}
		return cfg
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.WaitCaughtUp(0, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	c.Kill(0)
	_, err = c.WaitCaughtUp(0, time.Second)
	if err == nil || !strings.Contains(err.Error(), "node 0") {
		t.Fatalf("WaitCaughtUp with node 0 down = %v, want an error naming node 0", err)
	}
}
