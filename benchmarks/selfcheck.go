package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

const selfcheckRuns = 3 // per set

// childRun is what selfcheck keeps of one run of this program.
type childRun struct {
	result
	checksum string
}

// runChild runs one workload in a fresh process, as the driver does.
func runChild(cfg config, workload string, seed int64) (*childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(int(cfg.duration.Seconds())), "-out", cfg.outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	run := &childRun{}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
		if rest, ok := strings.CutPrefix(sc.Text(), "check link_checksum="); ok {
			run.checksum = rest
		}
	}
	if err := json.Unmarshal(last, &run.result); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line: %w", workload, seed, err)
	}
	return run, nil
}

// runSelfcheck runs every workload six times on this build, alternating two
// sets A and B that share their seeds, and compares the sets the way the
// driver compares a parent with a change: no end-to-end median may differ by
// more than the metric's bound. It returns the process's exit code.
func runSelfcheck(cfg config) int {
	bad := 0
	for _, w := range workloads {
		if cfg.workload != "" && cfg.workload != w.Name {
			continue
		}
		var sets [2][]*childRun
		for i := 0; i < selfcheckRuns; i++ {
			for s := range sets {
				run, err := runChild(cfg, w.Name, cfg.seed+int64(i))
				if err != nil {
					fmt.Fprintln(os.Stderr, "selfcheck:", err)
					return 1
				}
				if !run.Correct {
					fmt.Printf("%s seed %d: run was not correct\n", w.Name, cfg.seed+int64(i))
					bad++
				}
				sets[s] = append(sets[s], run)
			}
			a, b := sets[0][i], sets[1][i]
			if a.checksum != b.checksum {
				fmt.Printf("%s seed %d: link checksum %s then %s\n", w.Name, cfg.seed+int64(i), a.checksum, b.checksum)
				bad++
			}
			for _, exact := range []string{"precision", "recall"} {
				if a.Metrics[exact].Value != b.Metrics[exact].Value {
					fmt.Printf("%s seed %d: %s differs between two runs\n", w.Name, cfg.seed+int64(i), exact)
					bad++
				}
			}
		}
		fmt.Printf("%-14s %-13s %12s %12s %8s %8s %6s\n", w.Name, "metric", "median A", "median B", "diff", "spread", "bound")
		for _, d := range endToEnd {
			var vals [2][]float64
			for s := range sets {
				for _, run := range sets[s] {
					vals[s] = append(vals[s], run.Metrics[d.Name].Value)
				}
			}
			ma, mb := median(vals[0]), median(vals[1])
			diff := math.Abs(mb-ma) / ma
			all := append(append([]float64(nil), vals[0]...), vals[1]...)
			q1, q3 := quartiles(all)
			verdict := ""
			if diff > d.Bound {
				verdict = "  EXCEEDS"
				bad++
			}
			fmt.Printf("%-14s %-13s %12.6g %12.6g %7.2f%% %7.2f%% %5.1f%%%s\n",
				"", d.Name, ma, mb, 100*diff, 100*(q3-q1)/median(all), 100*d.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("selfcheck: %d checks failed\n", bad)
		return 1
	}
	fmt.Println("selfcheck: the two sets agree within every bound")
	return 0
}
