package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
)

// runAgree answers "do two sets of runs of the same code agree within
// the benchmark's own bounds": it runs this binary's untraced suite six
// times, assigns the runs alternately to set A and set B, and compares
// the sets' medians for every (end-to-end metric, workload) pair. The
// same table, with A the parent commit's binary and B the change's, is
// how a later before/after is read.
func runAgree(o options) int {
	exe, err := os.Executable()
	if err == nil {
		err = os.MkdirAll(o.out, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// sets[s][workload][metric] holds one value per invocation.
	var sets [2]map[string]map[string][]float64
	for s := range sets {
		sets[s] = make(map[string]map[string][]float64)
	}
	for i := 0; i < 6; i++ {
		path := filepath.Join(o.out, fmt.Sprintf("agree-%d.json", i))
		cmd := exec.Command(exe, "-workload", o.workload, "-seed", fmt.Sprint(o.seed),
			"-seconds", fmt.Sprint(o.seconds), "-trace", "0", "-json", path, "-out", o.out)
		cmd.Stderr = os.Stderr
		fmt.Printf("invocation %d of 6 (set %c)\n", i+1, 'A'+i%2)
		if err := cmd.Run(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: invocation failed:", err)
			return 1
		}
		raw, err := os.ReadFile(path)
		var doc document
		if err == nil {
			err = json.Unmarshal(raw, &doc)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		os.Remove(path)
		for _, w := range doc.Workloads {
			if sets[i%2][w.Name] == nil {
				sets[i%2][w.Name] = make(map[string][]float64)
			}
			for name, v := range w.EndToEnd {
				sets[i%2][w.Name][name] = append(sets[i%2][w.Name][name], v.Value)
			}
		}
	}
	fmt.Printf("%-16s %-18s %14s %14s %8s %7s  %s\n", "workload", "metric", "median A", "median B", "B/A", "bound", "verdict")
	code := 0
	for _, w := range workloads {
		for _, s := range endToEnd {
			a, b := sets[0][w.name][s.Name], sets[1][w.name][s.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := median(a), median(b)
			verdict := "PASS"
			if math.Max(ma, mb) > math.Min(ma, mb)*(1+s.Bound) {
				verdict, code = "UNRESOLVED", 1
			}
			fmt.Printf("%-16s %-18s %14.6g %14.6g %8.4f %6g%%  %s\n", w.name, s.Name, ma, mb, mb/ma, s.Bound*100, verdict)
		}
	}
	return code
}
