package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// savedRun is one saved benchmark output: its host stamp and result.
type savedRun struct {
	host string
	res  result
}

func readSaved(path string) (savedRun, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return savedRun{}, err
	}
	var s savedRun
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	for _, l := range lines {
		if h, ok := strings.CutPrefix(l, "host "); ok {
			s.host = h
		}
	}
	if s.host == "" {
		return s, fmt.Errorf("%s: no host stamp", path)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s.res); err != nil {
		return s, fmt.Errorf("%s: last line is not a result: %w", path, err)
	}
	return s, nil
}

// compareOutputs prints each metric's median on both sides and returns
// the exit code: 1 when any output failed its checks, the hosts differ,
// or an end-to-end metric got worse than its bound allows.
func compareOutputs(bench benchFile, oldPaths, newPaths []string) int {
	var host string
	side := func(paths []string) (map[string][]float64, bool) {
		vals := map[string][]float64{}
		for _, p := range paths {
			s, err := readSaved(p)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				return nil, false
			}
			if host == "" {
				host = s.host
			} else if s.host != host {
				fmt.Fprintf(os.Stderr, "perfbench: refusing to compare results from different hosts:\n  %s\n  %s (%s)\n", host, s.host, p)
				return nil, false
			}
			if !s.res.Correct {
				fmt.Fprintf(os.Stderr, "perfbench: %s failed its output checks\n", p)
				return nil, false
			}
			for k, v := range s.res.Metrics {
				vals[k] = append(vals[k], v.Value)
			}
		}
		return vals, true
	}
	oldVals, ok := side(oldPaths)
	if !ok {
		return 1
	}
	newVals, ok := side(newPaths)
	if !ok {
		return 1
	}
	code := 0
	fmt.Println("host", host)
	for _, d := range append(append([]metricDef(nil), bench.EndToEnd...), bench.PerLayer...) {
		o, n := oldVals[d.Name], newVals[d.Name]
		if len(o) == 0 || len(n) == 0 {
			continue
		}
		mo, mn := median(o), median(n)
		worse := (mn - mo) / mo
		if d.Better == "higher" {
			worse = -worse
		}
		verdict := ""
		if d.Bound > 0 {
			verdict = "ok"
			if worse > d.Bound {
				verdict = fmt.Sprintf("REGRESSION (bound %.0f%%)", 100*d.Bound)
				code = 1
			}
		}
		fmt.Printf("%-34s %14.6g -> %14.6g %-6s %+7.1f%% worse  %s\n", d.Name, mo, mn, d.Unit, 100*worse, verdict)
	}
	return code
}
