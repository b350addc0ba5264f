package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// manifestMetric is one end_to_end entry of BENCHMARK.json.
type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestFile struct {
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

func readManifest(path string) (*manifestFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifestFile
	if err := json.Unmarshal(buf, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// readRuns loads the results of one side: a comma-separated list of -out
// files, each holding the runs of one invocation.
func readRuns(paths string) ([]*runResult, error) {
	var all []*runResult
	for _, p := range strings.Split(paths, ",") {
		buf, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var runs []*runResult
		if err := json.Unmarshal(buf, &runs); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		all = append(all, runs...)
	}
	return all, nil
}

// quartiles returns the first, second and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is what
// the bounds in BENCHMARK.json were set against. One value has no spread.
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	if n == 1 {
		return x[0], x[0], x[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4) // beyond [0, 4] it extrapolates, as Python does
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// verdict of one workload x metric comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares the new side's median with the old side's against the
// metric's bound. Where either side's own run-to-run spread (interquartile
// range over median) is wider than the bound the comparison cannot tell a
// regression from noise and is reported as unresolved.
func judge(m manifestMetric, old, new []float64) (j judgement) {
	o1, o2, o3 := quartiles(old)
	n1, n2, n3 := quartiles(new)
	j.oldMedian, j.newMedian = o2, n2
	j.spread = max(ratio(o3-o1, o2), ratio(n3-n1, n2))
	j.worse = ratio(n2-o2, o2)
	if m.Better == "higher" {
		j.worse = ratio(o2-n2, o2)
	}
	switch {
	case j.spread > m.Bound:
		j.verdict = verdictUnresolved
	case j.worse > m.Bound:
		j.verdict = verdictRegressed
	default:
		j.verdict = verdictOK
	}
	return j
}

// judgement is one row of a comparison.
type judgement struct {
	verdict              string
	oldMedian, newMedian float64
	worse, spread        float64 // shares of the old median / of a side's median
}

// compareFiles prints one row per workload x end-to-end metric and returns
// the process exit code: 1 on any regression, on a higher error rate or on
// a wrong answer on the new side; 2 when the two sides cannot be compared
// (unreadable input, a workload run on one side only, a run without one of
// the manifest's metrics).
func compareFiles(w io.Writer, manifestPath, oldPaths, newPaths string) int {
	man, err := readManifest(manifestPath)
	if err != nil {
		fmt.Fprintf(w, "compare: %v\n", err)
		return 2
	}
	oldRuns, err := readRuns(oldPaths)
	if err == nil && len(oldRuns) == 0 {
		err = fmt.Errorf("%s: no runs", oldPaths)
	}
	if err != nil {
		fmt.Fprintf(w, "compare: %v\n", err)
		return 2
	}
	newRuns, err := readRuns(newPaths)
	if err != nil {
		fmt.Fprintf(w, "compare: %v\n", err)
		return 2
	}
	exit := 0
	fmt.Fprintf(w, "%-15s %-16s %12s %12s %8s %8s %7s  %s\n",
		"workload", "metric", "old median", "new median", "worse", "spread", "bound", "verdict")
	for _, spec := range workloads {
		olds, news := runsOf(oldRuns, spec.name), runsOf(newRuns, spec.name)
		if len(olds) == 0 && len(news) == 0 {
			continue
		}
		if len(olds) == 0 || len(news) == 0 {
			fmt.Fprintf(w, "compare: %s has %d old runs and %d new runs: nothing to compare it with\n", spec.name, len(olds), len(news))
			return 2
		}
		// Same inputs on both sides, or the numbers mean different things.
		for _, side := range [][]*runResult{olds, news} {
			for _, r := range side {
				if r.Ops != olds[0].Ops {
					fmt.Fprintf(w, "compare: %s runs served op lists of %d and %d ops (different -seconds)\n", spec.name, olds[0].Ops, r.Ops)
					return 2
				}
			}
		}
		for _, m := range man.EndToEnd {
			oldVals, err := valuesOf(olds, m.Name)
			if err != nil {
				fmt.Fprintf(w, "compare: old side: %v\n", err)
				return 2
			}
			newVals, err := valuesOf(news, m.Name)
			if err != nil {
				fmt.Fprintf(w, "compare: new side: %v\n", err)
				return 2
			}
			j := judge(m, oldVals, newVals)
			if j.verdict == verdictRegressed {
				exit = 1
			}
			fmt.Fprintf(w, "%-15s %-16s %12.4f %12.4f %+7.1f%% %7.1f%% %6.2f%%  %s\n",
				spec.name, m.Name, j.oldMedian, j.newMedian, 100*j.worse, 100*j.spread, 100*m.Bound, j.verdict)
		}
		oe, ne := errorRate(olds), errorRate(news)
		verdict := verdictOK
		if ne > oe || !allCorrect(news) {
			verdict, exit = verdictRegressed, 1
		}
		fmt.Fprintf(w, "%-15s %-16s %12.6f %12.6f %8s %8s %7s  %s\n",
			spec.name, "error_rate", oe, ne, "", "", "any", verdict)
	}
	return exit
}

func runsOf(runs []*runResult, workload string) []*runResult {
	var out []*runResult
	for _, r := range runs {
		if r.Workload == workload {
			out = append(out, r)
		}
	}
	return out
}

// valuesOf collects one metric over runs. A run that does not report it
// is an error: read as 0 it would pass for an improvement of every metric
// that is better lower.
func valuesOf(runs []*runResult, metric string) ([]float64, error) {
	out := make([]float64, len(runs))
	for i, r := range runs {
		v, ok := r.EndToEnd[metric]
		if !ok {
			return nil, fmt.Errorf("a %s run (seed %d) reports no %s", r.Workload, r.Seed, metric)
		}
		out[i] = v.Value
	}
	return out, nil
}

func errorRate(runs []*runResult) float64 {
	var failed, attempted int
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return ratio(float64(failed), float64(attempted))
}

func allCorrect(runs []*runResult) bool {
	for _, r := range runs {
		if !r.Correct {
			return false
		}
	}
	return true
}
