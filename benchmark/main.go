// Command benchmark is the repository's one performance yardstick: four
// served workloads driven over real HTTP against a system under test built
// in process from the constructors questd and questshardd use, with every
// answer verified, end-to-end metrics from an untraced timed phase and a
// per-layer waterfall from a separate traced replay. See README.md.
//
//	bash benchmark/run.sh --workload local_zipf --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh -workload all -out run.json
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// runLimit bounds one workload's run, traced pass included (a traced
// fleet run takes about 75 s here). The timed phase serves a fixed op list
// however long that takes; this is its time cap.
const runLimit = 170 * time.Second

// Fixed places, relative to the checkout root the benchmark is run from.
const (
	manifestPath = "BENCHMARK.json"           // metric bounds used by -compare
	workDir      = ".bench_build/work"        // WAL directories
	tracePath    = ".bench_build/trace.jsonl" // spans of a -trace 1 run
)

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "all", "workload to run: "+workloadNames()+" or all")
		seed     = flag.Int64("seed", 1, "workload seed: op order and read/write interleave (never the dataset)")
		seconds  = flag.Float64("seconds", 15, "sizes the fixed op list: how long the timed phase lasts on the baseline")
		trace    = flag.Int("trace", 0, "1 adds the traced pass and reports the per-layer metrics")
		out      = flag.String("out", "", "also write the results as JSON to this file (input of -compare)")
		compare  = flag.Bool("compare", false, "compare two sets of -out files: benchmark -compare old.json[,old2.json...] new.json[,...]")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return fail("usage: benchmark -compare old.json[,...] new.json[,...]")
		}
		return compareFiles(os.Stdout, manifestPath, flag.Arg(0), flag.Arg(1))
	}

	specs := workloads
	if *workload != "all" {
		spec, ok := findWorkload(*workload)
		if !ok {
			return fail("unknown workload %q (want %s or all)", *workload, workloadNames())
		}
		specs = []workloadSpec{spec}
	}
	if *seconds <= 0 {
		return fail("-seconds must be positive")
	}

	workRoot := filepath.Join(workDir, fmt.Sprint(os.Getpid()))
	defer os.RemoveAll(workRoot)
	var results []*runResult
	for _, spec := range specs {
		traceOut := tracePath
		if len(specs) > 1 {
			traceOut = strings.TrimSuffix(tracePath, ".jsonl") + "." + spec.name + ".jsonl"
		}
		// A wedged system (see the README's known limits) blocks its own
		// Stats() and Close() for ever; the run must still end.
		watchdog := time.AfterFunc(runLimit, func() {
			fmt.Fprintf(os.Stderr, "benchmark: %s did not finish within %v: the system under test is stalled\n", spec.name, runLimit)
			os.RemoveAll(workRoot)
			os.Exit(3)
		})
		res, err := runWorkload(runConfig{
			spec: spec, seed: *seed, seconds: *seconds, trace: *trace != 0,
			setups: setupRepeats, workRoot: workRoot, traceOut: traceOut,
		})
		watchdog.Stop()
		if err != nil {
			return fail("%s: %v", spec.name, err)
		}
		printResult(res)
		results = append(results, res)
	}
	if *out != "" {
		buf, err := json.MarshalIndent(results, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(buf, '\n'), 0o644)
		}
		if err != nil {
			return fail("write %s: %v", *out, err)
		}
	}
	line, err := resultLine(results, *trace != 0)
	if err != nil {
		return fail("encode result: %v", err)
	}
	fmt.Println(line)
	return 0
}

func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	return 1
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// printResult prints every metric by name with its unit, direction and
// sample count.
func printResult(r *runResult) {
	fmt.Printf("== %s  seed=%d  ops=%s  attempted=%d failed=%d correct=%v\n",
		r.Workload, r.Seed, r.OpHash, r.Attempted, r.Failed, r.Correct)
	for _, f := range r.Failures {
		fmt.Printf("   FAILURE: %s\n", f)
	}
	for _, d := range endToEnd {
		fmt.Printf("   %-42s %14.4f %-6s (%s is better, n=%d)\n",
			d.name, r.EndToEnd[d.name].Value, d.unit, d.better, r.Samples[d.name])
	}
	for _, name := range []string{"search_p50_ms", "search_p95_ms", "search_p99_ms", "insert_p50_ms", "insert_p95_ms"} {
		kind := strings.SplitN(name, "_", 2)[0]
		if r.Samples[kind] > 0 {
			fmt.Printf("   %-42s %14.4f %-6s (lower is better, n=%d, no bound)\n", name, r.Latency[name], "ms", r.Samples[kind])
		}
	}
	if r.tail != "" {
		fmt.Printf("   search tail (highest percentile with >= 10 samples beyond it): %s\n", r.tail)
	}
	if r.PerLayer == nil {
		return
	}
	for _, d := range perLayer {
		fmt.Printf("   %-42s %14.4f %-6s (%s is better)\n", d.name, r.PerLayer[d.name].Value, d.unit, d.better)
	}
	fmt.Print(r.waterfall)
}

// resultLine renders the last line of standard output: one JSON object
// with exactly the keys correct, attempted, failed and metrics — the
// end-to-end metrics, or with tracing on the per-layer ones. With several
// workloads in one run the metric names are prefixed by the workload.
func resultLine(results []*runResult, traced bool) (string, error) {
	line := struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{Correct: true, Metrics: metricSet{}}
	for _, r := range results {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		set := r.EndToEnd
		if traced {
			set = r.PerLayer
		}
		for name, v := range set {
			if len(results) > 1 {
				name = r.Workload + "." + name
			}
			line.Metrics[name] = v
		}
	}
	buf, err := json.Marshal(line)
	return string(buf), err
}
