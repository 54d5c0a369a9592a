// Command perfbench is cicero's benchmark: one process that builds a
// workload's speech store with the offline pipeline, serves it over
// loopback HTTP to open- and closed-loop clients, holds dialogues and
// publishes row deltas, checks every answer against an in-process
// oracle, and prints the workload's metrics as one JSON line.
//
//	bash perfbench/run.sh --workload ask-hot --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// records spans at the layers' public seams and reports per-layer
// metrics instead. See README.md in this directory.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

func main() {
	name := flag.String("workload", "", "workload to run: build, ask-hot, ask-longtail or churn")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	workDir := flag.String("work-dir", ".bench_build", "directory for run artifacts")
	flag.Parse()

	w, err := lookupWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("want --seconds > 0 and --trace 0 or 1"))
	}
	r := &runner{w: w, seed: *seed, secs: *seconds, traced: *trace == 1,
		workers: runtime.GOMAXPROCS(0), workDir: *workDir, m: metrics{}}
	if err := r.run(context.Background()); err != nil {
		fatal(err)
	}
	line, err := r.result()
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result renders the run's result line: every end-to-end metric on an
// untraced run, every per-layer metric on a traced one.
func (r *runner) result() ([]byte, error) {
	specs := endToEnd
	if r.traced {
		specs = perLayer
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: len(r.wrong) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		v, ok := r.m[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured (%v)", s.Name, v)
		}
		out.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	if out.Attempted < 1 {
		return nil, fmt.Errorf("nothing was attempted")
	}
	for _, msg := range r.wrong {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	return json.Marshal(out)
}

// rssPeakMB reads the process's peak resident set (VmHWM).
func rssPeakMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// spanPath is where a traced run leaves its spans.
func (r *runner) spanPath() string {
	return filepath.Join(r.workDir, "spans-"+r.w.name+".jsonl")
}
