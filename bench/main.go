// Command bench is the repository's benchmark: four workloads against the
// in-process daemon, request-level metrics with tracing off, and a
// per-layer budget measured from outside with tracing on. BENCHMARK.json
// at the repository root describes it to the driver; README.md says what
// each workload is for and which layer should move which metric.
//
//	go run . -workload native_closed -seed 1 -seconds 10 -trace 0
//	go run . -seed 1                     # all four workloads
//	go run . -selfcheck                  # two sets of runs, then compare
//	go run . -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "one of native_closed, session_stream, admit_overload, learn_cycle (default: all four)")
	seed := fs.Int64("seed", 1, "seed of the generated load: query order and arrival times")
	seconds := fs.Float64("seconds", 24, "length of the measured window (BENCHMARK.json: run_seconds)")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	out := fs.String("out", "out", "directory for result and trace files")
	compare := fs.Bool("compare", false, "compare two result sets: -compare A.json B.json")
	selfcheck := fs.Bool("selfcheck", false, "run two result sets of this binary and compare them")
	runs := fs.Int("runs", 5, "with -selfcheck: runs per workload and set, each with its own seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result-set files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *selfcheck:
		return selfCheck(*out, *seed, *seconds, *runs, stdout, stderr)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	names := workloadNames
	if *workload != "" {
		if !slices.Contains(workloadNames, *workload) {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		names = []string{*workload}
	}
	code := 0
	for _, name := range names {
		cfg := runConfig{
			seed:    *seed,
			seconds: time.Duration(*seconds * float64(time.Second)),
			trace:   *trace == 1,
			setups:  setupRepeats,
		}
		correct, err := runAndPrint(name, cfg, *out, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		if !correct {
			code = 1
		}
	}
	return code
}

// runAndPrint runs one workload and prints its metrics for people, then
// the result line the driver reads: the last line of the output.
func runAndPrint(name string, cfg runConfig, out string, stdout io.Writer) (correct bool, err error) {
	rep, err := runWorkload(name, cfg, out)
	if err != nil {
		return false, err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	rep.print(stdout, defs)
	line, err := json.Marshal(resultLine{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return rep.Correct, nil
}

// runWorkload sets one workload up, runs it and writes its result file.
func runWorkload(name string, cfg runConfig, out string) (*report, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(out, "tmp-"+name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.dir = dir

	if cfg.trace {
		cfg.setups = 1 // setup_s is an end-to-end metric
		cfg.tr = newTracer()
	}
	e, setupS, err := timedSetup(name, dir, cfg.setups)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	rep := newReport(name, cfg)
	workloads := map[string]func(*env, runConfig, *report) error{
		nativeClosed: runNative, sessionStream: runSession,
		admitOverload: runAdmit, learnCycle: runLearn,
	}
	if err := workloads[name](e, cfg, rep); err != nil {
		return nil, err
	}
	suffix := "result"
	defs := endToEnd
	if cfg.trace {
		if err := runProbes(e, cfg, rep); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		trace := traceFile{Workload: name, Seed: cfg.seed, Budgets: rep.Budgets, Spans: cfg.tr.snapshot()}
		if err := writeJSONFile(filepath.Join(out, "trace-"+name+".json"), trace); err != nil {
			return nil, err
		}
		suffix, defs = "layers", perLayer
	} else {
		rep.put("setup_s", setupS, cfg.setups)
		rep.putQuality(e.quality, len(e.holdout))
	}
	for _, d := range defs {
		if _, ok := rep.Metrics[d.Name]; !ok {
			rep.fail("metric %s was not measured", d.Name)
		}
	}
	if len(rep.Metrics) != len(defs) {
		rep.fail("%d metrics reported, %d declared", len(rep.Metrics), len(defs))
	}
	return rep, writeJSONFile(filepath.Join(out, suffix+"-"+name+".json"), rep)
}
