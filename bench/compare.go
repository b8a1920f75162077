package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// resultSet is several runs of every workload by one binary: what
// -selfcheck writes and -compare reads.
type resultSet struct {
	Label string   `json:"label"`
	Runs  []report `json:"runs"`
}

// exactMetrics must repeat to the last digit: they are computed from
// inputs --seed does not touch.
var exactMetrics = map[string]bool{"selector_l1": true, "selector_regret": true}

// Verdicts of one workload x metric comparison.
const (
	withinBound = "within bound"
	worse       = "worse"
	unresolved  = "unresolved"
)

// verdict is one row of a comparison.
type verdict struct {
	Workload, Metric string
	MedianA, MedianB float64
	Change           float64 // share of A's median by which B is worse (negative: better)
	Spread           float64 // the wider of the two sets' quartile spreads
	Bound            float64
	Verdict          string
}

// judge applies a metric's bound to two sets of values. The change is
// worse when B's median is worse than A's by more than the bound. Where
// the run-to-run spread is itself wider than the bound the medians do not
// settle it: the row is unresolved unless every run of one side beats
// every run of the other.
func judge(def metricDef, a, b []float64) verdict {
	v := verdict{Metric: def.Name, MedianA: median(a), MedianB: median(b), Bound: def.Bound}
	sign := 1.0
	if def.Better == "higher" {
		sign = -1
	}
	if v.MedianA != 0 {
		v.Change = sign * (v.MedianB - v.MedianA) / v.MedianA
	}
	v.Spread = max(quartileSpread(a), quartileSpread(b))
	sa, sb := sortedCopy(a), sortedCopy(b)
	allWorse := sign*(sb[0]-sa[len(sa)-1]) > 0 && sign*(sb[len(sb)-1]-sa[0]) > 0
	allBetter := sign*(sb[len(sb)-1]-sa[0]) < 0 && sign*(sb[0]-sa[len(sa)-1]) < 0
	switch {
	case exactMetrics[def.Name]:
		v.Verdict = withinBound
		if sa[0] != sa[len(sa)-1] || sb[0] != sb[len(sb)-1] || sa[0] != sb[0] {
			v.Verdict = worse // any difference at all
		}
	case v.Spread > def.Bound:
		switch {
		case allBetter:
			v.Verdict = withinBound
		case allWorse && v.Change > def.Bound:
			v.Verdict = worse
		default:
			v.Verdict = unresolved
		}
	case v.Change > def.Bound:
		v.Verdict = worse
	default:
		v.Verdict = withinBound
	}
	return v
}

// compareSets judges every workload x end-to-end metric of B against A.
func compareSets(a, b resultSet) ([]verdict, error) {
	values := func(set resultSet, workload, metric string) []float64 {
		var out []float64
		for _, r := range set.Runs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
				out = append(out, m.Value)
			}
		}
		return out
	}
	var out []verdict
	for _, w := range workloadNames {
		for _, def := range endToEnd {
			va, vb := values(a, w, def.Name), values(b, w, def.Name)
			if len(va) == 0 || len(vb) == 0 {
				return nil, fmt.Errorf("%s %s: %d runs in %s, %d in %s", w, def.Name, len(va), a.Label, len(vb), b.Label)
			}
			v := judge(def, va, vb)
			v.Workload = w
			out = append(out, v)
		}
	}
	return out, nil
}

// printVerdicts writes the comparison and returns how many rows are worse.
func printVerdicts(w io.Writer, vs []verdict) (bad int) {
	fmt.Fprintf(w, "%-15s %-16s %14s %14s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "change", "spread", "bound", "verdict")
	for _, v := range vs {
		fmt.Fprintf(w, "%-15s %-16s %14.6g %14.6g %+7.1f%% %7.1f%% %5.0f%%  %s\n",
			v.Workload, v.Metric, v.MedianA, v.MedianB, 100*v.Change, 100*v.Spread, 100*v.Bound, v.Verdict)
		if v.Verdict == worse {
			bad++
		}
	}
	return bad
}

func readSet(path string) (resultSet, error) {
	var set resultSet
	data, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(data, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	if set.Label == "" {
		set.Label = filepath.Base(path)
	}
	return set, nil
}

func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	vs, err := func() ([]verdict, error) {
		a, err := readSet(pathA)
		if err != nil {
			return nil, err
		}
		b, err := readSet(pathB)
		if err != nil {
			return nil, err
		}
		return compareSets(a, b)
	}()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	if bad := printVerdicts(stdout, vs); bad > 0 {
		fmt.Fprintf(stdout, "%d rows worse\n", bad)
		return 1
	}
	return 0
}

// selfCheck runs every workload `runs` times, twice over, each run its
// own process as the driver starts it, and compares the two sets: the
// same code must agree with itself within the benchmark's own bounds.
func selfCheck(out string, seed int64, seconds float64, runs int, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	var sets [2]resultSet
	for i := range sets {
		sets[i].Label = string(rune('A' + i))
		for _, w := range workloadNames {
			for r := 0; r < runs; r++ {
				runSeed := seed + int64(i*runs+r)
				rep, err := runChild(exe, out, w, runSeed, seconds, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "bench: selfcheck %s seed %d: %v\n", w, runSeed, err)
					return 1
				}
				fmt.Fprintf(stdout, "set %s %s seed %d done\n", sets[i].Label, w, runSeed)
				sets[i].Runs = append(sets[i].Runs, *rep)
			}
		}
		if err := writeJSONFile(filepath.Join(out, "selfcheck-"+sets[i].Label+".json"), sets[i]); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
	}
	vs, err := compareSets(sets[0], sets[1])
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	if bad := printVerdicts(stdout, vs); bad > 0 {
		fmt.Fprintf(stdout, "%d rows worse: the benchmark does not agree with itself\n", bad)
		return 1
	}
	return 0
}

// runChild runs one workload in a child process and parses the result
// line it prints last.
func runChild(exe, out, workload string, seed int64, seconds float64, stderr io.Writer) (*report, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0", "-out", out)
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%w\n%s", err, buf.Bytes())
	}
	var last []byte
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	rep := &report{Workload: workload}
	if err := json.Unmarshal(last, rep); err != nil {
		return nil, fmt.Errorf("result line %q: %w", last, err)
	}
	if !rep.Correct {
		return nil, fmt.Errorf("run was not correct: %s", last)
	}
	rep.Provenance.Seed = seed
	return rep, nil
}
