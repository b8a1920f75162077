package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"progressest"
)

// metricValue is one reported number, as the driver's contract shapes it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's output, with exactly the keys
// the driver's contract names.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// phaseReport counts what one phase of a workload attempted.
type phaseReport struct {
	Name      string  `json:"name"`
	Seconds   float64 `json:"seconds"`
	Attempted int     `json:"attempted"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
}

// provenance says where a result came from.
type provenance struct {
	Seed       int64   `json:"seed"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Clients    int     `json:"clients"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

// report is one run of one workload. The driver reads the four result
// keys; the rest is written to the result file for people.
type report struct {
	Workload   string                 `json:"workload"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Metrics    map[string]metricValue `json:"metrics"`
	Samples    map[string]int         `json:"samples"`
	Phases     []phaseReport          `json:"phases"`
	Errors     []string               `json:"errors,omitempty"`
	Notes      map[string]float64     `json:"notes,omitempty"`
	Budgets    map[string][]budgetRow `json:"budgets,omitempty"`
	Provenance provenance             `json:"provenance"`
}

func newReport(workload string, cfg runConfig) *report {
	return &report{
		Workload: workload,
		Correct:  true,
		Metrics:  make(map[string]metricValue),
		Samples:  make(map[string]int),
		Notes:    make(map[string]float64),
		Budgets:  make(map[string][]budgetRow),
		Provenance: provenance{
			Seed:       cfg.seed,
			NProc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Clients:    clientCount(),
			GoVersion:  runtime.Version(),
			Commit:     commit(),
			Seconds:    cfg.seconds.Seconds(),
			Trace:      cfg.trace,
		},
	}
}

// commit is the VCS revision the binary was built from, when the build
// happened inside a git checkout (the driver's is not one).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

var unitOf = func() map[string]string {
	m := make(map[string]string)
	for _, d := range endToEnd {
		m[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		m[d.Name] = d.Unit
	}
	return m
}()

// put records a metric under a name spec.go declares; n is how many
// samples stand behind it (0 when the number is a plain count).
func (r *report) put(name string, value float64, n int) {
	unit, ok := unitOf[name]
	if !ok {
		panic("bench: metric " + name + " is not declared in spec.go")
	}
	r.Metrics[name] = metricValue{Value: value, Unit: unit}
	if n > 0 {
		r.Samples[name] = n
	}
}

// fail records a failed correctness check: the run is no longer correct.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	if len(r.Errors) < 20 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// phase appends a phase and folds its counts into the run's totals.
func (r *report) phase(name string, d time.Duration, attempted, failed int) {
	r.Phases = append(r.Phases, phaseReport{
		Name: name, Seconds: d.Seconds(),
		Attempted: attempted, Succeeded: attempted - failed, Failed: failed,
	})
	r.Attempted += attempted
	r.Failed += failed
	if failed > 0 {
		r.Correct = false
	}
}

// putLoop reports a closed-loop window as the request-level metrics:
// rate, median and tail from per-slice medians, the two part timings, and
// what the process allocated per operation.
func (r *report) putLoop(res loopResult, tailP float64) {
	slices := max(2, int(res.window/time.Second))
	st := slicedStats(res.ops, res.window, slices, tailP)
	n := len(res.ops)
	r.put("ops_per_s", median(st.perSec), n)
	r.put("op_p50_ms", median(st.p50), n)
	r.put("op_tail_ms", median(st.tail), n)
	r.Notes["op_tail_percentile"] = tailP
	r.Notes["op_tail_supported_percentile"] = supportedTail(st.minN)
	r.Notes["slices"] = float64(slices)
	r.put("part_a_p50_ms", median(durMillis(res.partA)), len(res.partA))
	r.put("part_b_p50_ms", median(durMillis(res.partB)), len(res.partB))
	r.putAllocs(res.mem, n)
}

func (r *report) putAllocs(m memDelta, ops int) {
	ops = max(ops, 1)
	r.put("allocs_per_op", float64(m.mallocs)/float64(ops), ops)
	r.put("kb_per_op", float64(m.bytes)/1024/float64(ops), ops)
}

// putQuality reports the paper's figure of merit for the selector that
// served the run.
func (r *report) putQuality(q quality, n int) {
	r.put("selector_l1", q.selectorL1, n)
	r.put("selector_regret", q.selectorL1-q.oracleL1, n)
	if q.selectorL1 < q.oracleL1 {
		r.fail("selector_l1 %v is below oracle_l1 %v", q.selectorL1, q.oracleL1)
	}
}

// putEngine reports the admission counters of the traced window.
func (r *report) putEngine(st progressest.EngineStats) {
	r.put("engine.admitted", float64(st.Admitted), 0)
	r.put("engine.rejected", float64(st.Rejected), 0)
	share := 0.0
	if total := st.Admitted + st.Rejected; total > 0 {
		share = float64(st.Rejected) / float64(total)
	}
	r.put("engine.refused_share", share, int(st.Admitted+st.Rejected))
	r.put("engine.admit_wait_p50_ms", st.QueueWait.P50MS, st.QueueWait.Samples)
	r.put("engine.admit_wait_p99_ms", st.QueueWait.P99MS, st.QueueWait.Samples)
	for _, fam := range []string{"lineitem", "customer"} {
		name := "engine.queue_wait_p99_ms." + fam
		r.put(name, 0, 0)
		for _, c := range st.Classes {
			if c.Class == fam {
				r.put(name, c.QueueWait.P99MS, c.QueueWait.Samples)
			}
		}
	}
}

// putTraceWindow reports what the traced window itself measured.
func (r *report) putTraceWindow(untraced, traced loopResult, spans int) {
	rate := func(res loopResult) float64 { return float64(len(res.ops)) / res.window.Seconds() }
	r.put("trace.untraced_ops_per_s", rate(untraced), len(untraced.ops))
	r.put("trace.ops_per_s", rate(traced), len(traced.ops))
	r.put("trace.overhead_share", 1-rate(traced)/rate(untraced), len(traced.ops))
	r.put("trace.spans", float64(spans), 0)
	r.put("runtime.gc_cycles", float64(traced.mem.gcCycles), 0)
	r.put("runtime.gc_pause_ms", float64(traced.mem.gcPauseNS)/1e6, int(traced.mem.gcCycles))
}

// budgetNotes say how each budget table was measured.
var budgetNotes = map[string]string{
	"window":  "span tree of the traced window, mean per op, every caller running; self times sum to client.op",
	"native":  "one op peeled depth by depth, single caller, medians; self times sum to the first span",
	"session": "one op peeled depth by depth, single caller, medians; self times sum to the first span",
}

// print writes every metric by name with unit and sample count, then the
// phases, the budget tables and any failed check.
func (r *report) print(w io.Writer, defs []metricDef) {
	fmt.Fprintf(w, "== %s  seed=%d  seconds=%g  trace=%v  clients=%d  nproc=%d  %s  commit=%s\n",
		r.Workload, r.Provenance.Seed, r.Provenance.Seconds, r.Provenance.Trace,
		r.Provenance.Clients, r.Provenance.NProc, r.Provenance.GoVersion, r.Provenance.Commit)
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			fmt.Fprintf(w, "  %-36s MISSING\n", d.Name)
			continue
		}
		fmt.Fprintf(w, "  %-36s %14.6g %-6s n=%d\n", d.Name, m.Value, m.Unit, r.Samples[d.Name])
	}
	for _, p := range r.Phases {
		fmt.Fprintf(w, "  phase %-10s %6.2fs attempted=%d succeeded=%d failed=%d\n",
			p.Name, p.Seconds, p.Attempted, p.Succeeded, p.Failed)
	}
	notes := make([]string, 0, len(r.Notes))
	for k := range r.Notes {
		notes = append(notes, k)
	}
	sort.Strings(notes)
	for _, k := range notes {
		fmt.Fprintf(w, "  note  %-34s %g\n", k, r.Notes[k])
	}
	names := make([]string, 0, len(r.Budgets))
	for k := range r.Budgets {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  budget %s (%s)\n", k, budgetNotes[k])
		sum := 0.0
		for _, row := range r.Budgets[k] {
			fmt.Fprintf(w, "    %-15s %-44s span %9.1f us  self %9.1f us\n", row.Layer, row.Call, row.SpanUS, row.SelfUS)
			sum += row.SelfUS
		}
		fmt.Fprintf(w, "    %-15s %-44s %28.1f us\n", "sum of self", "", sum)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", e)
	}
}

// drain runs a Drain-shaped call under a deadline.
func drain(f func(context.Context) error) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return f(ctx)
}
