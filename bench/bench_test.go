package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"progressest"
)

// benchmarkFile is BENCHMARK.json as the driver's contract shapes it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// TestBenchmarkFileMatchesSpec: BENCHMARK.json and spec.go name the same
// workloads and metrics, inside the limits the driver refuses a file for.
func TestBenchmarkFileMatchesSpec(t *testing.T) {
	f := readBenchmarkFile(t)
	if want := []string{"bash", "bench/run.sh"}; !slices.Equal(f.Command, want) {
		t.Errorf("command %q, want %q", f.Command, want)
	}
	if want := []string{"bench"}; !slices.Equal(f.Paths, want) {
		t.Errorf("paths %q, want %q", f.Paths, want)
	}
	if f.RunSeconds < 10 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d: the issue allows no window under 10 s, the driver none over 60 s", f.RunSeconds)
	}
	// 4 + 22 runs per workload inside 3420 s, with a set-up of
	// setupRepeats x ~1.5 s, a warm-up and two builds.
	if runs := 4 + 22*len(f.Workloads); float64(runs)*(float64(f.RunSeconds)+8) > 3300 {
		t.Errorf("%d runs of %d s do not fit the driver's 3420 s", runs, f.RunSeconds)
	}

	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads %q, want %q", names, workloadNames)
	}

	for _, list := range []struct {
		key        string
		file, spec []metricDef
	}{{"end_to_end", f.EndToEnd, endToEnd}, {"per_layer", f.PerLayer, perLayer}} {
		if len(list.file) != len(list.spec) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in spec.go", list.key, len(list.file), len(list.spec))
			continue
		}
		for i := range list.spec {
			if list.file[i] != list.spec[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, spec.go %+v", list.key, i, list.file[i], list.spec[i])
			}
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, the driver takes 16 and 128", len(endToEnd), len(perLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	setupBound, maxBound := 0.0, 0.0
	for _, d := range slices.Concat(endToEnd, perLayer) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q: outside the driver's alphabet", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %s is named twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		maxBound = max(maxBound, d.Bound)
		if d.Name == "setup_s" {
			setupBound = d.Bound
			if d.Unit != "s" || d.Better != "lower" {
				t.Errorf("setup_s must be in s, lower better: %+v", d)
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v must be the largest (%v)", setupBound, maxBound)
	}
	for _, d := range perLayer {
		if d.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", d.Name)
		}
	}
}

// runForTest runs one workload for a sub-second window, with one set-up,
// and returns the keys and the content of the line it printed last.
func runForTest(t *testing.T, workload string, trace bool) (keys []string, res resultLine) {
	t.Helper()
	var stdout bytes.Buffer
	cfg := runConfig{seed: 7, seconds: 600 * time.Millisecond, trace: trace, setups: 1}
	correct, err := runAndPrint(workload, cfg, t.TempDir(), &stdout)
	if err != nil || !correct {
		t.Fatalf("correct=%v err=%v\n%s", correct, err, stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	last := lines[len(lines)-1]
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(last), &raw); err != nil {
		t.Fatalf("last line %q: %v", last, err)
	}
	for k := range raw {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatal(err)
	}
	return keys, res
}

func checkResult(t *testing.T, defs []metricDef, keys []string, res resultLine, positive bool) {
	t.Helper()
	if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(keys, want) {
		t.Errorf("result keys %q, want %q", keys, want)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("metric %s in %q, declared %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", d.Name, m.Value)
		case positive && m.Value <= 0:
			t.Errorf("end-to-end metric %s = %v: the driver divides by it", d.Name, m.Value)
		}
	}
}

// TestWorkloadsEmitDeclaredMetrics runs every workload for a sub-second
// window as the driver would, and one of them traced: the result line has
// the contract's keys and exactly the declared metrics, none of them zero.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			keys, res := runForTest(t, w, false)
			checkResult(t, endToEnd, keys, res, true)
		})
	}
	t.Run("traced", func(t *testing.T) {
		keys, res := runForTest(t, sessionStream, true)
		checkResult(t, perLayer, keys, res, false)
		var sum float64
		for _, l := range []string{"http", "server", "progress", "ingest_apply", "ingest_decode"} {
			sum += res.Metrics["budget.session."+l+"_us"].Value
		}
		if op := res.Metrics["budget.session.op_us"].Value; math.Abs(sum-op) > 1e-6*op {
			t.Errorf("session budget rows sum to %v us, the op takes %v us", sum, op)
		}
	})
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct{ p, want float64 }{
		{50, 50}, {51, 60}, {90, 90}, {99, 100}, {100, 100}, {1, 10}, {10, 10}, {10.1, 20},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %v", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2 {
		t.Errorf("median = %v, want the nearest-rank 2", got)
	}
}

// TestTenSamplesBeyond: a tail is reported only where at least ten
// samples lie beyond it.
func TestTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {39, 0}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := supportedTail(tc.n); got != tc.want {
			t.Errorf("supportedTail(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	if got := samplesBeyond(1000, 99); got != 10 {
		t.Errorf("samplesBeyond(1000, 99) = %d, want 10", got)
	}
	if got := samplesBeyond(999, 99); got != 9 {
		t.Errorf("samplesBeyond(999, 99) = %d, want 9", got)
	}
}

// TestQuartileSpreadMatchesPython pins the spread to what Python's
// statistics.quantiles(xs, n=4) gives, which the driver computes.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	// quantiles([1..10], n=4) = [2.75, 5.5, 8.25]
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// quantiles([2, 4, 4, 5, 9], n=4) = [3.0, 4.0, 7.0]
	if got, want := quartileSpread([]float64{9, 4, 2, 5, 4}), (7.0-3.0)/4.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{3, 3, 3}); got != 0 {
		t.Errorf("spread of equal values = %v", got)
	}
}

func TestSlicedStatsMedianIgnoresOneBadSlice(t *testing.T) {
	var samples []sample
	for s := 0; s < 4; s++ {
		dur := time.Millisecond
		if s == 2 {
			dur = 50 * time.Millisecond // one disturbed second
		}
		for i := 0; i < 100; i++ {
			samples = append(samples, sample{end: time.Duration(s)*time.Second + time.Duration(i)*time.Millisecond, dur: dur})
		}
	}
	samples = append(samples, sample{end: 5 * time.Second, dur: time.Hour}) // past the window: dropped
	st := slicedStats(samples, 4*time.Second, 4, 99)
	if got := median(st.tail); got != 1 {
		t.Errorf("median slice tail = %v ms, want 1", got)
	}
	if got := median(st.perSec); got != 100 {
		t.Errorf("median slice rate = %v/s, want 100", got)
	}
	if st.minN != 100 {
		t.Errorf("smallest slice holds %d samples, want 100", st.minN)
	}
}

// TestSeededScheduleDeterminism: the same seed gives the same arrival
// times and the same query order; another seed gives others.
func TestSeededScheduleDeterminism(t *testing.T) {
	byFamily := map[string][]int{"lineitem": {0, 3, 5, 8}, "customer": {1, 2, 9}}
	a := arrivalSchedule(42, overRate, 3*time.Second, byFamily)
	b := arrivalSchedule(42, overRate, 3*time.Second, byFamily)
	if len(a) < 300 || !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, %d and %d arrivals, equal=%v", len(a), len(b), reflect.DeepEqual(a, b))
	}
	if c := arrivalSchedule(43, overRate, 3*time.Second, byFamily); reflect.DeepEqual(a, c) {
		t.Error("another seed gave the same schedule")
	}
	for i, x := range a {
		if i > 0 && x.due < a[i-1].due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
		if !slices.Contains(byFamily[x.family], x.query) {
			t.Fatalf("arrival %d: query %d is not of family %s", i, x.query, x.family)
		}
	}

	order := func(seed int64, id int) []int {
		c := newCaller("", nil, seed, id, nil)
		out := make([]int, 100)
		for i := range out {
			out[i] = c.walk.next(40)
		}
		return out
	}
	if !slices.Equal(order(42, 0), order(42, 0)) {
		t.Error("same seed and caller, different query order")
	}
	if slices.Equal(order(42, 0), order(42, 1)) || slices.Equal(order(42, 0), order(43, 0)) {
		t.Error("another caller or seed walks the same order")
	}
	first := order(42, 0)[:40]
	slices.Sort(first)
	for i, q := range first {
		if q != i {
			t.Fatalf("the first 40 ops are not a permutation of the 40 queries: %v", first)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Op: 1, Name: "client.op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "client.submit", Start: 10, End: 40},
		{ID: 3, Parent: 2, Op: 1, Name: "server.submit", Start: 15, End: 35},
		{ID: 4, Parent: 1, Op: 1, Name: "client.read", Start: 30, End: 60},     // overlaps span 2: counted once
		{ID: 5, Parent: 1, Op: 1, Name: "client.read", Start: 90, End: 120},    // clipped to the parent
		{ID: 6, Parent: 0, Op: 2, Name: "client.op", Start: 200, End: 260},     // a second op, no children
		{ID: 7, Parent: 99, Op: 3, Name: "server.other", Start: 300, End: 310}, // parent not recorded
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - (30 + 20 + 10), 2: 10, 3: 20, 4: 30, 5: 30, 6: 60, 7: 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}

// TestWindowBudgetSumsToTheOp: on spans as the benchmark records them
// (children inside their parent, one after the other) the self times of
// the span-tree budget add up to the mean root span.
func TestWindowBudgetSumsToTheOp(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Op: 1, Name: "client.op", Start: 0, End: 1000},
		{ID: 2, Parent: 1, Op: 1, Name: "client.submit", Start: 100, End: 400},
		{ID: 3, Parent: 2, Op: 1, Name: "server.submit", Start: 150, End: 350},
		{ID: 4, Parent: 1, Op: 1, Name: "client.read", Start: 400, End: 600},
		{ID: 5, Parent: 4, Op: 1, Name: "server.read", Start: 450, End: 500},
		{ID: 6, Parent: 1, Op: 1, Name: "client.read", Start: 700, End: 900},
		{ID: 7, Parent: 0, Op: 2, Name: "client.op", Start: 2000, End: 3000},
		{ID: 8, Parent: 7, Op: 2, Name: "client.submit", Start: 2000, End: 2600},
	}
	rows := windowBudget(spans)
	byCall := make(map[string]budgetRow)
	sum := 0.0
	for _, r := range rows {
		byCall[r.Call] = r
		sum += r.SelfUS
	}
	if rows[0].Call != "client.op" || rows[0].SpanUS != 1 {
		t.Fatalf("first row %+v, want client.op with a mean span of 1 us", rows[0])
	}
	if math.Abs(sum-rows[0].SpanUS) > 1e-12 {
		t.Errorf("self times sum to %v us, the op takes %v us", sum, rows[0].SpanUS)
	}
	want := map[string]budgetRow{
		"client.op":     {Layer: "client", Call: "client.op", SpanUS: 1, SelfUS: (300 + 400) / 2e3},
		"client.submit": {Layer: "client", Call: "client.submit", SpanUS: (300 + 600) / 2e3, SelfUS: (100 + 600) / 2e3},
		"server.submit": {Layer: "server", Call: "server.submit", SpanUS: 200 / 2e3, SelfUS: 200 / 2e3},
		"client.read":   {Layer: "client", Call: "client.read", SpanUS: 400 / 2e3, SelfUS: 350 / 2e3},
		"server.read":   {Layer: "server", Call: "server.read", SpanUS: 50 / 2e3, SelfUS: 50 / 2e3},
	}
	if !reflect.DeepEqual(byCall, want) {
		t.Errorf("rows %+v\nwant %+v", byCall, want)
	}
}

// TestPeelBudgetSumsToTheOp: the rows of a peeled budget add up to the
// outermost span, also when noise makes an inner depth read slower than
// the one around it.
func TestPeelBudgetSumsToTheOp(t *testing.T) {
	rows := peelBudget([]depth{
		{"http", "", []float64{100, 90, 110}},
		{"server", "", []float64{70}},
		{"engine", "", []float64{75}}, // slower than the depth around it
		{"exec", "", []float64{30}},
	})
	wantSelf := []float64{30, 0, 40, 30}
	sum := 0.0
	for i, r := range rows {
		if r.SelfUS != wantSelf[i] {
			t.Errorf("%s self = %v, want %v", r.Layer, r.SelfUS, wantSelf[i])
		}
		sum += r.SelfUS
	}
	if sum != rows[0].SpanUS || sum != 100 {
		t.Errorf("rows sum to %v, the op takes %v", sum, rows[0].SpanUS)
	}
}

func finalUpdate() *progressest.ProgressUpdate {
	return &progressest.ProgressUpdate{
		Seq: 12, Time: 3.5, Query: 1, Done: true, TrueProgress: 1,
		Pipelines: []progressest.PipelineProgress{
			{Pipeline: 0, Estimate: 1, Done: true},
			{Pipeline: 1, Estimate: 1, Done: true},
		},
	}
}

// TestChecksCatchTamperedUpdates: each correctness check fails on an
// update that breaks the one thing it guards.
func TestChecksCatchTamperedUpdates(t *testing.T) {
	if err := checkFinal(finalUpdate()); err != nil {
		t.Fatalf("untampered final update: %v", err)
	}
	tamper := map[string]func(u *progressest.ProgressUpdate){
		"not done":           func(u *progressest.ProgressUpdate) { u.Done = false },
		"query below 1":      func(u *progressest.ProgressUpdate) { u.Query = 0.999 },
		"truth not 1":        func(u *progressest.ProgressUpdate) { u.TrueProgress = -1 },
		"pipeline below 1":   func(u *progressest.ProgressUpdate) { u.Pipelines[1].Estimate = 0.98 },
		"pipeline not ended": func(u *progressest.ProgressUpdate) { u.Pipelines[0].Done = false },
	}
	for name, f := range tamper {
		u := finalUpdate()
		f(u)
		if checkFinal(u) == nil {
			t.Errorf("checkFinal accepted a final update with %s", name)
		}
		if sameFinal(finalUpdate(), u) == nil {
			t.Errorf("sameFinal accepted a final update with %s", name)
		}
	}
	if checkFinal(nil) == nil {
		t.Error("checkFinal accepted done without an update")
	}

	if err := checkUpdate(finalUpdate(), 12); err != nil {
		t.Errorf("equal seq: %v", err)
	}
	if checkUpdate(finalUpdate(), 13) == nil {
		t.Error("checkUpdate accepted a seq that went back")
	}
	for _, bad := range []float64{-0.01, 1.01, math.NaN()} {
		u := finalUpdate()
		u.Query = bad
		if checkUpdate(u, 0) == nil {
			t.Errorf("checkUpdate accepted query estimate %v", bad)
		}
		u = finalUpdate()
		u.Pipelines[0].Estimate = bad
		if checkUpdate(u, 0) == nil {
			t.Errorf("checkUpdate accepted pipeline estimate %v", bad)
		}
	}

	fin := &finals{first: make(map[int]*progressest.ProgressUpdate)}
	if err := fin.check(3, finalUpdate()); err != nil {
		t.Fatal(err)
	}
	if err := fin.check(3, finalUpdate()); err != nil {
		t.Errorf("second completion of the same input: %v", err)
	}
	u := finalUpdate()
	u.Time += 1e-9
	if fin.check(3, u) == nil {
		t.Error("a final update differing in one field passed the determinism check")
	}
	if err := fin.check(4, u); err != nil {
		t.Errorf("first completion of another input: %v", err)
	}

	rep := newReport(nativeClosed, runConfig{})
	rep.phase("measure", time.Second, 10, 0)
	rep.fail("tampered")
	if rep.Correct {
		t.Error("a failed check left the run correct")
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, withinBound},
		{"slower inside the bound", lower, steady, []float64{105, 106, 104, 105, 107}, withinBound},
		{"slower beyond the bound", lower, steady, []float64{115, 116, 114, 115, 117}, worse},
		{"faster", lower, steady, []float64{50, 51, 49, 50, 52}, withinBound},
		{"rate down beyond the bound", higher, steady, []float64{85, 86, 84, 85, 87}, worse},
		{"rate up", higher, steady, []float64{150, 151, 149, 150, 152}, withinBound},
		{"spread wider than the bound", lower, []float64{80, 100, 120, 90, 130}, []float64{85, 125, 100, 140, 95}, unresolved},
		{"wide spread, every run better", lower, []float64{80, 100, 120, 90, 130}, []float64{40, 50, 60, 45, 65}, withinBound},
		{"wide spread, every run worse", lower, []float64{80, 100, 120, 90, 130}, []float64{160, 200, 240, 180, 260}, worse},
	} {
		if got := judge(tc.def, tc.a, tc.b).Verdict; got != tc.want {
			t.Errorf("%s: %q, want %q", tc.name, got, tc.want)
		}
	}
	exact := metricDef{Name: "selector_l1", Unit: "error", Better: "lower", Bound: 0.01}
	if got := judge(exact, []float64{0.04, 0.04}, []float64{0.04, 0.04}).Verdict; got != withinBound {
		t.Errorf("identical exact metric: %q", got)
	}
	if got := judge(exact, []float64{0.04, 0.04}, []float64{0.04, 0.04000001}).Verdict; got != worse {
		t.Errorf("exact metric off in the last digits: %q", got)
	}
}

func TestCompareSets(t *testing.T) {
	// Three runs per workload; every inexact metric scaled towards worse.
	set := func(scale float64) resultSet {
		var s resultSet
		for _, w := range workloadNames {
			for run := 0; run < 3; run++ {
				r := report{Workload: w, Metrics: make(map[string]metricValue)}
				for _, d := range endToEnd {
					v := 100.0
					switch {
					case exactMetrics[d.Name]:
					case d.Better == "higher":
						v = (v + float64(run)) / scale
					default:
						v = (v + float64(run)) * scale
					}
					r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
				}
				s.Runs = append(s.Runs, r)
			}
		}
		return s
	}
	var out bytes.Buffer
	vs, err := compareSets(set(1), set(1.5))
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != len(workloadNames)*len(endToEnd) {
		t.Fatalf("%d rows, want one per workload and metric", len(vs))
	}
	if bad, want := printVerdicts(&out, vs), len(workloadNames)*(len(endToEnd)-len(exactMetrics)); bad != want {
		t.Errorf("%d rows worse, want the %d inexact ones\n%s", bad, want, out.String())
	}
	if vs, err = compareSets(set(1), set(1.01)); err != nil || printVerdicts(&out, vs) != 0 {
		t.Errorf("a 1%% change was judged worse (err %v)\n%s", err, out.String())
	}
	short := set(1)
	short.Runs = short.Runs[:3] // the first workload only
	if _, err := compareSets(set(1), short); err == nil {
		t.Error("a set without runs of a workload compared without error")
	}
}
