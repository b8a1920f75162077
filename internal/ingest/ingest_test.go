package ingest

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"progressest/internal/exec"
)

// testSpec is a minimal two-node session plan: a TableScan with a known
// total feeding a Filter, one pipeline.
func testSpec() *Spec {
	total := int64(100)
	return &Spec{
		Workload: "ext",
		Family:   "fam",
		Nodes: []NodeSpec{
			{Op: "TableScan", Table: "t", EstRows: 100, RowWidth: 8, Total: &total},
			{Op: "Filter", Children: []int{0}, EstRows: 50, RowWidth: 8},
		},
	}
}

func mustBuild(t *testing.T, spec *Spec) *Model {
	t.Helper()
	m, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// eventCounter counts the observer events a Runner synthesizes.
type eventCounter struct {
	exec.BaseObserver
	starts, snaps, ends, done int
}

func (c *eventCounter) OnPipelineStart(exec.PipelineStart) { c.starts++ }
func (c *eventCounter) OnSnapshots(b []exec.Snapshot)      { c.snaps += len(b) }
func (c *eventCounter) OnPipelineEnd(int, float64)         { c.ends++ }
func (c *eventCounter) OnDone(*exec.Trace)                 { c.done++ }

func snapEv(time float64, deltas ...Delta) Event {
	return Event{Snapshot: &SnapshotEvent{Time: time, Deltas: deltas}}
}

func TestBuildValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"no nodes", func(s *Spec) { s.Nodes = nil }},
		{"unknown op", func(s *Spec) { s.Nodes[0].Op = "FlumeShuffle" }},
		{"negative est_rows", func(s *Spec) { s.Nodes[0].EstRows = -1 }},
		{"negative total", func(s *Spec) { n := int64(-5); s.Nodes[0].Total = &n }},
		{"child after parent", func(s *Spec) { s.Nodes[0].Children = []int{1} }},
		{"unreachable node", func(s *Spec) { s.Nodes[1].Children = nil }},
		{"child used twice", func(s *Spec) { s.Nodes[1].Children = []int{0, 0} }},
		{"pipeline out of range", func(s *Spec) {
			s.Pipelines = []PipelineSpec{{Nodes: []int{0, 1, 7}, Drivers: []int{0}}}
		}},
		{"driver not a member", func(s *Spec) {
			s.Pipelines = []PipelineSpec{{Nodes: []int{0, 1}, Drivers: []int{2}}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := testSpec()
			tc.mutate(spec)
			if _, err := Build(spec); !errors.Is(err, ErrInvalid) {
				t.Fatalf("want ErrInvalid, got %v", err)
			}
		})
	}
}

func TestBuildRejectsNonDFSOrder(t *testing.T) {
	// HashJoin visiting child 1 before child 0 renumbers the nodes, so
	// observation deltas would address the wrong counters — reject.
	spec := &Spec{
		Family: "fam",
		Nodes: []NodeSpec{
			{Op: "TableScan", Table: "a", EstRows: 10},
			{Op: "TableScan", Table: "b", EstRows: 10},
			{Op: "HashJoin", Children: []int{1, 0}, EstRows: 10},
		},
	}
	if _, err := Build(spec); !errors.Is(err, ErrInvalid) {
		t.Fatalf("want ErrInvalid for non-DFS order, got %v", err)
	}
}

func TestBuildKnowability(t *testing.T) {
	m := mustBuild(t, testSpec())
	if len(m.Known) == 0 || !m.Known[0] {
		t.Fatalf("pipeline 0 should have known driver totals: %v", m.Known)
	}
	spec := testSpec()
	spec.Nodes[0].Total = nil
	m = mustBuild(t, spec)
	if m.Known[0] {
		t.Fatal("pipeline 0 without driver totals must be unknown")
	}
}

func TestRunnerRejectsOutOfOrder(t *testing.T) {
	r := NewRunner(mustBuild(t, testSpec()), &eventCounter{}, 0, 0)
	if err := r.Apply(&Batch{Events: []Event{snapEv(2, Delta{Node: 0, K: 5})}}); err != nil {
		t.Fatal(err)
	}
	// Time moving backwards and a duplicate timestamp both reject.
	for _, tm := range []float64{1, 2} {
		err := r.Apply(&Batch{Events: []Event{snapEv(tm, Delta{Node: 0, K: 1})}})
		if !errors.Is(err, ErrOutOfOrder) {
			t.Fatalf("snapshot at %v: want ErrOutOfOrder, got %v", tm, err)
		}
	}
	// The rejected events left no trace; the stream continues cleanly.
	if r.Observations() != 1 {
		t.Fatalf("rejected snapshots were retained: %d", r.Observations())
	}
	if err := r.Apply(&Batch{Events: []Event{snapEv(3, Delta{Node: 0, K: 1})}}); err != nil {
		t.Fatal(err)
	}
}

func TestRunnerRejectsRegression(t *testing.T) {
	obs := &eventCounter{}
	r := NewRunner(mustBuild(t, testSpec()), obs, 0, 0)
	if err := r.Apply(&Batch{Events: []Event{snapEv(1, Delta{Node: 0, K: 5, R: 40})}}); err != nil {
		t.Fatal(err)
	}
	err := r.Apply(&Batch{Events: []Event{snapEv(2, Delta{Node: 0, K: -1})}})
	if !errors.Is(err, ErrRegression) {
		t.Fatalf("want ErrRegression, got %v", err)
	}
	// A batch that fails mid-way applies nothing of the failing event:
	// the first (valid) delta set must not have leaked into the counters.
	err = r.Apply(&Batch{Events: []Event{snapEv(3, Delta{Node: 0, K: 2}, Delta{Node: 1, R: -8})}})
	if !errors.Is(err, ErrRegression) {
		t.Fatalf("want ErrRegression, got %v", err)
	}
	if r.Observations() != 1 || obs.snaps != 1 {
		t.Fatalf("rejected snapshot partially applied: %d retained, %d delivered", r.Observations(), obs.snaps)
	}
	tr, err := r.Finish(nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.N[0] != 5 || tr.FinalR[0] != 40 {
		t.Fatalf("final counters polluted by rejected deltas: K=%d R=%d", tr.N[0], tr.FinalR[0])
	}
}

func TestRunnerRejectsUnknownNodeAndPipeline(t *testing.T) {
	r := NewRunner(mustBuild(t, testSpec()), &eventCounter{}, 0, 0)
	if err := r.Apply(&Batch{Events: []Event{snapEv(1, Delta{Node: 9, K: 1})}}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("unknown node: want ErrInvalid, got %v", err)
	}
	if err := r.Apply(&Batch{Events: []Event{{Start: &StartEvent{Pipeline: 4, Time: 1}}}}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("unknown pipeline: want ErrInvalid, got %v", err)
	}
	if err := r.Apply(&Batch{Events: []Event{{Start: &StartEvent{Pipeline: 0, Time: 1}}}}); err != nil {
		t.Fatal(err)
	}
	if err := r.Apply(&Batch{Events: []Event{{Start: &StartEvent{Pipeline: 0, Time: 2}}}}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("double start: want ErrInvalid, got %v", err)
	}
}

func TestRunnerObservationLimit(t *testing.T) {
	r := NewRunner(mustBuild(t, testSpec()), &eventCounter{}, 0, 2)
	for i := 0; i < 2; i++ {
		if err := r.Apply(&Batch{Events: []Event{snapEv(float64(i+1), Delta{Node: 0, K: 1})}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Apply(&Batch{Events: []Event{snapEv(3, Delta{Node: 0, K: 1})}}); !errors.Is(err, ErrLimit) {
		t.Fatalf("want ErrLimit, got %v", err)
	}
}

func TestRunnerCompletion(t *testing.T) {
	obs := &eventCounter{}
	r := NewRunner(mustBuild(t, testSpec()), obs, 0, 0)
	if err := r.Apply(&Batch{Events: []Event{snapEv(1, Delta{Node: 0, K: 5})}}); err != nil {
		t.Fatal(err)
	}
	// An end before the pipeline's start, or in the future, rejects —
	// and a rejected Finish leaves the session completable.
	if _, err := r.Finish([]PipeEnd{{Pipeline: 0, Time: 99}}); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("future end: want ErrOutOfOrder, got %v", err)
	}
	if _, err := r.Finish([]PipeEnd{{Pipeline: 1, Time: 1}}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("unknown pipeline end: want ErrInvalid, got %v", err)
	}
	tr, err := r.Finish([]PipeEnd{{Pipeline: 0, Time: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if obs.starts != 1 || obs.ends != 1 || obs.done != 1 {
		t.Fatalf("event counts after completion: %+v", obs)
	}
	if tr.PipeSpans[0].End != 1 || !tr.DriverTotalsKnown[0] || tr.DriverTotal[0] != 100 {
		t.Fatalf("synthesized trace: spans %v known %v totals %v", tr.PipeSpans, tr.DriverTotalsKnown, tr.DriverTotal)
	}
	if err := r.Apply(&Batch{Events: []Event{snapEv(2)}}); !errors.Is(err, ErrCompleted) {
		t.Fatalf("post-completion batch: want ErrCompleted, got %v", err)
	}
	if _, err := r.Finish(nil); !errors.Is(err, ErrCompleted) {
		t.Fatalf("double Finish: want ErrCompleted, got %v", err)
	}
}

func TestDecodeBatchStrict(t *testing.T) {
	if _, err := DecodeBatch([]byte(`{"events":[],"bogus":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := DecodeBatch([]byte(`{"done":true} trailing`)); !errors.Is(err, ErrInvalid) {
		t.Fatalf("trailing garbage: want ErrInvalid, got %v", err)
	}
	both := `{"events":[{"start":{"pipeline":0,"time":1},"snapshot":{"time":1}}]}`
	if _, err := DecodeBatch([]byte(both)); !errors.Is(err, ErrInvalid) {
		t.Fatalf("start+snapshot event: want ErrInvalid, got %v", err)
	}
	if _, err := DecodeBatch([]byte(`{"events":[{}]}`)); !errors.Is(err, ErrInvalid) {
		t.Fatalf("empty event: want ErrInvalid, got %v", err)
	}
	huge := []byte(`{"done":` + strings.Repeat(" ", MaxBatchBytes) + `true}`)
	if _, err := DecodeBatch(huge); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("oversized batch: want ErrBatchTooLarge, got %v", err)
	}
	b, err := DecodeBatch([]byte(`{"events":[{"snapshot":{"time":1,"deltas":[{"node":0,"k":3}]}}],"done":true,"ends":[{"pipeline":0,"time":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Events) != 1 || !b.Done || len(b.Ends) != 1 {
		t.Fatalf("decoded batch: %+v", b)
	}

	// The grammar, case by case (decode.go spells it out): everything
	// refused matches ErrInvalid and carries the wire prefix.
	snap := func(deltas string) string {
		return `{"events":[{"snapshot":{"time":1,"deltas":[` + deltas + `]}}]}`
	}
	for _, tc := range []struct {
		name, body string
		ok         bool
	}{
		{"case-folded keys", `{"EVENTS":[],"Done":true}`, false},
		{"escaped key", `{"d\u006fne":true}`, false},
		{"duplicate key", `{"done":false,"done":true}`, false},
		{"duplicate snapshot", `{"events":[{"snapshot":{"time":1},"snapshot":{"time":2}}]}`, false},
		{"duplicate delta key", snap(`{"node":0,"k":1,"k":2}`), false},
		{"bare null", `null`, false},
		{"null start beside a snapshot", `{"events":[{"start":null,"snapshot":{"time":1}}]}`, false},
		{"null events", `{"events":null}`, false},
		{"null deltas", `{"events":[{"snapshot":{"time":1,"deltas":null}}]}`, false},
		{"null counter", snap(`{"node":0,"k":null}`), false},
		{"null done", `{"done":null}`, false},
		{"fractional node", snap(`{"node":1.0}`), false},
		{"exponent counter", snap(`{"node":0,"k":1e2}`), false},
		{"20-digit counter", snap(`{"node":0,"r":99999999999999999999}`), false},
		{"counter one past int64", snap(`{"node":0,"w":9223372036854775808}`), false},
		{"fractional pipeline", `{"events":[{"start":{"pipeline":0.5,"time":1}}]}`, false},
		{"float out of range", `{"events":[{"snapshot":{"time":1e999}}]}`, false},
		{"leading zero", snap(`{"node":01}`), false},
		{"string value", snap(`{"node":"0"}`), false},
		{"key of another shape", snap(`{"node":0,"time":1}`), false},
		{"trailing comma", `{"done":true,}`, false},
		{"array body", `[]`, false},
		{"empty body", ``, false},
		{"second value", `{"done":true}{}`, false},
		{"NUL after the body", "{\"done\":true}\x00", false},

		{"empty batch", `{}`, true},
		{"int64 extremes", snap(`{"node":0,"k":9223372036854775807,"r":-9223372036854775808,"w":-0}`), true},
		{"any member order", `{"ends":[{"time":2,"pipeline":0}],"done":true,"events":[{"snapshot":{"deltas":[{"w":1,"node":0}],"time":2}}]}`, true},
		{"insignificant whitespace", " {\t\"done\" :\r\n true , \"events\" : [ { \"start\" : { \"pipeline\" : 0 , \"time\" : 1.5e0 } } ] } \n", true},
		{"float forms", `{"events":[{"snapshot":{"time":-0.0E+0}},{"start":{"pipeline":0,"time":1e-400}}]}`, true},
	} {
		_, err := checkAgainstReference(t, new(BatchDecoder), []byte(tc.body))
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case !tc.ok && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case !tc.ok && (!errors.Is(err, ErrInvalid) || !strings.HasPrefix(err.Error(), "ingest: invalid batch: ")):
			t.Errorf("%s: want ErrInvalid with the wire prefix, got %v", tc.name, err)
		}
	}
}

// TestRunnerRejectsCounterOverflow: a cumulative counter that would pass
// int64 is refused whole — across snapshots, and between two deltas for
// one node inside a snapshot — and the session stays at the last
// consistent prefix instead of harvesting a negative "monotone" counter.
func TestRunnerRejectsCounterOverflow(t *testing.T) {
	const big = 1<<63 - 1
	r := NewRunner(mustBuild(t, testSpec()), exec.BaseObserver{}, 0, 0)
	if err := r.Apply(&Batch{Events: []Event{snapEv(1, Delta{Node: 0, K: big, R: big - 5})}}); err != nil {
		t.Fatal(err)
	}
	for name, ev := range map[string]Event{
		"k across snapshots":  snapEv(2, Delta{Node: 0, K: 1}),
		"r across snapshots":  snapEv(2, Delta{Node: 1, W: 7}, Delta{Node: 0, R: 6}),
		"w inside a snapshot": snapEv(2, Delta{Node: 1, W: big}, Delta{Node: 1, K: 3, W: 1}),
	} {
		if err := r.Apply(&Batch{Events: []Event{ev}}); !errors.Is(err, ErrInvalid) {
			t.Fatalf("%s: want ErrInvalid, got %v", name, err)
		}
	}
	if r.Observations() != 1 {
		t.Fatalf("a refused snapshot was retained: %d observations", r.Observations())
	}
	// Nothing of the refused snapshots applied: the same node still has
	// exactly the headroom it had.
	if err := r.Apply(&Batch{Events: []Event{snapEv(2, Delta{Node: 0, R: 5}, Delta{Node: 1, K: 3, W: big})}}); err != nil {
		t.Fatalf("in-range snapshot after the refusals: %v", err)
	}
	tr, err := r.Finish(nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.N[0] != big || tr.FinalR[0] != big || tr.N[1] != 3 || tr.FinalW[1] != big {
		t.Fatalf("final counters N=%v R=%v W=%v", tr.N, tr.FinalR, tr.FinalW)
	}
}

// TestSpecJSONRoundTrip proves the wire encoding loses nothing Build
// consumes: a spec round-tripped through JSON builds an identical model.
func TestSpecJSONRoundTrip(t *testing.T) {
	spec := testSpec()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec2, err := DecodeSpec(strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := mustBuild(t, spec), mustBuild(t, spec2)
	if m1.Plan.String() != m2.Plan.String() {
		t.Fatalf("plans diverge after round-trip:\n%s\nvs\n%s", m1.Plan, m2.Plan)
	}
	for i := range m1.Total {
		if m1.Total[i] != m2.Total[i] {
			t.Fatalf("node %d total diverges: %d vs %d", i, m1.Total[i], m2.Total[i])
		}
	}
}
