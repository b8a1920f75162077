package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share Op; Parent is the span that caused this one (0 for the
// operation's root). Times are nanoseconds since the trace began.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. Every span is recorded
// by the benchmark around one of its own calls; nothing inside the
// program is instrumented.
type tracer struct {
	t0   time.Time
	next atomic.Int64
	on   atomic.Bool // the handler wrapper passes through while false

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// record times fn as one span; fn gets the span's id, to name as the
// parent of the spans it causes. A nil tracer (tracing off) only calls
// fn, with id 0.
func (t *tracer) record(name string, op, parent int64, fn func(id int64)) {
	if t == nil {
		fn(0)
		return
	}
	id := t.next.Add(1)
	start := t.now()
	fn(id)
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

// len is the number of spans recorded so far.
func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// Headers that carry a client span to the handler wrapper, so the
// server-side span of a request names the socket round trip as parent.
const (
	headerOp   = "X-Bench-Op"
	headerSpan = "X-Bench-Span"
)

// tracedHandler records one span around every Server.ServeHTTP call.
func tracedHandler(t *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		op, _ := strconv.ParseInt(r.Header.Get(headerOp), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(headerSpan), 10, 64)
		t.record(routeSpan(r.Method, r.URL.Path), op, parent, func(int64) { h.ServeHTTP(w, r) })
	})
}

// routeSpan names the handler a request reaches.
func routeSpan(method, path string) string {
	switch {
	case method == http.MethodPost && path == "/queries":
		return "server.submit"
	case method == http.MethodGet && strings.HasPrefix(path, "/queries/"):
		return "server.read"
	case method == http.MethodPost && path == "/sessions":
		return "server.session_open"
	case method == http.MethodPost && strings.HasSuffix(path, "/observations"):
		return "server.observe"
	case method == http.MethodGet && strings.HasPrefix(path, "/sessions/"):
		return "server.session_read"
	}
	return "server.other"
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover (children clipped to the
// parent, overlapping children counted once).
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// windowBudget is the span-tree budget of a traced window: per span name
// the mean time per operation spent inside spans of that name, and the
// mean self time. The self times add up to the mean root span (client.op),
// so the table sums to the op time by construction. Unlike the peeled
// budgets it is measured in place, with every caller running.
func windowBudget(spans []span) []budgetRow {
	self := selfTimes(spans)
	rows := make(map[string]*budgetRow)
	ops := 0
	for _, s := range spans {
		row := rows[s.Name]
		if row == nil {
			layer, _, _ := strings.Cut(s.Name, ".")
			row = &budgetRow{Layer: layer, Call: s.Name}
			rows[s.Name] = row
		}
		row.SpanUS += float64(s.dur()) // nanoseconds until the division below
		row.SelfUS += float64(self[s.ID])
		if s.Parent == 0 {
			ops++
		}
	}
	out := make([]budgetRow, 0, len(rows))
	for _, row := range rows {
		row.SpanUS /= 1e3 * float64(max(ops, 1))
		row.SelfUS /= 1e3 * float64(max(ops, 1))
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SpanUS > out[j].SpanUS })
	return out
}

// depth is one level of a peeled budget: the same operation timed at a
// call boundary one layer further in than the level before it.
type depth struct {
	layer string    // the layer whose self time this level exposes
	call  string    // what was called
	us    []float64 // one timing per operation
}

// budgetRow is one printed row of a budget table.
type budgetRow struct {
	Layer  string  `json:"layer"`
	Call   string  `json:"call"`
	SpanUS float64 `json:"span_us"`
	SelfUS float64 `json:"self_us"`
}

// peelBudget turns the median time at each successive depth into self
// times: a level's self time is its span minus the span of the level it
// contains, and the innermost level keeps all of its own. The rows sum to
// the outermost span by construction. A level measured faster than the
// one inside it (noise between separate executions) gets self time 0 and
// passes its span inward, so the sum still holds.
func peelBudget(levels []depth) []budgetRow {
	rows := make([]budgetRow, len(levels))
	outer := 0.0
	for i, l := range levels {
		m := median(l.us)
		if i > 0 && m > outer {
			m = outer
		}
		rows[i] = budgetRow{Layer: l.layer, Call: l.call, SpanUS: m}
		outer = m
	}
	for i := range rows {
		rows[i].SelfUS = rows[i].SpanUS
		if i+1 < len(rows) {
			rows[i].SelfUS -= rows[i+1].SpanUS
		}
	}
	return rows
}

// traceFile is what -trace 1 writes next to the result.
type traceFile struct {
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Budgets  map[string][]budgetRow `json:"budgets"`
	Spans    []span                 `json:"spans"`
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
