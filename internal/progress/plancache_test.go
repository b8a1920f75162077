package progress

import (
	"testing"

	"progressest/internal/exec"
)

// TestPlanCacheKeepsEntryOnMismatch: a start whose driver totals or known
// flag differ from what filled a pipeline's slot gets a private context
// and leaves the slot as it is; a matching start shares it — only the
// drivers' totals key it — and the static prefix is built once per slot.
func TestPlanCacheKeepsEntryOnMismatch(t *testing.T) {
	tr := manualTrace() // one pipeline, driver node 0
	cache := NewPlanCache(tr.Pipes)
	start := func(known bool, totals []int64) *OnlinePipeline {
		v := NewCachedOnlineView(tr.Plan, tr.Pipes, cache)
		v.OnPipelineStart(exec.PipelineStart{Pipe: 0, DriverTotalsKnown: known, DriverTotals: totals})
		return v.Pipelines[0]
	}
	first := start(true, []int64{100, 0})
	entry := cache.starts[0].Load()
	if entry == nil || first.PipeContext != entry.ctx {
		t.Fatal("the first start did not fill the slot")
	}
	for _, c := range []struct {
		name   string
		known  bool
		totals []int64
	}{
		{"other totals", true, []int64{120, 0}},
		{"totals unknown", false, []int64{100, 0}},
		{"no totals", false, nil},
	} {
		p := start(c.known, c.totals)
		if p.PipeContext == entry.ctx || p.shared != nil {
			t.Fatalf("%s: the start shared the slot's context", c.name)
		}
		if p.DriverKnown != c.known || (c.known && p.E0[0] != float64(c.totals[0])) {
			t.Fatalf("%s: private context has known %v, E0 %v", c.name, p.DriverKnown, p.E0)
		}
		if cache.starts[0].Load() != entry || !entry.ctx.DriverKnown || entry.ctx.E0[0] != 100 {
			t.Fatalf("%s: the slot changed", c.name)
		}
	}
	again := start(true, []int64{100, 7}) // node 1 is no driver
	if again.PipeContext != entry.ctx {
		t.Fatal("a matching start did not reuse the slot")
	}

	builds := 0
	build := func(c *PipeContext) []float64 {
		builds++
		return []float64{c.E0[0]}
	}
	a, b := first.StaticPrefix(build), again.StaticPrefix(build)
	if builds != 1 || &a[0] != &b[0] {
		t.Fatalf("the slot's static prefix was built %d times, want once and shared", builds)
	}
	if s := start(true, []int64{120, 0}).StaticPrefix(build); builds != 2 || s[0] != 120 {
		t.Fatalf("private static prefix %v after %d builds", s, builds)
	}
	if s := *entry.static.Load(); s[0] != 100 {
		t.Fatalf("the slot's static prefix became %v", s)
	}
}
