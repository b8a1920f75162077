package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"progressest"
)

// admit_overload sizing. Queries are paced so that service time is
// sleeps: capacity is set by the four slots (~69 queries/s at ~58 ms
// each), not by the CPU, and a CPU optimisation must leave every row
// unchanged.
const (
	admitPace  = 500 * time.Microsecond
	underRate  = 40.0  // arrivals/s, ~0.6 x slot capacity
	overRate   = 140.0 // arrivals/s, ~2 x slot capacity
	underShare = 0.5   // of --seconds; `over` takes the rest
)

// The two families arrivals are drawn from, 50/50; lineitem has three
// times customer's fair-queueing weight.
var admitFamilies = [2]string{"lineitem", "customer"}

func admitEngineConfig() progressest.EngineConfig {
	return progressest.EngineConfig{
		Shards: 2, MaxLivePerShard: 2, QueueDepth: 32,
		QoSWeights: map[string]int{"lineitem": 3},
	}
}

// arrival is one scheduled submission.
type arrival struct {
	due    time.Duration // offset into the phase
	query  int
	family string
}

// familyBlock is the length of the balanced blocks arrivals take their
// family from: every block holds each family equally often, in a seeded
// order.
const familyBlock = 16

// arrivalSchedule draws a Poisson arrival process at rate per second over
// window. Families come from seeded balanced blocks and each family's
// queries from a seeded permutation walk, so the seed moves arrival times
// and order but not the mix of classes and service times. The same seed
// gives the same schedule.
func arrivalSchedule(seed int64, rate float64, window time.Duration, byFamily map[string][]int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	families := newWalker(seed*1000003 + int64(len(admitFamilies)))
	var queries [len(admitFamilies)]walker
	for i := range queries {
		queries[i] = newWalker(seed*1000003 + int64(i))
	}
	var out []arrival
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= window {
			return out
		}
		f := families.next(familyBlock) % len(admitFamilies)
		qs := byFamily[admitFamilies[f]]
		out = append(out, arrival{due: due, query: qs[queries[f].next(len(qs))], family: admitFamilies[f]})
	}
}

// queriesByFamily indexes the serving queries of the two arrival families.
func queriesByFamily(w *progressest.Workload) (map[string][]int, error) {
	out := make(map[string][]int)
	for i := 0; i < w.NumQueries(); i++ {
		out[w.QueryFamily(i)] = append(out[w.QueryFamily(i)], i)
	}
	for _, fam := range admitFamilies {
		if len(out[fam]) == 0 {
			return nil, fmt.Errorf("serving workload has no %s query", fam)
		}
	}
	return out, nil
}

// admitOutcome is what became of one arrival. Times count from the due
// time, so a stall of the generator or the gate is charged to every
// arrival it delayed.
type admitOutcome struct {
	late     time.Duration // how late the generator started it
	admitted bool
	done     time.Duration // due -> final update seen
	end      time.Duration // completion, offset into the phase
	err      error         // anything but a queue-full refusal
}

// admitPhase is one open-loop phase against a fresh engine.
type admitPhase struct {
	name     string
	window   time.Duration
	schedule []arrival
	outcomes []admitOutcome
	stats    progressest.EngineStats
	mem      memDelta
	heapMB   float64
}

// runAdmitPhase plays the schedule against Engine.StartTagged, one
// goroutine per arrival (a blocked admission is a parked goroutine), then
// waits for every arrival to resolve and drains the engine.
func runAdmitPhase(e *env, name string, sched []arrival, window time.Duration, tr *tracer) (*admitPhase, error) {
	eng := progressest.NewEngine(e.serving, admitEngineConfig(),
		progressest.MonitorOptions{Selector: e.selector, Pace: admitPace})
	ph := &admitPhase{name: name, window: window, schedule: sched, outcomes: make([]admitOutcome, len(sched))}
	serve := func(a arrival, o *admitOutcome, start time.Time, op, root int64) {
		var m *progressest.Monitor
		tr.record("engine.start_tagged", op, root, func(int64) {
			m, o.err = eng.StartTagged(context.Background(), a.query, "")
		})
		if o.err != nil {
			if progressest.IsSaturated(o.err) {
				o.err = nil // refused: the designed answer to overload
			}
			return
		}
		o.admitted = true
		tr.record("monitor.updates", op, root, func(int64) {
			var final progressest.ProgressUpdate
			if final, o.err = follow(m); o.err == nil {
				o.err = checkFinal(&final)
			}
		})
		o.end = time.Since(start)
		o.done = o.end - a.due
	}

	var wg sync.WaitGroup
	before := readMem()
	start := time.Now()
	for i, a := range sched {
		if d := a.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		o := &ph.outcomes[i]
		o.late = time.Since(start) - a.due
		wg.Add(1)
		go func() {
			defer wg.Done()
			op := opIDs.Add(1)
			tr.record("client.op", op, 0, func(id int64) { serve(a, o, start, op, id) })
		}()
	}
	wg.Wait()
	ph.mem = memSince(before)
	ph.heapMB = liveHeapMB()
	if err := drain(eng.Drain); err != nil {
		return nil, fmt.Errorf("%s: drain: %w", name, err)
	}
	ph.stats = eng.Stats()
	return ph, nil
}

// account checks that every arrival is accounted for — admitted and done,
// or refused — by the generator's own count and by the engine's, and that
// the drained engine holds nothing.
func (ph *admitPhase) account(rep *report) (admitted, refused int) {
	failed := 0
	for _, o := range ph.outcomes {
		switch {
		case o.err != nil:
			failed++
			rep.fail("%s: %v", ph.name, o.err)
		case o.admitted:
			admitted++
		default:
			refused++
		}
	}
	rep.phase(ph.name, ph.window, len(ph.schedule), failed)
	if int(ph.stats.Admitted) != admitted+failed || int(ph.stats.Rejected) != refused {
		rep.fail("%s: engine counted %d admitted / %d rejected, generator %d / %d of %d offered",
			ph.name, ph.stats.Admitted, ph.stats.Rejected, admitted+failed, refused, len(ph.schedule))
	}
	live := 0
	for _, sh := range ph.stats.Shards {
		live += sh.Live
	}
	if live != 0 || ph.stats.Queued != 0 {
		rep.fail("%s: %d live and %d queued after drain", ph.name, live, ph.stats.Queued)
	}
	return admitted, refused
}

// completions are the admitted arrivals of one family ("" for both) as
// samples of due -> done.
func (ph *admitPhase) completions(family string) []sample {
	var out []sample
	for i, o := range ph.outcomes {
		if o.admitted && o.err == nil && (family == "" || ph.schedule[i].family == family) {
			out = append(out, sample{end: o.end, dur: o.done})
		}
	}
	return out
}

func (ph *admitPhase) latenessP99MS() float64 {
	late := make([]time.Duration, len(ph.outcomes))
	for i, o := range ph.outcomes {
		late[i] = o.late
	}
	return percentile(sortedCopy(durMillis(late)), 99)
}

// goodput is the rate of completions inside the window. Arrivals still
// queued or running when it closes complete during the drain and do not
// count.
func (ph *admitPhase) goodput() (perSec float64, n int) {
	for _, c := range ph.completions("") {
		if c.end <= ph.window {
			n++
		}
	}
	return float64(n) / ph.window.Seconds(), n
}

// runAdmit is admit_overload: `under` below slot capacity for the
// latency rows, `over` at twice capacity for goodput, waits and refusals.
func runAdmit(e *env, cfg runConfig, rep *report) error {
	byFamily, err := queriesByFamily(e.serving)
	if err != nil {
		return err
	}
	if cfg.trace {
		window := time.Duration(float64(cfg.seconds) * tracedWindowShare)
		var phases [2]*admitPhase
		for i, tr := range []*tracer{nil, cfg.tr} {
			name := [2]string{"untraced", "traced"}[i]
			sched := arrivalSchedule(cfg.seed, overRate, window, byFamily)
			if phases[i], err = runAdmitPhase(e, name, sched, window, tr); err != nil {
				return err
			}
			phases[i].account(rep)
		}
		asLoop := func(ph *admitPhase) loopResult {
			return loopResult{window: ph.window, ops: ph.completions(""), mem: ph.mem}
		}
		spans := cfg.tr.snapshot()
		rep.putTraceWindow(asLoop(phases[0]), asLoop(phases[1]), len(spans))
		rep.Budgets["window"] = windowBudget(spans)
		rep.put("server.reads_per_op", 0, 0) // no server: updates arrive on a channel
		rep.put("server.retained", 0, 0)
		rep.putEngine(phases[1].stats)
		return nil
	}

	underWindow := time.Duration(float64(cfg.seconds) * underShare)
	under, err := runAdmitPhase(e, "under", arrivalSchedule(cfg.seed, underRate, underWindow, byFamily), underWindow, nil)
	if err != nil {
		return err
	}
	under.account(rep)
	overWindow := cfg.seconds - underWindow
	over, err := runAdmitPhase(e, "over", arrivalSchedule(cfg.seed+1, overRate, overWindow, byFamily), overWindow, nil)
	if err != nil {
		return err
	}
	_, refused := over.account(rep)

	lat := sortedCopy(millis(under.completions("")))
	if len(lat) == 0 {
		return fmt.Errorf("under: no arrival completed")
	}
	tailP := tailPercentile[admitOverload]
	rep.put("op_p50_ms", percentile(lat, 50), len(lat))
	rep.put("op_tail_ms", percentile(lat, tailP), len(lat))
	rep.Notes["op_tail_percentile"] = tailP
	rep.Notes["op_tail_supported_percentile"] = supportedTail(len(lat))
	goodput, n := over.goodput()
	rep.put("ops_per_s", goodput, n)
	a, b := millis(over.completions(admitFamilies[0])), millis(over.completions(admitFamilies[1]))
	rep.put("part_a_p50_ms", median(a), len(a))
	rep.put("part_b_p50_ms", median(b), len(b))
	// Per arrival of `under`, where each one is a whole query: in `over`
	// the share of refusals, which allocate next to nothing, moves the mean.
	rep.putAllocs(under.mem, len(under.schedule))
	rep.put("live_heap_mb", over.heapMB, 1)
	rep.Notes["over_refused_share"] = float64(refused) / float64(max(len(over.schedule), 1))
	rep.Notes["under_lateness_p99_ms"] = under.latenessP99MS()
	rep.Notes["over_lateness_p99_ms"] = over.latenessP99MS()
	rep.Notes["over_offered_per_s"] = float64(len(over.schedule)) / overWindow.Seconds()
	return nil
}
