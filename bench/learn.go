package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"progressest"
)

// learn_cycle sizing. The retrain and restart phases run a fixed number
// of times on a corpus of fixed size, before the timed serve phase grows
// it: a retrain's cost follows the corpus size, and a corpus grown by a
// timed window would make retrain_ms follow serve throughput.
const (
	learnCycles   = 5   // serve one pass of the queries, then retrain
	learnRestarts = 9   // Drain/Close, then OpenLearning
	serveShare    = 0.5 // of --seconds
)

func learningConfig(e *env) progressest.LearningConfig {
	return progressest.LearningConfig{
		Dir:               e.corpusDir,
		Selector:          progressest.SelectorConfig{Trees: selectorTrees, Seed: dataSeed},
		DisableBackground: true, // retrains happen when the benchmark asks
		SeedSelector:      e.selector,
		MaxSegmentBytes:   corpusSegmentBytes,
		MaxExamples:       -1,
		FamilyModels:      true,
	}
}

func learnEngine(e *env, l *progressest.Learning) *progressest.Engine {
	cfg := servingEngineConfig()
	cfg.RouteByFamily = true
	return progressest.NewEngine(e.serving, cfg, progressest.MonitorOptions{Learning: l})
}

// corpusLedger follows the corpus size across Learning instances: it
// must always equal the seed corpus plus everything harvested.
type corpusLedger struct{ expected int }

func (c *corpusLedger) check(l *progressest.Learning, when string, rep *report) {
	want := c.expected + l.HarvestStats().Examples
	if got := l.CorpusSize(); got != want {
		rep.fail("%s: corpus holds %d examples, want %d (seed + harvested)", when, got, want)
	}
}

// closeInstance folds the instance's harvest into the ledger and closes it.
func (c *corpusLedger) closeInstance(l *progressest.Learning, when string, rep *report) error {
	c.check(l, when, rep)
	c.expected += l.HarvestStats().Examples
	return l.Close()
}

// runLearn is learn_cycle: the native loop with harvest on the completion
// path, retrains and restarts at corpus scale.
func runLearn(e *env, cfg runConfig, rep *report) error {
	lc := learningConfig(e)
	l, err := progressest.OpenLearning(lc)
	if err != nil {
		return fmt.Errorf("open learning: %w", err)
	}
	ledger := &corpusLedger{expected: len(e.corpus)}
	ledger.check(l, "open", rep)
	bodies := submitBodies(e.serving.NumQueries())
	op := func(c *caller, opID int64) error { return c.nativeOp(bodies, opID) }

	var retrains, reopens []time.Duration
	if !cfg.trace {
		// cycles: one pass of the queries, so every serving family has
		// new evidence and its model retrains too, then a retrain.
		d := startDaemon(learnEngine(e, l), nil)
		callers := newCallers(d, e.clients, cfg.seed, nil)
		start := time.Now()
		failed := 0
		for i := 0; i < learnCycles; i++ {
			res := closedLoop(callers, 0, len(bodies), op)
			if res.firstErr != nil {
				failed += res.failed
				rep.fail("cycles: %v", res.firstErr)
			}
			dur, err := retrain(callers[0])
			if err != nil {
				failed++
				rep.fail("cycles: %v", err)
				continue
			}
			retrains = append(retrains, dur)
		}
		rep.phase("cycles", time.Since(start), learnCycles, failed)
		closeCallers(callers)
		if err := d.stop(); err != nil {
			return fmt.Errorf("cycles: drain: %w", err)
		}

		// restart: what a daemon restart pays to get the corpus, its
		// indexes and the persisted models back.
		start = time.Now()
		for i := 0; i < learnRestarts; i++ {
			if err := ledger.closeInstance(l, "restart", rep); err != nil {
				return fmt.Errorf("restart: close: %w", err)
			}
			t := time.Now()
			if l, err = progressest.OpenLearning(lc); err != nil {
				return fmt.Errorf("restart: reopen: %w", err)
			}
			reopens = append(reopens, time.Since(t))
			ledger.check(l, "reopen", rep)
			if _, ok := l.Current(); !ok {
				rep.fail("reopen: no serving model restored")
			}
		}
		rep.phase("restart", time.Since(start), learnRestarts, 0)
	}

	window := time.Duration(float64(cfg.seconds) * serveShare)
	loopErr := runHTTPLoop(learnEngine(e, l), e, cfg, rep, window, nativeWarmOps, "/queries", op)
	if !cfg.trace {
		// The serve loop reported its submit and read round trips under
		// these names; this workload's parts are the retrain and the reopen.
		rep.put("part_a_p50_ms", median(durMillis(retrains)), len(retrains))
		rep.put("part_b_p50_ms", median(durMillis(reopens)), len(reopens))
	}
	if st := l.HarvestStats(); st.Errors != 0 {
		rep.fail("serve: %d failed corpus appends", st.Errors)
	}
	rep.Notes["corpus_examples"] = float64(l.CorpusSize())
	rep.Notes["corpus_segments"] = float64(l.CorpusStats().Segments)
	if err := ledger.closeInstance(l, "serve", rep); err != nil && loopErr == nil {
		loopErr = fmt.Errorf("close learning: %w", err)
	}
	return loopErr
}

// retrain issues POST /models/retrain and checks that it came back with
// a gate decision.
func retrain(c *caller) (time.Duration, error) {
	status, dur, err := c.do(http.MethodPost, "/models/retrain", nil, "client.retrain", 0, 0)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("POST /models/retrain: status %d: %s", status, c.body.Bytes())
	}
	var v progressest.ModelVersion
	if err := json.Unmarshal(c.body.Bytes(), &v); err != nil || v.Decision == "" {
		return 0, fmt.Errorf("POST /models/retrain: no decision in %q (%v)", c.body.Bytes(), err)
	}
	return dur, nil
}
