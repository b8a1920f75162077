package exec_test

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"progressest/internal/catalog"
	"progressest/internal/datagen"
	"progressest/internal/exec"
	"progressest/internal/pipeline"
	"progressest/internal/plan"
	"progressest/internal/storage"
	"progressest/internal/workload"
)

// recycledJob is one run of the recycled-memory identity tests: a query
// under one of the three observation modes, and the digest of its trace
// on memory of its own.
type recycledJob struct {
	db    *storage.Database
	plan  *plan.Plan
	pipes *pipeline.Decomposition
	opts  exec.Options
	name  string
	want  [32]byte
}

// TestRecycledScratchMatchesFreshRuns runs every query of the four
// dataset kinds — unlimited, spilling and thinning — on operator memory
// of its own, then again in one shuffled interleaving through the free
// list, so each run inherits a scratch some other plan sized and
// dirtied: once on one goroutine, once from four. Every trace must be
// bit for bit the fresh one; a stale slot, key, span or arena word
// moves a counter or the clock.
func TestRecycledScratchMatchesFreshRuns(t *testing.T) {
	runRecycledJobs(t, func(j recycledJob) [32]byte {
		return traceDigest(exec.RunDecomposed(j.db, j.plan, j.pipes, j.opts))
	})
	n, bytes := exec.IdleScratches()
	t.Logf("%d idle scratches keep %d bytes", n, bytes)
}

// TestRecycledHistoryMatchesFreshRuns is the same interleaving recorded
// on snapshot histories borrowed from their free list and handed back
// after each digest, so each run's sink fills chunks, and its trace
// headers a slab, some other plan of another node count sized and left
// behind: every trace must be the one recorded on memory of its own.
func TestRecycledHistoryMatchesFreshRuns(t *testing.T) {
	runRecycledJobs(t, func(j recycledJob) [32]byte {
		h := exec.BorrowHistory()
		tr := h.Run(j.db, j.plan, j.pipes, j.opts)
		defer h.Release(tr)
		return traceDigest(tr)
	})
	n, bytes := exec.IdleHistories()
	t.Logf("%d idle histories keep %d bytes", n, bytes)
}

// runRecycledJobs digests every job's trace on memory of its own, then
// checks run against it in one shuffled order: once on one goroutine,
// once from four.
func runRecycledJobs(t *testing.T, run func(recycledJob) [32]byte) {
	kinds := []struct {
		kind   datagen.DatasetKind
		design catalog.DesignLevel
	}{
		{datagen.TPCHLike, catalog.PartiallyTuned},
		{datagen.TPCDSLike, catalog.Untuned},
		{datagen.Real1Like, catalog.FullyTuned},
		{datagen.Real2Like, catalog.Untuned},
	}
	modes := []struct {
		name string
		opts exec.Options
	}{
		{"unlimited", exec.Options{}},
		{"spilling", exec.Options{MemBudgetRows: 60}},
		{"thinning", exec.Options{TargetObservations: 4000, MaxObservations: 300}},
	}
	var jobs []recycledJob
	for _, k := range kinds {
		w, err := workload.Build(workload.Spec{
			Name: k.kind.String(), Kind: k.kind, Design: k.design, Queries: 16, Scale: 0.05, Zipf: 1, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range w.Queries {
			pl, err := w.Planner.Plan(q)
			if err != nil {
				t.Fatal(err)
			}
			pipes := pipeline.Decompose(pl)
			for _, m := range modes {
				j := recycledJob{db: w.DB, plan: pl, pipes: pipes, opts: m.opts,
					name: fmt.Sprintf("%s/%s/q%02d", k.kind, m.name, qi)}
				j.want = traceDigest(exec.RunFresh(j.db, j.plan, j.pipes, j.opts))
				jobs = append(jobs, j)
			}
		}
	}
	rand.New(rand.NewPCG(44, 1)).Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })

	check := func(t *testing.T, j recycledJob) {
		if run(j) != j.want {
			t.Errorf("%s: recycled trace differs from the fresh one", j.name)
		}
	}
	t.Run("sequential", func(t *testing.T) {
		for _, j := range jobs {
			check(t, j)
		}
	})
	t.Run("parallel4", func(t *testing.T) {
		var wg sync.WaitGroup
		for g := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := g; i < len(jobs); i += 4 {
					check(t, jobs[i])
				}
			}()
		}
		wg.Wait()
	})
}
