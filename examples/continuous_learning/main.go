// Continuous learning: the daemon improving under its own traffic. The
// example opens a workload and an on-disk learning corpus, serves a burst
// of queries with v0 (the fixed DNE estimator, no model at all), harvests
// every finished query into the corpus, retrains, and serves the next
// burst with the freshly hot-swapped selector version — then retrains
// again and shows the version history the /models endpoint would report.
package main

import (
	"fmt"
	"log"
	"os"

	"progressest"
)

func main() {
	w, err := progressest.Open(progressest.Config{
		Dataset: progressest.TPCH,
		Queries: 40,
		Scale:   0.1,
		Zipf:    1,
		Design:  progressest.PartiallyTuned,
		Seed:    7,
	})
	if err != nil {
		log.Fatal(err)
	}

	dir, err := os.MkdirTemp("", "progressest-corpus-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// The learning loop: corpus on disk, manual retrains for the demo
	// (progressd runs the same thing on a size/age policy in background).
	lrn, err := progressest.OpenLearning(progressest.LearningConfig{
		Dir:               dir,
		Selector:          progressest.SelectorConfig{Trees: 60},
		DisableBackground: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer lrn.Close()

	runBurst := func(from, n int) {
		for i := from; i < from+n; i++ {
			m, err := w.Start(i, progressest.MonitorOptions{UpdateEvery: 8, Learning: lrn})
			if err != nil {
				log.Fatal(err)
			}
			for range m.Updates {
			}
			if _, err := m.Wait(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  query %2d done (served by model v%d)\n", i, m.ModelVersion())
		}
	}

	fmt.Println("burst 1: no model yet — v0, the fixed DNE estimator, serving; harvesting on")
	runBurst(0, 8)
	fmt.Printf("corpus: %d examples from %d queries\n\n", lrn.CorpusSize(), lrn.HarvestStats().Queries)

	v1, err := lrn.Retrain()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("retrained: v%d on %d examples (holdout L1 %.4f over %d)\n\n",
		v1.ID, v1.CorpusSize, v1.HoldoutL1, v1.HoldoutN)

	fmt.Println("burst 2: served by the hot-swapped selector, still harvesting")
	runBurst(8, 8)
	fmt.Printf("corpus: %d examples\n\n", lrn.CorpusSize())

	v2, err := lrn.Retrain()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("retrained again: v%d on %d examples (holdout L1 %.4f)\n\n",
		v2.ID, v2.CorpusSize, v2.HoldoutL1)

	fmt.Println("version history (what GET /models reports):")
	for _, v := range lrn.Versions() {
		marker := " "
		if v.Current {
			marker = "*"
		}
		fmt.Printf("  %s v%d  source=%-7s corpus=%3d  holdout L1=%.4f  trained %s\n",
			marker, v.ID, v.Source, v.CorpusSize, v.HoldoutL1, v.TrainedAt.Format("15:04:05"))
	}
}
