// Command trainsel trains an estimator-selection model on generated
// workloads and saves it as a binary selector file for use by
// cmd/progressd or an embedding application.
//
// Training runs are resumable through the same segmented on-disk corpus
// the daemon's continuous-learning loop writes: -corpus seeds the
// training set with a previously exported (or live-harvested) corpus, and
// -export appends this run's freshly harvested examples to a corpus
// directory, so offline and online training share one artifact.
//
// Usage:
//
//	trainsel [-out selector.sel] [-queries N] [-scale F] [-trees M]
//	         [-dynamic] [-extended] [-seed N]
//	         [-corpus dir] [-export dir] [-skip-harvest]
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"progressest"
	"progressest/internal/catalog"
	"progressest/internal/datagen"
	"progressest/internal/mart"
	"progressest/internal/progress"
	"progressest/internal/selection"
	"progressest/internal/workload"
)

func main() {
	out := flag.String("out", "selector.sel", "output model path")
	queries := flag.Int("queries", 80, "queries per workload variant")
	scale := flag.Float64("scale", 0.15, "database scale")
	trees := flag.Int("trees", 200, "MART boosting iterations")
	dynamic := flag.Bool("dynamic", true, "use dynamic features")
	extended := flag.Bool("extended", true, "include BATCHDNE/DNESEEK/TGNINT candidates")
	seed := flag.Int64("seed", 1, "random seed")
	corpus := flag.String("corpus", "", "seed training with the examples stored in this corpus directory")
	export := flag.String("export", "", "append this run's harvested examples to this corpus directory")
	skipHarvest := flag.Bool("skip-harvest", false, "train on -corpus only, without generating new workloads")
	flag.Parse()

	var examples []selection.Example
	if *corpus != "" {
		stored, err := progressest.ImportExamples(*corpus)
		switch {
		case errors.Is(err, progressest.ErrCorpusEmpty) && !*skipHarvest:
			// A daemon that never finished a query leaves a valid empty
			// corpus; the fresh harvest below supplies the training set.
			fmt.Printf("Corpus %s is empty; training on freshly harvested examples only\n", *corpus)
		case err != nil:
			fatal(err)
		default:
			examples = append(examples, stored...)
			fmt.Printf("Loaded %d examples from corpus %s\n", len(stored), *corpus)
		}
	}

	if !*skipHarvest {
		var fresh []selection.Example
		start := time.Now()
		for _, kind := range []datagen.DatasetKind{
			datagen.TPCHLike, datagen.TPCDSLike, datagen.Real1Like, datagen.Real2Like,
		} {
			for _, lvl := range []catalog.DesignLevel{
				catalog.Untuned, catalog.PartiallyTuned, catalog.FullyTuned,
			} {
				res, err := workload.BuildAndRun(workload.Spec{
					Name: kind.String(), Kind: kind, Queries: *queries,
					Scale: *scale, Zipf: 1, Design: lvl, Seed: *seed + int64(lvl),
				}, workload.RunOptions{Seed: *seed + int64(lvl)})
				if err != nil {
					fatal(err)
				}
				fresh = append(fresh, res.Examples...)
				fmt.Printf("  %-16s %-16s -> %d pipelines\n", kind, lvl, len(res.Examples))
			}
		}
		fmt.Printf("Collected %d training examples in %.1fs\n", len(fresh), time.Since(start).Seconds())
		if *export != "" {
			if err := progressest.ExportExamples(*export, fresh); err != nil {
				fatal(err)
			}
			fmt.Printf("Exported %d examples to corpus %s\n", len(fresh), *export)
		}
		examples = append(examples, fresh...)
	} else {
		if *corpus == "" {
			fatal(fmt.Errorf("-skip-harvest requires -corpus"))
		}
		// Nothing was harvested, so -export re-materializes the imported
		// corpus (a copy/merge) instead of being silently ignored.
		if *export != "" {
			if sameDir(*export, *corpus) {
				fatal(fmt.Errorf("-export %s would append the corpus onto itself, duplicating every record; pick a different directory", *export))
			}
			if err := progressest.ExportExamples(*export, examples); err != nil {
				fatal(err)
			}
			fmt.Printf("Exported %d imported examples to corpus %s\n", len(examples), *export)
		}
	}

	kinds := progress.CoreKinds()
	if *extended {
		kinds = progress.ExtendedKinds()
	}
	start := time.Now()
	sel, err := selection.Train(examples, selection.Config{
		Kinds: kinds, Dynamic: *dynamic,
		Mart: mart.Options{Trees: *trees, Seed: *seed},
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("Trained %d error models (M=%d) on %d examples in %.1fs\n",
		len(kinds), *trees, len(examples), time.Since(start).Seconds())

	if err := sel.Save(*out); err != nil {
		fatal(err)
	}
	ev := selection.Evaluate(sel, examples)
	fmt.Printf("Saved %s (in-sample: picked-optimal %.1f%%, avg L1 %.4f, oracle %.4f)\n",
		*out, 100*ev.PickedOptimal, ev.AvgL1, ev.OracleL1)
}

// sameDir reports whether two paths name the same directory, seeing
// through relative/absolute aliases and symlinks (so -export cannot be
// pointed back at -corpus by another spelling of the same path).
func sameDir(a, b string) bool {
	ai, errA := os.Stat(a)
	bi, errB := os.Stat(b)
	if errA == nil && errB == nil {
		return os.SameFile(ai, bi)
	}
	aa, errA := filepath.Abs(a)
	bb, errB := filepath.Abs(b)
	return errA == nil && errB == nil && aa == bb
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trainsel:", err)
	os.Exit(1)
}
