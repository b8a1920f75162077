package workload

import (
	"reflect"
	"runtime"
	"testing"

	"progressest/internal/datagen"
)

// TestRunParallelMatchesSequential proves the worker pool is a pure
// speedup: with the memory-contention budgets drawn up front in query
// order, Run on four workers yields exactly the examples — same values,
// same order — it yields on one.
func TestRunParallelMatchesSequential(t *testing.T) {
	w, err := Build(Spec{
		Name: "tpch", Kind: datagen.TPCHLike, Queries: 10, Scale: 0.08, Zipf: 1, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(procs int) *Result {
		t.Helper()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		res, err := w.Run(RunOptions{Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, par := run(1), run(4)
	if len(par.Examples) != len(seq.Examples) {
		t.Fatalf("parallel %d examples, sequential %d", len(par.Examples), len(seq.Examples))
	}
	if len(seq.Examples) == 0 {
		t.Fatal("no examples harvested")
	}
	for i := range seq.Examples {
		if !reflect.DeepEqual(par.Examples[i], seq.Examples[i]) {
			t.Fatalf("example %d diverges between parallel and sequential", i)
		}
	}
	if par.NumQueries != seq.NumQueries || par.NumPipelines != seq.NumPipelines {
		t.Fatalf("counts diverge: parallel %d/%d sequential %d/%d",
			par.NumQueries, par.NumPipelines, seq.NumQueries, seq.NumPipelines)
	}
	if !reflect.DeepEqual(par.OpPipelineShare, seq.OpPipelineShare) {
		t.Fatal("operator shares diverge")
	}
}
