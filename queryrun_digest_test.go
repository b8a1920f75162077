package progressest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"progressest/internal/exec"
)

// digestKinds are the estimators a QueryRun answers for: the selectable
// ones, then the two oracle models.
var digestKinds = []Estimator{DNE, TGN, LUO, PMAX, SAFE, BATCHDNE, DNESEEK, TGNINT, OracleGetNext, OracleBytes}

// runDigest folds every output of a QueryRun into h: per pipeline its
// observation count, every kind's series and L1/L2 error, the true
// series, the feature vector and the eq. 5 weight; then per kind the
// whole-query series and its errors, and the true whole-query series.
// Every length is folded in.
func runDigest(h hash.Hash, run *QueryRun) {
	var b [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	vec := func(s []float64) {
		u64(uint64(len(s)))
		for _, v := range s {
			f64(v)
		}
	}
	u64(uint64(run.NumPipelines()))
	for p := 0; p < run.NumPipelines(); p++ {
		u64(uint64(run.Observations(p)))
		for _, e := range digestKinds {
			vec(run.Estimates(p, e))
			l1, l2 := run.Errors(p, e)
			f64(l1)
			f64(l2)
		}
		vec(run.TrueProgress(p))
		vec(run.Features(p))
		f64(run.PipelineWeight(p))
	}
	for _, e := range digestKinds {
		vec(run.QueryEstimates(e))
		l1, l2 := run.QueryErrors(e)
		f64(l1)
		f64(l2)
	}
	vec(run.QueryTrueProgress())
}

// waitRun executes query qi the way Start does — the plan entry's
// monitor, batched delivery, finish — synchronously and with execOpts'
// observation budget, and returns what Wait hands back.
func waitRun(t *testing.T, w *Workload, qi int, execOpts exec.Options) *QueryRun {
	t.Helper()
	pq, err := w.planned(qi)
	if err != nil {
		t.Fatal(err)
	}
	m, err := newMonitor(pq.plan, pq.pipes, pq.starts, w.inner.Spec.Name, w.inner.QueryFamily(qi), qi, MonitorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	execOpts.Observer, execOpts.SnapshotBatch = m.obs, m.obs.every
	m.finish(exec.RunDecomposed(w.inner.DB, pq.plan, pq.pipes, execOpts), nil)
	run, err := m.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestQueryRunMatchesRecordedDigest pins every QueryRun output — series,
// errors, features and weights of every pipeline, and the whole-query
// series — for every query of the four dataset kinds, to digests
// recorded while each run was replayed through offline per-pipeline
// views of its trace. Runs come from Workload.Run and from Monitor.Wait,
// with the default observation budget and with thinning forced.
func TestQueryRunMatchesRecordedDigest(t *testing.T) {
	want := map[Dataset][3]string{ // Run, Wait, Wait with thinning
		TPCH: {
			"e8be30c74319d8a1f1a5916492401644ae2b6d2d31f091f9b1adee3939d962c4",
			"e8be30c74319d8a1f1a5916492401644ae2b6d2d31f091f9b1adee3939d962c4",
			"b392ad853330aa9c77dc060727dae195552c3d71f8cd04719435c9a0ec4238d3",
		},
		TPCDS: {
			"640bf21d002b8f3538c1b3d53303511a3c671185bd53b5369ce3cfe48ace70de",
			"640bf21d002b8f3538c1b3d53303511a3c671185bd53b5369ce3cfe48ace70de",
			"a95836a446d38511b547d9ffe668b71e1fe322696c1f9893963859fa5f404a5b",
		},
		Real1: {
			"f026e89c35839713e1e82dc09880c5088c56ad736a2af31494d3ccfce26d6ad8",
			"f026e89c35839713e1e82dc09880c5088c56ad736a2af31494d3ccfce26d6ad8",
			"8772a3809a222fdc3f69383c904fbb5df01717cbb26d81df261c47babddddcd7",
		},
		Real2: {
			"ba9c3ca28d3ab778eb92af38736c5346d283b48f091f8cf53085ad663857be25",
			"ba9c3ca28d3ab778eb92af38736c5346d283b48f091f8cf53085ad663857be25",
			"93368d8b8065a6831a2ddc246152cf9abbf61e70706cb1f4789ce79c5308e25a",
		},
	}
	thinning := exec.Options{TargetObservations: 900, MaxObservations: 64}
	for _, ds := range []Dataset{TPCH, TPCDS, Real1, Real2} {
		t.Run(ds.String(), func(t *testing.T) {
			w, err := Open(Config{Dataset: ds, Queries: 16, Scale: 0.08, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			var hs [3]hash.Hash
			for i := range hs {
				hs[i] = sha256.New()
			}
			for qi := 0; qi < w.NumQueries(); qi++ {
				run, err := w.Run(qi)
				if err != nil {
					t.Fatal(err)
				}
				runDigest(hs[0], run)
				runDigest(hs[1], waitRun(t, w, qi, exec.Options{}))
				runDigest(hs[2], waitRun(t, w, qi, thinning))
			}
			for i, h := range hs {
				if got := hex.EncodeToString(h.Sum(nil)); got != want[ds][i] {
					t.Errorf("%s digest %d: %s, want %s", ds, i, got, want[ds][i])
				}
			}
		})
	}
}
