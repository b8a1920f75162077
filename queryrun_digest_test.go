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

// runDigest folds every output of a QueryRun into two hashes. pipes
// gets, per pipeline, its observation count, every kind's series and
// L1/L2 error, the true series and the feature vector, then the true
// whole-query series. query gets the served whole-query reads: per
// pipeline the eq. 5 weight, then per kind the whole-query series and
// its errors. Every length is folded in.
func runDigest(pipes, query hash.Hash, run *QueryRun) {
	var b [8]byte
	u64 := func(h hash.Hash, v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	f64 := func(h hash.Hash, v float64) { u64(h, math.Float64bits(v)) }
	vec := func(h hash.Hash, s []float64) {
		u64(h, uint64(len(s)))
		for _, v := range s {
			f64(h, v)
		}
	}
	u64(pipes, uint64(run.NumPipelines()))
	for p := 0; p < run.NumPipelines(); p++ {
		u64(pipes, uint64(run.Observations(p)))
		for _, e := range digestKinds {
			vec(pipes, run.Estimates(p, e))
			l1, l2 := run.Errors(p, e)
			f64(pipes, l1)
			f64(pipes, l2)
		}
		vec(pipes, run.TrueProgress(p))
		vec(pipes, run.Features(p))
		f64(query, run.PipelineWeight(p))
	}
	vec(pipes, run.QueryTrueProgress())
	for _, e := range digestKinds {
		vec(query, run.QueryEstimates(e))
		l1, l2 := run.QueryErrors(e)
		f64(query, l1)
		f64(query, l2)
	}
}

// waitRun executes query qi the way Start does, synchronously and with
// execOpts' observation budget, and returns what Wait hands back.
func waitRun(t *testing.T, w *Workload, qi int, execOpts exec.Options) *QueryRun {
	t.Helper()
	_, run := servedStream(t, w, qi, MonitorOptions{}, execOpts)
	return run
}

// TestQueryRunMatchesRecordedDigest pins every QueryRun output — series,
// errors, features and weights of every pipeline, and the whole-query
// series — for every query of the four dataset kinds. Runs come from
// Workload.Run and from Monitor.Wait, with the default observation budget
// and with thinning forced. The per-pipeline digests were recorded while
// each run was replayed through offline per-pipeline views of its trace;
// the whole-query digests when the finished run came to report the
// whole-query series its monitor served (TestFinishedQuerySeriesIsServed).
func TestQueryRunMatchesRecordedDigest(t *testing.T) {
	wantPipes := map[Dataset][3]string{ // Run, Wait, Wait with thinning
		TPCH: {
			"1a40d7a7eae793840218ac0cb63521b2856a8475538734bc2a43c29713c01345",
			"1a40d7a7eae793840218ac0cb63521b2856a8475538734bc2a43c29713c01345",
			"b802df9956651dec8278da4b7c521eb1b9ef64b84e4978cfe687a18ff240f632",
		},
		TPCDS: {
			"30504913951e7e98ae5d5cf9d0bd248481a7fa95da9c807bb90db55ca5cc1e03",
			"30504913951e7e98ae5d5cf9d0bd248481a7fa95da9c807bb90db55ca5cc1e03",
			"b11842641d359eddac617aff51f47c6665988caf25aabce8f1afca3b9e108cb5",
		},
		Real1: {
			"dd6945dbdb99effbb3414348f408fadcfab34ea610fbaa47565eb314f602d27b",
			"dd6945dbdb99effbb3414348f408fadcfab34ea610fbaa47565eb314f602d27b",
			"6cf8e3114bb0fb8c13af5e43ad4822a62cd5e7d100c82be9270bbba3877b9d8e",
		},
		Real2: {
			"a5e48193dc7cd64b1e29bc1e5d40bf6d76003bf5700711b21fadfed70af00f5d",
			"a5e48193dc7cd64b1e29bc1e5d40bf6d76003bf5700711b21fadfed70af00f5d",
			"248f150b9e551f8c35d610f3d8ed63ca2c0609176f624b042e95e3524302c58b",
		},
	}
	wantQuery := map[Dataset][3]string{ // Run, Wait, Wait with thinning
		TPCH: {
			"39fb1617e16b3be1e4540039cf2883e8a5a6223e2a83d7ffdde1a4dfe9070146",
			"39fb1617e16b3be1e4540039cf2883e8a5a6223e2a83d7ffdde1a4dfe9070146",
			"8b8483608b2f01e43257fae6e123154670c8ccaad80c43612fb1f9e441fa19ca",
		},
		TPCDS: {
			"fd571ceeecc85d6fbf816b4824bb833fa3404fcb2de35e8b07465fe8cb3c74f2",
			"fd571ceeecc85d6fbf816b4824bb833fa3404fcb2de35e8b07465fe8cb3c74f2",
			"7629809509e9929fa898bae43450595eb493cbc46d9e391a6dca6aff587a92bd",
		},
		Real1: {
			"ff111fd8455b4c7baa8a8751ec7b1745339b1ab5cfb8642de99bef77bda16dbf",
			"ff111fd8455b4c7baa8a8751ec7b1745339b1ab5cfb8642de99bef77bda16dbf",
			"c2c7e43e3603510564d0bcba26119aa485f88f3545f26086efc5aaaa900178f0",
		},
		Real2: {
			"0755dd22c5bfe3ddf28c1a1ee7955eb53800b596a51ed9fe270d7cba96eef411",
			"0755dd22c5bfe3ddf28c1a1ee7955eb53800b596a51ed9fe270d7cba96eef411",
			"f78f272db5c1eb87a57794adad16013fce4546d51bbdd1df5392b505065adab1",
		},
	}
	thinning := exec.Options{TargetObservations: 900, MaxObservations: 64}
	for _, ds := range []Dataset{TPCH, TPCDS, Real1, Real2} {
		t.Run(ds.String(), func(t *testing.T) {
			w, err := Open(Config{Dataset: ds, Queries: 16, Scale: 0.08, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			var pipes, query [3]hash.Hash
			for i := range pipes {
				pipes[i], query[i] = sha256.New(), sha256.New()
			}
			for qi := 0; qi < w.NumQueries(); qi++ {
				run, err := w.Run(qi)
				if err != nil {
					t.Fatal(err)
				}
				runDigest(pipes[0], query[0], run)
				runDigest(pipes[1], query[1], waitRun(t, w, qi, exec.Options{}))
				runDigest(pipes[2], query[2], waitRun(t, w, qi, thinning))
			}
			for i := range pipes {
				if got := hex.EncodeToString(pipes[i].Sum(nil)); got != wantPipes[ds][i] {
					t.Errorf("%s pipeline digest %d: %s, want %s", ds, i, got, wantPipes[ds][i])
				}
				if got := hex.EncodeToString(query[i].Sum(nil)); got != wantQuery[ds][i] {
					t.Errorf("%s query digest %d: %s, want %s", ds, i, got, wantQuery[ds][i])
				}
			}
		})
	}
}
