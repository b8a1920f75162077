package exec_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

	"progressest/internal/catalog"
	"progressest/internal/datagen"
	"progressest/internal/exec"
	"progressest/internal/plan"
	"progressest/internal/workload"
)

// traceDigest hashes every observable field of a trace — each snapshot's
// Time/K/R/W, the pipeline spans, the driver totals and their known
// flags, N, FinalR, FinalW and TotalTime — with every slice length
// folded in, so a counter, a clock tick or a snapshot boundary that
// moves changes the digest.
func traceDigest(tr *exec.Trace) [sha256.Size]byte {
	h := sha256.New()
	var b [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	ints := func(s []int64) {
		u64(uint64(len(s)))
		for _, v := range s {
			u64(uint64(v))
		}
	}
	u64(uint64(len(tr.Snapshots)))
	for _, s := range tr.Snapshots {
		f64(s.Time)
		ints(s.K)
		ints(s.R)
		ints(s.W)
	}
	u64(uint64(len(tr.PipeSpans)))
	for _, sp := range tr.PipeSpans {
		f64(sp.Start)
		f64(sp.End)
	}
	u64(uint64(len(tr.DriverTotalsKnown)))
	for _, k := range tr.DriverTotalsKnown {
		if k {
			u64(1)
		} else {
			u64(0)
		}
	}
	ints(tr.DriverTotal)
	ints(tr.N)
	ints(tr.FinalR)
	ints(tr.FinalW)
	f64(tr.TotalTime)
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// TestTracesMatchRecordedDigests pins the executor's observable output
// to digests recorded before its working memory moved from per-row
// allocations, a map of per-key slices and a re-copied snapshot arena to
// the row arena, the flat join table and the chunked sink: every query
// of three small workloads, with unlimited memory and with a budget low
// enough that hash joins spill and run their second phase, must produce
// the same trace bit for bit. (A digest over a whole workload says that
// something moved; the per-query digests the failure prints say where —
// diff them against the same test's output at the recording commit.)
func TestTracesMatchRecordedDigests(t *testing.T) {
	// thin keeps so few snapshots that every run thins several times
	// across the sink's chunk boundaries.
	thin := exec.Options{TargetObservations: 4000, MaxObservations: 300}
	workloads := []struct {
		kind   datagen.DatasetKind
		design catalog.DesignLevel // between them the designs plan every join operator
		want   [3]string           // unlimited memory, spilling, thinning
	}{
		{datagen.TPCHLike, catalog.PartiallyTuned, [3]string{"560115cdc9906d1159c84ab667309c9959021a2acb86a75acb07f8a711c9022d", "ff3ce9f735cba74674f77f1faf20a8d9df06a4638f5055d0e6deec6c26954fa5", "58c562ebfca46bbf291823cc4feaf762cb7a878e38a0e1486db4c38eb85d19b0"}},
		{datagen.TPCDSLike, catalog.Untuned, [3]string{"576ede75841cb9dbac8900d37caf8b2b684ee7a142cf7fdcfdae4975fd69b612", "0794f6eecac729da7f177673812d0ec4733305f3d45e1fd4de920c431ac399ec", "557833ebc41fbfc36c4ecb00a8b058d470a6c8e109ceb3900c5c72c42ace40ee"}},
		{datagen.Real1Like, catalog.FullyTuned, [3]string{"74edf0c92e6d0f250d044c0b9190983d38b76d6d69c72dbde98d7bcf99d061aa", "8cf31196c722f8a619b6ed70bba75f270ffca13d01a920e265581150a4319a21", "a51dcbc64811a446e782057dbbb1234e638e61afd6dcc832dde3e2233bd81c34"}},
	}
	modes := []struct {
		name string
		opts exec.Options
	}{
		{"unlimited", exec.Options{}},
		{"spilling", exec.Options{MemBudgetRows: 60}},
		{"thinning", thin},
	}
	for _, wl := range workloads {
		w, err := workload.Build(workload.Spec{
			Name: wl.kind.String(), Kind: wl.kind, Design: wl.design, Queries: 24, Scale: 0.05, Zipf: 1, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		for mi, mode := range modes {
			t.Run(wl.kind.String()+"/"+mode.name, func(t *testing.T) {
				all := sha256.New()
				var perQuery []string
				spilled, phase2, thinned := 0, 0, 0
				for qi, q := range w.Queries {
					pl, err := w.Planner.Plan(q)
					if err != nil {
						t.Fatal(err)
					}
					var thins thinCounter
					opts := mode.opts
					opts.Observer = &thins
					tr := exec.Run(w.DB, pl, opts)
					d := traceDigest(tr)
					all.Write(d[:])
					perQuery = append(perQuery, fmt.Sprintf("  q%02d %s\n", qi, hex.EncodeToString(d[:8])))
					thinned += thins.n
					for _, n := range pl.Nodes() {
						if n.Op != plan.HashJoin {
							continue
						}
						if tr.FinalW[n.ID] > 0 {
							spilled++
						}
						if tr.FinalR[n.ID] > 0 {
							phase2++ // only phase 2 reads at a hash join
						}
					}
				}
				switch mode.name {
				case "spilling":
					if spilled == 0 || phase2 == 0 {
						t.Fatalf("%d hash joins spilled, %d ran phase 2 — the spill path is not covered", spilled, phase2)
					}
				case "thinning":
					if thinned < 2*len(w.Queries) {
						t.Fatalf("%d thins over %d queries — the thinning path is barely covered", thinned, len(w.Queries))
					}
				default:
					if spilled != 0 || thinned != 0 {
						t.Fatalf("%d spills, %d thins in the plain mode", spilled, thinned)
					}
				}
				if got := hex.EncodeToString(all.Sum(nil)); got != wl.want[mi] {
					t.Errorf("workload digest %s, recorded %s\nper-query digests:\n%s",
						got, wl.want[mi], strings.Join(perQuery, ""))
				}
			})
		}
	}
}

// thinCounter counts the thinning events of one run.
type thinCounter struct {
	exec.BaseObserver
	n int
}

func (c *thinCounter) OnThin([]exec.Snapshot) { c.n++ }
