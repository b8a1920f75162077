package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
	"testing"

	"progressest/internal/datagen"
	"progressest/internal/exec"
	"progressest/internal/features"
	"progressest/internal/pipeline"
	"progressest/internal/progress"
	"progressest/internal/selection"
)

// referenceLabels is the reference labeller: the trace replayed snapshot
// by snapshot through a fresh view, each pipeline's features assembled
// from features.Static and features.Dynamic and its labels from
// OnlineView.Errors — none of LabelView's scratch reuse or cached static
// prefix. The series themselves are pinned to the test-side reference in
// package progress.
func referenceLabels(tr *exec.Trace, workloadName, family string, queryIndex, minObs int) []selection.Example {
	view := progress.NewOnlineView(tr.Plan, tr.Pipes)
	exec.Replay(tr, view, 1)
	var out []selection.Example
	for p, pipe := range tr.Pipes.Pipelines {
		v := view.Pipelines[p]
		if v.NumObs() < minObs {
			continue
		}
		ex := selection.Example{
			Features:  append(features.Static(v.PipeContext), features.Dynamic(v)...),
			Workload:  workloadName,
			Signature: pipelineSignature(tr, p),
			Family:    family,
			Meta:      map[string]float64{"query": float64(queryIndex), "pipeline": float64(p)},
		}
		var totalGN float64
		for _, id := range pipe.Nodes {
			totalGN += float64(tr.N[id])
		}
		ex.Meta["getnext_total"] = totalGN
		for _, k := range progress.AllKinds() {
			e := view.Errors(p, k)
			ex.ErrL1[k], ex.ErrL2[k] = e.L1, e.L2
		}
		out = append(out, ex)
	}
	return out
}

// sameBits reports whether two float64s are the same bit pattern.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// assertSameLabels fails unless got and want agree bit for bit on every
// field of every example.
func assertSameLabels(t *testing.T, what string, got, want []selection.Example) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d examples, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := &got[i], &want[i]
		if g.Workload != w.Workload || g.Family != w.Family || g.Signature != w.Signature {
			t.Fatalf("%s example %d: tags %q/%q/%q, want %q/%q/%q",
				what, i, g.Workload, g.Family, g.Signature, w.Workload, w.Family, w.Signature)
		}
		if len(g.Features) != len(w.Features) {
			t.Fatalf("%s example %d: %d features, want %d", what, i, len(g.Features), len(w.Features))
		}
		for j := range w.Features {
			if !sameBits(g.Features[j], w.Features[j]) {
				t.Fatalf("%s example %d feature %d (%s): %v, want %v",
					what, i, j, features.Names()[j], g.Features[j], w.Features[j])
			}
		}
		for k := 0; k < progress.TotalKinds; k++ {
			if !sameBits(g.ErrL1[k], w.ErrL1[k]) || !sameBits(g.ErrL2[k], w.ErrL2[k]) {
				t.Fatalf("%s example %d %v: L1/L2 %v/%v, want %v/%v", what, i, progress.Kind(k),
					g.ErrL1[k], g.ErrL2[k], w.ErrL1[k], w.ErrL2[k])
			}
		}
		if len(g.Meta) != len(w.Meta) {
			t.Fatalf("%s example %d: meta %v, want %v", what, i, g.Meta, w.Meta)
		}
		for key, v := range w.Meta {
			if gv, ok := g.Meta[key]; !ok || !sameBits(gv, v) {
				t.Fatalf("%s example %d: meta %v, want %v", what, i, g.Meta, w.Meta)
			}
		}
	}
}

var allDatasetKinds = []datagen.DatasetKind{
	datagen.TPCHLike, datagen.TPCDSLike, datagen.Real1Like, datagen.Real2Like,
}

// TestLabelViewMatchesOfflineLabels pins the labels, not just the series:
// for every query of all four dataset kinds, under the randomised memory
// budgets (some queries spill), with and without forced thinning, and
// with the snapshots delivered one at a time and eight at a time, the
// examples LabelView takes from the view that watched the run live — and
// those HarvestTrace takes from a replay — equal the reference on every
// field, bit for bit.
func TestLabelViewMatchesOfflineLabels(t *testing.T) {
	for _, kind := range allDatasetKinds {
		t.Run(kind.String(), func(t *testing.T) {
			w, err := Build(smallSpec(kind, 10))
			if err != nil {
				t.Fatal(err)
			}
			budgets := w.perQueryExecOptions(RunOptions{Seed: 11})
			labelled := 0
			for qi := range w.Queries {
				pl, err := w.Planner.Plan(w.Queries[qi])
				if err != nil {
					t.Fatal(err)
				}
				for _, thin := range []bool{false, true} {
					for _, batch := range []int{1, 8} {
						opts := budgets[qi]
						if thin {
							opts.TargetObservations, opts.MaxObservations = 900, 50
						}
						opts.SnapshotBatch = batch
						view := progress.NewOnlineView(pl, pipeline.Decompose(pl))
						opts.Observer = view
						tr := exec.Run(w.DB, pl, opts)
						want := referenceLabels(tr, "w", "f", qi, 8)
						assertSameLabels(t, "LabelView", LabelView(view, tr, "w", "f", qi, 8), want)
						assertSameLabels(t, "HarvestTrace", HarvestTrace(tr, "w", "f", qi, 8), want)
						labelled += len(want)
					}
				}
			}
			if labelled == 0 {
				t.Fatal("no pipeline was labelled")
			}
		})
	}
}

// labelDigest hashes every field of every example — features, both error
// arrays over all TotalKinds, the tags and the meta entries in key order
// — with every length folded in.
func labelDigest(exs []selection.Example) string {
	h := sha256.New()
	var b [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	u64(uint64(len(exs)))
	for i := range exs {
		ex := &exs[i]
		u64(uint64(len(ex.Features)))
		for _, f := range ex.Features {
			f64(f)
		}
		u64(uint64(progress.TotalKinds))
		for k := 0; k < progress.TotalKinds; k++ {
			f64(ex.ErrL1[k])
			f64(ex.ErrL2[k])
		}
		str(ex.Workload)
		str(ex.Signature)
		str(ex.Family)
		keys := make([]string, 0, len(ex.Meta))
		for k := range ex.Meta {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		u64(uint64(len(keys)))
		for _, k := range keys {
			str(k)
			f64(ex.Meta[k])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestHarvestMatchesRecordedDigest pins a seed corpus — every query of
// the four dataset kinds, harvested by Run under the randomised memory
// budgets, with the default observation target and with thinning forced
// — to digests recorded while labels still came from an offline replay
// of the trace through per-pipeline views.
func TestHarvestMatchesRecordedDigest(t *testing.T) {
	want := map[datagen.DatasetKind][2]string{ // default, thinning
		datagen.TPCHLike:  {"4b7cb70c9b9e50612d96b14dc42186d8f20f0b931850681f2791f8092186b827", "0cdd790283e1562159bd1b601796869245a3d91eef1e6df78a08094a0630c8b8"},
		datagen.TPCDSLike: {"194e9ea66934041b5988cc07c2d40dd708b8a388518e8816a55e5a329d8cd65e", "ecee0f4e37ce38904359aeeef2fb080650546e5e30f9086fe07c7fdbe604aef1"},
		datagen.Real1Like: {"bd377cab779c329ee69c14a3fec77042d3620c2f6df4ae2b1abb4ae73ce47eb9", "23c2a3a04a1cecd33a21c260f7668b3baa99bf0e468ccedbbd3ed3fa257545a0"},
		datagen.Real2Like: {"a683939451d417ff7df4b273e9c18ae39a75b5d3cb6fb95ae86caaaedc3c9791", "2ad7d9159e2594713a0d610d840190c17d1302ab4f75cf4a11f6b9ca5942c68b"},
	}
	for _, kind := range allDatasetKinds {
		w, err := Build(smallSpec(kind, 40))
		if err != nil {
			t.Fatal(err)
		}
		for mi, mode := range []exec.Options{{}, {TargetObservations: 900, MaxObservations: 50}} {
			res, err := w.Run(RunOptions{Seed: 2, Exec: mode})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Examples) == 0 {
				t.Fatalf("%v mode %d: no examples", kind, mi)
			}
			if got := labelDigest(res.Examples); got != want[kind][mi] {
				t.Errorf("%v mode %d: corpus digest %s, want %s (%d examples)",
					kind, mi, got, want[kind][mi], len(res.Examples))
			}
		}
	}
}
