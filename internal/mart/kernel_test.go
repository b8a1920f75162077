package mart

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// --- the reference: the row-major scalar split search ---
//
// This is the trainer as it stood before the feature-major kernel, kept
// only here: one histogram per feature for the whole leaf, filled in a
// single pass over row-major bin vectors, every feature scanned (constant
// ones included), both partition halves grown by append. The production
// kernel must agree with it to the last bit — same per-(feature, bin)
// order of summation, same (feature, bin) order of comparison.

type refHists struct {
	sums [][64]float64
	cnts [][64]int32
}

// rowMajor transposes the binner's columns into one bin vector per row.
func rowMajor(b *binner) [][]uint8 {
	rows := make([][]uint8, b.numRows)
	for ri := range rows {
		rows[ri] = make([]uint8, len(b.cols))
		for fi, col := range b.cols {
			rows[ri][fi] = col[ri]
		}
	}
	return rows
}

func refFindBestSplit(rows [][]uint8, ths [][]float64, resid []float64, lf *leafCand, opts Options, pool *refHists) {
	lf.bestGain = 0
	n := len(lf.rows)
	if n < 2*opts.MinLeaf {
		return
	}
	parentScore := lf.sum * lf.sum / float64(n)
	for i := range pool.sums {
		pool.sums[i] = [64]float64{}
		pool.cnts[i] = [64]int32{}
	}
	nf := len(ths)
	for _, r := range lf.rows {
		bins := rows[r]
		rv := resid[r]
		for fi := 0; fi < nf; fi++ {
			bin := bins[fi]
			pool.sums[fi][bin] += rv
			pool.cnts[fi][bin]++
		}
	}
	for fi := 0; fi < nf; fi++ {
		if len(ths[fi]) == 0 {
			continue
		}
		var lsum float64
		var lcnt int
		for bin := 0; bin < len(ths[fi]); bin++ {
			lsum += pool.sums[fi][bin]
			lcnt += int(pool.cnts[fi][bin])
			rcnt := n - lcnt
			if lcnt < opts.MinLeaf || rcnt < opts.MinLeaf {
				continue
			}
			rsum := lf.sum - lsum
			gain := lsum*lsum/float64(lcnt) + rsum*rsum/float64(rcnt) - parentScore
			if gain > lf.bestGain {
				lf.bestGain = gain
				lf.bestFeature = fi
				lf.bestBin = bin
			}
		}
	}
}

func refPartition(rows [][]uint8, lf *leafCand) (left, right []int) {
	fi, bin := lf.bestFeature, uint8(lf.bestBin)
	for _, r := range lf.rows {
		if rows[r][fi] <= bin {
			left = append(left, r)
		} else {
			right = append(right, r)
		}
	}
	return left, right
}

func refFitTree(rows [][]uint8, ths [][]float64, resid []float64, sample []int, opts Options, importance []float64, pool *refHists) *tree {
	t := &tree{}
	root := &leafCand{rows: sample}
	for _, r := range sample {
		root.sum += resid[r]
	}
	t.Nodes = append(t.Nodes, node{Left: -1, Right: -1, Value: mean(root.sum, len(root.rows))})
	refFindBestSplit(rows, ths, resid, root, opts, pool)
	leaves := []*leafCand{root}
	for numLeaves := 1; numLeaves < opts.MaxLeaves; numLeaves++ {
		bi, bg := -1, 1e-12
		for i, lf := range leaves {
			if lf.bestGain > bg {
				bi, bg = i, lf.bestGain
			}
		}
		if bi < 0 {
			break
		}
		lf := leaves[bi]
		leftRows, rightRows := refPartition(rows, lf)
		importance[lf.bestFeature] += lf.bestGain
		var lsum, rsum float64
		for _, r := range leftRows {
			lsum += resid[r]
		}
		for _, r := range rightRows {
			rsum += resid[r]
		}
		li := len(t.Nodes)
		t.Nodes = append(t.Nodes, node{Left: -1, Right: -1, Value: mean(lsum, len(leftRows))})
		ri := len(t.Nodes)
		t.Nodes = append(t.Nodes, node{Left: -1, Right: -1, Value: mean(rsum, len(rightRows))})
		parent := &t.Nodes[lf.nodeIdx]
		parent.Feature = lf.bestFeature
		parent.Threshold = ths[lf.bestFeature][lf.bestBin]
		parent.thresholdBin = lf.bestBin
		parent.Left, parent.Right, parent.Value = li, ri, 0
		left := &leafCand{rows: leftRows, sum: lsum, nodeIdx: li}
		right := &leafCand{rows: rightRows, sum: rsum, nodeIdx: ri}
		refFindBestSplit(rows, ths, resid, left, opts, pool)
		refFindBestSplit(rows, ths, resid, right, opts, pool)
		leaves[bi] = left
		leaves = append(leaves, right)
	}
	return t
}

func refTrain(X [][]float64, y []float64, opts Options) *Model {
	opts = opts.withDefaults()
	nf := len(X[0])
	b := newBinner(X, opts.Bins)
	rows := rowMajor(b)
	pool := &refHists{sums: make([][64]float64, nf), cnts: make([][64]int32, nf)}
	m := &Model{NumFeature: nf, Importance: make([]float64, nf)}
	for _, v := range y {
		m.Bias += v
	}
	m.Bias /= float64(len(y))
	f := make([]float64, len(y))
	for i := range f {
		f[i] = m.Bias
	}
	resid := make([]float64, len(y))
	rng := rand.New(rand.NewSource(opts.Seed + 1))
	perm := make([]int, len(y))
	for i := range perm {
		perm[i] = i
	}
	for t := 0; t < opts.Trees; t++ {
		for i := range y {
			resid[i] = y[i] - f[i]
		}
		sample := perm
		if opts.Subsample < 1 {
			rng.Shuffle(len(perm), func(a, c int) { perm[a], perm[c] = perm[c], perm[a] })
			n := int(opts.Subsample * float64(len(perm)))
			if n < 2 {
				n = len(perm)
			}
			sample = perm[:n]
		}
		tr := refFitTree(rows, b.thresholds, resid, sample, opts, m.Importance, pool)
		for i := range tr.Nodes {
			if tr.Nodes[i].Left < 0 {
				tr.Nodes[i].Value *= opts.LearningRate
			}
		}
		for ri := range f {
			i := 0
			for tr.Nodes[i].Left >= 0 {
				if int(rows[ri][tr.Nodes[i].Feature]) <= tr.Nodes[i].thresholdBin {
					i = tr.Nodes[i].Left
				} else {
					i = tr.Nodes[i].Right
				}
			}
			f[ri] += tr.Nodes[i].Value
		}
		m.Trees = append(m.Trees, *tr)
	}
	return m
}

// --- the matrices the two are compared on ---

// Column generators; each returns the column's value for the next row.
func contCol(rng *rand.Rand) float64   { return rng.NormFloat64() }        // all 64 bins at n >= 64·k
func binaryCol(rng *rand.Rand) float64 { return float64(rng.Intn(2)) }     // one threshold, heavy ties
func constCol(*rand.Rand) float64      { return 3.25 }                     // no threshold: not live
func coarseCol(rng *rand.Rand) float64 { return float64(rng.Intn(5)) / 4 } // four thresholds
func skewCol(rng *rand.Rand) float64 { // 90 % zeros: quantile thresholds collapse
	if rng.Intn(10) > 0 {
		return 0
	}
	return rng.Float64()
}

type kernelCase struct {
	name string
	rows int
	cols []func(*rand.Rand) float64
	live int // expected live-feature count, asserted so the case means what its name says
}

func repeatCols(n int, gens ...func(*rand.Rand) float64) []func(*rand.Rand) float64 {
	out := make([]func(*rand.Rand) float64, n)
	for i := range out {
		out[i] = gens[i%len(gens)]
	}
	return out
}

func kernelCases() []kernelCase {
	return []kernelCase{
		{"one live feature among constants", 300, []func(*rand.Rand) float64{constCol, contCol, constCol}, 1},
		{"three live: less than one block", 400, []func(*rand.Rand) float64{contCol, constCol, binaryCol, coarseCol}, 3},
		{"exactly one block", 400, repeatCols(4, contCol, binaryCol), 4},
		{"seven live: a block and a tail of three", 500, repeatCols(7, contCol, coarseCol, binaryCol), 7},
		{"all binary: every gain tied many ways", 600, repeatCols(13, binaryCol), 13},
		{"no live feature at all", 100, repeatCols(5, constCol), 0},
		{"wide mix, live count not a multiple of the block", 700, repeatCols(53, contCol, constCol, binaryCol, coarseCol, constCol, skewCol, contCol), 38},
	}
}

func (c kernelCase) build(t *testing.T, seed int64) (X [][]float64, y []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	X = make([][]float64, c.rows)
	y = make([]float64, c.rows)
	for ri := range X {
		X[ri] = make([]float64, len(c.cols))
		for fi, gen := range c.cols {
			X[ri][fi] = gen(rng)
		}
		// Signal on the first and last columns plus noise, so trees have
		// both real and near-tied splits to choose among.
		y[ri] = 2*X[ri][0] - X[ri][len(c.cols)-1]*X[ri][len(c.cols)/2] + rng.NormFloat64()*0.3
	}
	return X, y
}

// TestSplitKernelMatchesRowMajorReference grows, per case, whole trees
// down to MinLeaf with the production split search and partition, and at
// every leaf asks the reference the same question: the two must return the
// same (feature, bin, gain) — gain compared as bits.
func TestSplitKernelMatchesRowMajorReference(t *testing.T) {
	for ci, c := range kernelCases() {
		t.Run(c.name, func(t *testing.T) {
			X, y := c.build(t, int64(100+ci))
			b := newBinner(X, 64)
			if len(b.live) != c.live {
				t.Fatalf("case has %d live features, want %d", len(b.live), c.live)
			}
			rows := rowMajor(b)
			pool := &refHists{sums: make([][64]float64, len(b.cols)), cnts: make([][64]int32, len(b.cols))}
			rng := rand.New(rand.NewSource(int64(ci)))

			// MinLeaf edges: 1 (every split legal), the default, exactly
			// half the root (one legal count), and one past it (none).
			for _, minLeaf := range []int{1, 5, c.rows / 2, c.rows/2 + 1} {
				// Leaf order must be honoured, so shuffle: a leaf's rows
				// are a subsample in permutation order, never sorted.
				sample := rng.Perm(c.rows)
				g := &grower{b: b, opts: Options{MinLeaf: minLeaf}, resid: append([]float64(nil), y...), gathered: make([]float64, c.rows)}
				root := &leafCand{rows: sample}
				for _, r := range sample {
					root.sum += y[r]
				}
				leaves, checked := []*leafCand{root}, 0
				for len(leaves) > 0 {
					lf := leaves[len(leaves)-1]
					leaves = leaves[:len(leaves)-1]
					ref := &leafCand{rows: lf.rows, sum: lf.sum}
					g.findBestSplit(lf)
					refFindBestSplit(rows, b.thresholds, g.resid, ref, g.opts, pool)
					checked++
					if lf.bestFeature != ref.bestFeature || lf.bestBin != ref.bestBin ||
						math.Float64bits(lf.bestGain) != math.Float64bits(ref.bestGain) {
						t.Fatalf("MinLeaf %d, leaf of %d rows: kernel (f %d, bin %d, gain %x) != reference (f %d, bin %d, gain %x)",
							minLeaf, len(lf.rows), lf.bestFeature, lf.bestBin, math.Float64bits(lf.bestGain),
							ref.bestFeature, ref.bestBin, math.Float64bits(ref.bestGain))
					}
					if lf.bestGain <= 0 {
						continue
					}
					left, right := partition(b, lf)
					refLeft, refRight := refPartition(rows, ref)
					if !slices.Equal(left, refLeft) || !slices.Equal(right, refRight) {
						t.Fatalf("MinLeaf %d: partition differs from reference", minLeaf)
					}
					if len(left) != lf.bestLeft || cap(left) != lf.bestLeft || cap(right) != len(right) {
						t.Fatalf("partition halves not exactly sized: left %d/%d (search counted %d), right %d/%d",
							len(left), cap(left), lf.bestLeft, len(right), cap(right))
					}
					for _, half := range [][]int{left, right} {
						child := &leafCand{rows: half}
						for _, r := range half {
							child.sum += y[r]
						}
						leaves = append(leaves, child)
					}
				}
				if minLeaf == 1 && c.live > 0 && checked < 10 {
					t.Fatalf("MinLeaf 1 grew only %d leaves: the case is not exercising the search", checked)
				}
				if minLeaf == c.rows/2+1 && checked != 1 {
					t.Fatalf("MinLeaf above half the rows must stop at the root, visited %d leaves", checked)
				}
			}
		})
	}
}

// TestBinnerUsesAllSixtyFourBins pins the widest histogram the kernel
// must address: a continuous column on enough rows yields 63 thresholds
// and bin index 63, and the kernel agrees with the reference there
// (covered by the contCol cases above, which this makes non-vacuous).
func TestBinnerUsesAllSixtyFourBins(t *testing.T) {
	X, _ := kernelCase{rows: 500, cols: repeatCols(1, contCol)}.build(t, 103)
	b := newBinner(X, 64)
	if got := len(b.thresholds[0]); got != 63 {
		t.Fatalf("continuous column has %d thresholds, want 63", got)
	}
	var seen [64]bool
	for _, bin := range b.cols[0] {
		seen[bin] = true
	}
	for bin, ok := range seen {
		if !ok {
			t.Fatalf("bin %d of the continuous column is empty", bin)
		}
	}
}

// TestTrainMatchesRowMajorReference: whole models, encoded, byte for
// byte — across the matrices above and the option edges that change which
// rows a leaf holds and in what order.
func TestTrainMatchesRowMajorReference(t *testing.T) {
	optsList := []Options{
		{Trees: 12, Seed: 3},                               // defaults: Subsample 0.7, MinLeaf 5, 64 bins
		{Trees: 12, Seed: 4, Subsample: 1},                 // rows in index order, no shuffle
		{Trees: 8, Seed: 5, MinLeaf: 1, MaxLeaves: 60},     // deep trees, tiny leaves
		{Trees: 8, Seed: 6, Bins: 8, MaxLeaves: 4},         // coarse bins, shallow trees
		{Trees: 6, Seed: 7, MinLeaf: 40, Subsample: 0.35},  // few legal splits per leaf
		{Trees: 4, Seed: 8, MinLeaf: 1000, Subsample: 0.9}, // no legal split: bias-only trees
	}
	for ci, c := range kernelCases() {
		t.Run(c.name, func(t *testing.T) {
			X, y := c.build(t, int64(200+ci))
			for _, opts := range optsList {
				got, err := Train(X, y, opts)
				if err != nil {
					t.Fatal(err)
				}
				gotBytes, err := got.AppendBinary(nil)
				if err != nil {
					t.Fatal(err)
				}
				wantBytes, err := refTrain(X, y, opts).AppendBinary(nil)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gotBytes, wantBytes) {
					t.Fatalf("opts %+v: Train differs from the row-major reference", opts)
				}
			}
		})
	}
}

// TestBinnedFitsConcurrently: Bin once, Fit several label vectors at once
// on the shared matrix — each model is byte-identical to its own Train.
func TestBinnedFitsConcurrently(t *testing.T) {
	cases := kernelCases()
	X, y := cases[len(cases)-1].build(t, 300)
	opts := Options{Trees: 10, Seed: 9}
	labels := make([][]float64, 6)
	for k := range labels {
		labels[k] = make([]float64, len(y))
		for i, v := range y {
			labels[k][i] = v*float64(k+1) + X[i][k]
		}
	}
	bd, err := Bin(X, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]byte, len(labels))
	var wg sync.WaitGroup
	for k := range labels {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := bd.Fit(labels[k])
			if err != nil {
				t.Error(err)
				return
			}
			got[k], _ = m.AppendBinary(nil)
		}()
	}
	wg.Wait()
	for k := range labels {
		m, err := Train(X, labels[k], opts)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := m.AppendBinary(nil)
		if !bytes.Equal(got[k], want) {
			t.Fatalf("label vector %d: concurrent Fit on the shared matrix differs from Train", k)
		}
	}
}
