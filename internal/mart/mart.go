// Package mart implements Multiple Additive Regression Trees: stochastic
// gradient boosting (Friedman 2001) with least-squares loss and binary
// regression trees as the base learner — the statistical model the paper
// uses to predict per-estimator progress-estimation errors (Section 4.2).
//
// As in the paper, trees have a bounded number of leaves (30 by default)
// and the model is the sum of M boosted trees (M=200 by default). Features
// are pre-binned into quantile histograms so training scales to the
// paper's largest configuration (60K examples, M=1000) in seconds, and —
// like the paper emphasises — no input normalisation is required and
// non-linear feature/error dependencies are handled natively.
//
// Fitting is split where the work is shared: Bin quantile-bins a design
// matrix once (a sort per feature column), and Binned.Fit boosts one model
// per label vector on it — the selector's six error models share one
// matrix, so they share one Bin and fit concurrently. Train is the two in
// sequence. The binned matrix is feature-major and the split search walks
// it a small block of features at a time (see binner, findBestSplit); the
// search's contract is the order in which it sums and compares, so a model
// is a function of (matrix, labels, options) to the last bit, whatever
// the kernel's blocking or the number of goroutines fitting beside it.
package mart

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Options are the training hyperparameters.
type Options struct {
	// Trees is the number of boosting iterations M (default 200).
	Trees int
	// MaxLeaves bounds the leaf count per tree (default 30, as in §6).
	MaxLeaves int
	// LearningRate is the shrinkage applied to each tree (default 0.1).
	LearningRate float64
	// Subsample is the row fraction sampled per boosting iteration
	// (stochastic gradient boosting; default 0.7).
	Subsample float64
	// MinLeaf is the minimum number of training rows per leaf (default 5).
	MinLeaf int
	// Bins is the number of histogram bins per feature (default 64).
	Bins int
	// Seed drives the row subsampling.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Trees <= 0 {
		o.Trees = 200
	}
	if o.MaxLeaves <= 1 {
		o.MaxLeaves = 30
	}
	if o.LearningRate <= 0 {
		o.LearningRate = 0.1
	}
	if o.Subsample <= 0 || o.Subsample > 1 {
		o.Subsample = 0.7
	}
	if o.MinLeaf <= 0 {
		o.MinLeaf = 5
	}
	if o.Bins <= 1 || o.Bins > 64 {
		o.Bins = 64
	}
	return o
}

// node is one node of a regression tree in array form.
type node struct {
	Feature   int     `json:"f"`
	Threshold float64 `json:"t"`
	Left      int     `json:"l"` // -1 for leaf
	Right     int     `json:"r"`
	Value     float64 `json:"v"` // leaf value (already shrunk)

	// thresholdBin is the bin index of Threshold, used only while
	// training (predictBinned); not serialised.
	thresholdBin int
}

// tree is one regression tree.
type tree struct {
	Nodes []node `json:"nodes"`
}

func (t *tree) predict(x []float64) float64 {
	i := 0
	for {
		n := &t.Nodes[i]
		if n.Left < 0 {
			return n.Value
		}
		if x[n.Feature] <= n.Threshold {
			i = n.Left
		} else {
			i = n.Right
		}
	}
}

// Model is a trained MART model.
type Model struct {
	Bias       float64   `json:"bias"`
	Trees      []tree    `json:"trees"`
	NumFeature int       `json:"num_features"`
	Names      []string  `json:"names,omitempty"`
	Importance []float64 `json:"importance"`
}

// Predict returns the model output for one feature vector.
func (m *Model) Predict(x []float64) float64 {
	if len(x) != m.NumFeature {
		panic(fmt.Sprintf("mart: feature vector length %d, model expects %d", len(x), m.NumFeature))
	}
	out := m.Bias
	for i := range m.Trees {
		out += m.Trees[i].predict(x)
	}
	return out
}

// PredictAll predicts for many rows.
func (m *Model) PredictAll(X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, x := range X {
		out[i] = m.Predict(x)
	}
	return out
}

// FeatureImportance returns the total squared-error reduction attributed
// to each feature across all trees, normalised to sum to 1 (0 if the
// model never split).
func (m *Model) FeatureImportance() []float64 {
	out := make([]float64, len(m.Importance))
	var sum float64
	for _, v := range m.Importance {
		sum += v
	}
	if sum <= 0 {
		return out
	}
	for i, v := range m.Importance {
		out[i] = v / sum
	}
	return out
}

// Binned is a design matrix prepared for fitting: every feature column
// quantile-binned once, under the options every fit on it will use. It is
// read-only after Bin returns, so any number of Fit calls — one per label
// vector — may run concurrently on it. This is the one way to fit several
// targets on the same rows; Train is Bin followed by a single Fit.
type Binned struct {
	opts Options
	bins *binner
}

// Bin validates X (non-empty, all rows of equal length) and bins it under
// opts. Binning sorts every feature column, which for a wide matrix is a
// seventh of a short fit — callers with several label vectors on one
// matrix pay it once here rather than once per Train.
func Bin(X [][]float64, opts Options) (*Binned, error) {
	if len(X) == 0 {
		return nil, errors.New("mart: empty training set")
	}
	nf := len(X[0])
	for i, row := range X {
		if len(row) != nf {
			return nil, fmt.Errorf("mart: row %d has %d features, want %d", i, len(row), nf)
		}
	}
	opts = opts.withDefaults()
	return &Binned{opts: opts, bins: newBinner(X, opts.Bins)}, nil
}

// Fit trains one model for the label vector y (one finite label per
// binned row). The result depends only on the matrix, y and the options
// given to Bin — not on what else is being fitted on the matrix, or on
// how many goroutines are doing so.
func (bd *Binned) Fit(y []float64) (*Model, error) {
	b, opts := bd.bins, bd.opts
	if len(y) != b.numRows {
		return nil, fmt.Errorf("mart: %d rows but %d labels", b.numRows, len(y))
	}
	var bias float64
	for i, v := range y {
		// A NaN or infinite label would poison the bias and every
		// residual: the fit "succeeds" with a model that predicts NaN, and
		// NaN loses every comparison downstream.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("mart: label of row %d is %v", i, v)
		}
		bias += v
	}
	bias /= float64(len(y))
	nf := len(b.cols)
	m := &Model{Bias: bias, NumFeature: nf, Importance: make([]float64, nf)}

	// Current model output per row.
	f := make([]float64, len(y))
	for i := range f {
		f[i] = bias
	}
	g := &grower{b: b, opts: opts, resid: make([]float64, len(y)), gathered: make([]float64, len(y)), importance: m.Importance}
	rng := rand.New(rand.NewSource(opts.Seed + 1))
	perm := make([]int, len(y))
	for i := range perm {
		perm[i] = i
	}

	for t := 0; t < opts.Trees; t++ {
		for i := range y {
			g.resid[i] = y[i] - f[i]
		}
		// Stochastic subsample of rows.
		rows := perm
		if opts.Subsample < 1 {
			rng.Shuffle(len(perm), func(a, c int) { perm[a], perm[c] = perm[c], perm[a] })
			n := int(opts.Subsample * float64(len(perm)))
			if n < 2 {
				n = len(perm)
			}
			rows = perm[:n]
		}
		tr := g.fitTree(rows)
		// Apply shrinkage and update the running model on ALL rows.
		for i := range tr.Nodes {
			if tr.Nodes[i].Left < 0 {
				tr.Nodes[i].Value *= opts.LearningRate
			}
		}
		for i := range f {
			f[i] += tr.predictBinned(b, i)
		}
		m.Trees = append(m.Trees, *tr)
	}
	return m, nil
}

// Train fits a MART model to (X, y). All rows must have equal length and
// every label must be finite.
func Train(X [][]float64, y []float64, opts Options) (*Model, error) {
	bd, err := Bin(X, opts)
	if err != nil {
		return nil, err
	}
	return bd.Fit(y)
}

// MSE returns the mean squared error of predictions against labels.
func MSE(pred, y []float64) float64 {
	if len(pred) == 0 {
		return 0
	}
	var sum float64
	for i := range pred {
		d := pred[i] - y[i]
		sum += d * d
	}
	return sum / float64(len(pred))
}

// --- feature binning ---

// binner holds the quantile-binned design matrix feature-major — one
// contiguous bin vector per feature, indexed by row — plus the raw
// threshold value at each bin's upper edge and the list of live features
// (those with at least one threshold; a constant column can never split,
// so the split search never reads it).
//
// Feature-major because the split search is a histogram build per
// (leaf, feature): with a column contiguous, a pass over a leaf's rows
// touches one ~numRows-byte vector and one 768-byte histogram per feature
// instead of striding through every row's full bin vector into
// numFeatures×768 bytes of histograms. There is one layout; the tree
// walk over training rows (predictBinned) reads the same columns.
type binner struct {
	cols       [][]uint8   // [feature][row]
	thresholds [][]float64 // [feature][binIdx] upper edge value
	live       []int       // features with len(thresholds) > 0, ascending
	numRows    int
}

func newBinner(X [][]float64, nbins int) *binner {
	nf := len(X[0])
	b := &binner{
		cols:       make([][]uint8, nf),
		thresholds: make([][]float64, nf),
		numRows:    len(X),
	}
	flat := make([]uint8, len(X)*nf)
	vals := make([]float64, len(X))
	sorted := make([]float64, len(X))
	for fi := 0; fi < nf; fi++ {
		for ri := range X {
			vals[ri] = X[ri][fi]
		}
		copy(sorted, vals)
		sort.Float64s(sorted)
		// Candidate thresholds at quantile boundaries, deduplicated.
		var ths []float64
		for q := 1; q < nbins; q++ {
			v := sorted[q*(len(sorted)-1)/nbins]
			if len(ths) == 0 || v > ths[len(ths)-1] {
				ths = append(ths, v)
			}
		}
		// Drop a trailing threshold equal to the max (right side empty).
		for len(ths) > 0 && ths[len(ths)-1] >= sorted[len(sorted)-1] {
			ths = ths[:len(ths)-1]
		}
		b.thresholds[fi] = ths
		if len(ths) > 0 {
			b.live = append(b.live, fi)
		}
		// Bin index of v is the smallest b with v <= ths[b] (len(ths) for
		// values above every threshold).
		col := flat[fi*len(X) : (fi+1)*len(X)]
		for ri, v := range vals {
			lo, hi := 0, len(ths)
			for lo < hi {
				mid := (lo + hi) / 2
				if v <= ths[mid] {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			col[ri] = uint8(lo)
		}
		b.cols[fi] = col
	}
	return b
}

// predictBinned evaluates a tree for training row ri using bin indices
// (exact for thresholds that are bin edges).
func (t *tree) predictBinned(b *binner, ri int) float64 {
	i := 0
	for {
		n := &t.Nodes[i]
		if n.Left < 0 {
			return n.Value
		}
		// Threshold is thresholds[f][binIdx]; row goes left iff its bin
		// index <= binIdx of the threshold.
		if int(b.cols[n.Feature][ri]) <= n.thresholdBin {
			i = n.Left
		} else {
			i = n.Right
		}
	}
}

// --- tree fitting (leaf-wise best-first growth) ---

type leafCand struct {
	rows []int // training row indices in this leaf

	bestGain    float64
	bestFeature int
	bestBin     int
	bestLeft    int // rows on the left of the best split
	sum         float64
	nodeIdx     int // position in tree.Nodes
}

// blockFeatures is how many features' histograms one pass over a leaf's
// rows fills. A measured constant, not a tunable. One feature per pass
// leaves each `sums[bin] += r` waiting on the previous row's store to the
// same histogram; a few features per pass give independent chains that
// overlap, while their histograms (768 B each) and columns still sit in
// L1. Six 20-tree models on the benchmark's 1474 × 211 corpus (166 live
// features), one core: the row-major search this replaced 544 ms, block
// of 1 380 ms, 2 280 ms, 4 249 ms, 8 243 ms — and on two cores 8 is
// indistinguishable from 4 (133–138 vs 138–140 ms), so the smaller
// unrolled body stays. Any block size yields the same trees.
const blockFeatures = 4

// hist is one feature's per-bin residual sum and row count for a leaf.
type hist struct {
	sums [64]float64
	cnts [64]int32
}

// grower is the state of one Fit's tree growth: the shared read-only
// matrix, the current residuals, and the split search's scratch.
type grower struct {
	b          *binner
	opts       Options
	resid      []float64 // current residual per training row
	importance []float64

	gathered []float64 // the leaf's residuals, in leaf row order
	hists    [blockFeatures]hist
}

func (g *grower) fitTree(rows []int) *tree {
	b, resid := g.b, g.resid
	t := &tree{}
	root := &leafCand{rows: rows}
	for _, r := range rows {
		root.sum += resid[r]
	}
	t.Nodes = append(t.Nodes, node{Left: -1, Right: -1, Value: mean(root.sum, len(root.rows))})
	root.nodeIdx = 0
	g.findBestSplit(root)

	leaves := []*leafCand{root}
	numLeaves := 1
	for numLeaves < g.opts.MaxLeaves {
		// Pick the leaf with the highest gain.
		bi, bg := -1, 1e-12
		for i, lf := range leaves {
			if lf != nil && lf.bestGain > bg {
				bi, bg = i, lf.bestGain
			}
		}
		if bi < 0 {
			break
		}
		lf := leaves[bi]
		leftRows, rightRows := partition(b, lf)
		g.importance[lf.bestFeature] += lf.bestGain

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
		parent.Threshold = b.thresholds[lf.bestFeature][lf.bestBin]
		parent.thresholdBin = lf.bestBin
		parent.Left = li
		parent.Right = ri
		parent.Value = 0

		left := &leafCand{rows: leftRows, sum: lsum, nodeIdx: li}
		right := &leafCand{rows: rightRows, sum: rsum, nodeIdx: ri}
		g.findBestSplit(left)
		g.findBestSplit(right)
		leaves[bi] = left
		leaves = append(leaves, right)
		numLeaves++
	}
	return t
}

func mean(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// findBestSplit computes the best (feature, bin) split of the leaf by the
// squared-error-reduction criterion.
//
// The contract is the order of summation, not just the sums: every
// per-(feature, bin) residual sum adds the leaf's rows in leaf order, and
// candidates are compared in ascending (feature, bin) order with a strict
// ">" — so the chosen split, and therefore the whole model, is the same
// to the last bit however the passes below are blocked. That is what lets
// the kernel change shape without any trained selector changing.
//
// The leaf's residuals are gathered once; then each pass over the rows
// fills the histograms of blockFeatures live features (see the constant
// for why that many) and scans them before the next block overwrites
// them.
func (g *grower) findBestSplit(lf *leafCand) {
	lf.bestGain = 0
	n := len(lf.rows)
	if n < 2*g.opts.MinLeaf {
		return
	}
	rv := g.gathered[:n]
	for i, r := range lf.rows {
		rv[i] = g.resid[r]
	}
	cols, live := g.b.cols, g.b.live
	h := &g.hists
	i := 0
	for ; i+blockFeatures <= len(live); i += blockFeatures {
		*h = [blockFeatures]hist{}
		c0, c1, c2, c3 := cols[live[i]], cols[live[i+1]], cols[live[i+2]], cols[live[i+3]]
		for j, r := range lf.rows {
			v := rv[j]
			// Bin indices are < 64 by construction; the mask only tells
			// the compiler so.
			b0, b1, b2, b3 := c0[r]&63, c1[r]&63, c2[r]&63, c3[r]&63
			h[0].sums[b0] += v
			h[0].cnts[b0]++
			h[1].sums[b1] += v
			h[1].cnts[b1]++
			h[2].sums[b2] += v
			h[2].cnts[b2]++
			h[3].sums[b3] += v
			h[3].cnts[b3]++
		}
		for k := 0; k < blockFeatures; k++ {
			g.scanSplits(lf, live[i+k], &h[k])
		}
	}
	for ; i < len(live); i++ {
		h[0] = hist{}
		c0 := cols[live[i]]
		for j, r := range lf.rows {
			b0 := c0[r] & 63
			h[0].sums[b0] += rv[j]
			h[0].cnts[b0]++
		}
		g.scanSplits(lf, live[i], &h[0])
	}
}

// scanSplits prefix-scans one feature's histogram — a split at bin sends
// rows with bin index <= bin left — and keeps the candidate if it beats
// the leaf's best so far.
func (g *grower) scanSplits(lf *leafCand, fi int, h *hist) {
	n := len(lf.rows)
	parentScore := lf.sum * lf.sum / float64(n)
	minLeaf := g.opts.MinLeaf
	var lsum float64
	var lcnt int
	for bin := range g.b.thresholds[fi] {
		lsum += h.sums[bin]
		lcnt += int(h.cnts[bin])
		rcnt := n - lcnt
		if lcnt < minLeaf || rcnt < minLeaf {
			continue
		}
		rsum := lf.sum - lsum
		gain := lsum*lsum/float64(lcnt) + rsum*rsum/float64(rcnt) - parentScore
		if gain > lf.bestGain {
			lf.bestGain = gain
			lf.bestFeature = fi
			lf.bestBin = bin
			lf.bestLeft = lcnt
		}
	}
}

// partition splits the leaf's rows by its best split, each side keeping
// leaf order. The split search already counted the left side, so both
// halves are carved from one exactly sized allocation.
func partition(b *binner, lf *leafCand) (left, right []int) {
	col, bin := b.cols[lf.bestFeature], uint8(lf.bestBin)
	buf := make([]int, len(lf.rows))
	left, right = buf[:0:lf.bestLeft], buf[lf.bestLeft:lf.bestLeft]
	for _, r := range lf.rows {
		if col[r] <= bin {
			left = append(left, r)
		} else {
			right = append(right, r)
		}
	}
	return left, right
}
