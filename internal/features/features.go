// Package features computes the inputs to the estimator-selection models:
// static features derived from the execution plan and optimizer estimates
// (Section 4.3) and dynamic features derived from execution feedback
// during the first part of a pipeline's run (Section 4.4). The complete
// vector is about 200 doubles, matching the paper's reported footprint.
package features

import (
	"fmt"
	"math"

	"progressest/internal/plan"
	"progressest/internal/progress"
)

// Markers are the driver-input fractions x (in percent) at which dynamic
// features are sampled (progress.Markers).
var Markers = progress.Markers

// CorK is the number of time-correlation observations per marker
// (progress.CorK).
const CorK = progress.CorK

// corKinds are the estimators whose time correlation is measured.
var corKinds = []progress.Kind{
	progress.DNE, progress.TGN, progress.LUO,
	progress.BATCHDNE, progress.DNESEEK, progress.TGNINT,
}

// diffPairs are the estimator pairs whose differences at the markers are
// features (DNEvsTGN_x, DNEvsTGNINT_x, TGNvsTGNINT_x).
var diffPairs = [][2]progress.Kind{
	{progress.DNE, progress.TGN},
	{progress.DNE, progress.TGNINT},
	{progress.TGN, progress.TGNINT},
}

// opTypes enumerated in feature order.
var opTypes = func() []plan.OpType {
	out := make([]plan.OpType, plan.NumOpTypes)
	for i := range out {
		out[i] = plan.OpType(i)
	}
	return out
}()

// Names returns the full ordered feature-name list (static then dynamic).
func Names() []string {
	var names []string
	for _, op := range opTypes {
		names = append(names,
			"Count_"+op.String(),
			"Card_"+op.String(),
			"SelAt_"+op.String(),
			"SelAbove_"+op.String(),
			"SelBelow_"+op.String(),
		)
	}
	names = append(names,
		"SelAtDN",
		"NumNodes",
		"NumDrivers",
		"LogTotalE",
		"DriverKnown",
		"DriverShareOfNodes",
	)
	for _, p := range diffPairs {
		for _, x := range Markers {
			names = append(names, fmt.Sprintf("%svs%s_%d", p[0], p[1], x))
		}
	}
	for _, k := range corKinds {
		for i := 1; i <= CorK; i++ {
			for _, x := range Markers {
				names = append(names, fmt.Sprintf("Cor_%s_%d_%d", k, i, x))
			}
		}
	}
	return names
}

// NumStatic is the length of the static prefix of the feature vector.
var NumStatic = 5*len(opTypes) + 6

// NumTotal is the full feature-vector length.
var NumTotal = NumStatic + len(diffPairs)*len(Markers) + len(corKinds)*CorK*len(Markers)

// Static computes the static features of a pipeline: per-operator counts
// and cardinalities, the relative-cardinality encodings SelAt/SelAbove/
// SelBelow, and the driver-node share SelAtDN. The context is fully
// determined at pipeline start, so in the streaming path this prefix is
// computed once and cached (see OnlineStatic).
func Static(v *progress.PipeContext) []float64 {
	p := v.Plan
	pipe := v.Pipe

	inPipe := make(map[int]bool, len(pipe.Nodes))
	var totalE float64
	for _, id := range pipe.Nodes {
		inPipe[id] = true
		totalE += v.E0[id]
	}
	if totalE <= 0 {
		totalE = 1
	}

	// hasOpBelow[id][op]: some strict descendant of id within the pipeline
	// has operator op. hasOpAbove[id][op]: some strict ancestor within the
	// pipeline has op.
	type opSet [plan.NumOpTypes]bool
	below := make(map[int]*opSet, len(pipe.Nodes))
	above := make(map[int]*opSet, len(pipe.Nodes))
	for _, id := range pipe.Nodes {
		below[id] = &opSet{}
		above[id] = &opSet{}
	}
	var walkBelow func(n *plan.Node) *opSet
	walkBelow = func(n *plan.Node) *opSet {
		acc := &opSet{}
		for _, c := range n.Children {
			sub := walkBelow(c)
			if inPipe[c.ID] {
				for op, v := range sub {
					if v {
						acc[op] = true
					}
				}
				acc[c.Op] = true
			}
		}
		if s, ok := below[n.ID]; ok {
			*s = *acc
		}
		return acc
	}
	walkBelow(p.Root)
	var walkAbove func(n *plan.Node, anc opSet)
	walkAbove = func(n *plan.Node, anc opSet) {
		if s, ok := above[n.ID]; ok {
			*s = anc
		}
		next := anc
		if inPipe[n.ID] {
			next[n.Op] = true
		} else {
			next = opSet{}
		}
		for _, c := range n.Children {
			walkAbove(c, next)
		}
	}
	walkAbove(p.Root, opSet{})

	out := make([]float64, 0, NumStatic)
	for _, op := range opTypes {
		var count, card, selAt, selAbove, selBelow float64
		for _, id := range pipe.Nodes {
			n := p.Node(id)
			e := v.E0[id]
			if n.Op == op {
				count++
				card += e
				selAt += e
			}
			if below[id][op] {
				selAbove += e // nodes fed by a subtree containing op
			}
			if above[id][op] {
				selBelow += e // nodes inside the input subtree of an op node
			}
		}
		// Cardinalities enter in log scale so that the feature transfers
		// across databases of different sizes (the paper's ad-hoc
		// generalisation requirement).
		out = append(out, count, logp1(card), selAt/totalE, selAbove/totalE, selBelow/totalE)
	}

	var driverE float64
	for _, d := range pipe.Drivers {
		driverE += v.E0[d]
	}
	known := 0.0
	if v.DriverKnown {
		known = 1
	}
	out = append(out,
		driverE/totalE,
		float64(len(pipe.Nodes)),
		float64(len(pipe.Drivers)),
		logp1(totalE),
		known,
		float64(len(pipe.Drivers))/float64(len(pipe.Nodes)),
	)
	return out
}

// slotLevel maps the dynamic features' sample points to the marker
// levels a pipeline keeps rows at (progress.MarkerLevel): the markers
// first (index mi), then the sub-markers (index subMarker(i, mi)).
var slotLevel = func() []int {
	out := make([]int, 0, len(Markers)*(1+CorK))
	for _, x := range Markers {
		out = append(out, progress.MarkerLevel(progress.MarkerFrac(x, 0)))
	}
	for i := 1; i <= CorK; i++ {
		for _, x := range Markers {
			out = append(out, progress.MarkerLevel(progress.MarkerFrac(x, i)))
		}
	}
	return out
}()

// subMarker is the slotLevel index of the sub-marker at fraction
// (i/CorK)·x of marker mi.
func subMarker(i, mi int) int { return i*len(Markers) + mi }

// markerAt returns the pipeline's row at sample point j, or nil if its
// driver fraction has not reached it.
func markerAt(marks []progress.MarkerRow, j int) *progress.MarkerRow {
	if l := slotLevel[j]; l < len(marks) {
		return &marks[l]
	}
	return nil
}

// Dynamic computes the dynamic features from the observations a pipeline
// holds, up to the 20% driver-input marker: pairwise estimator
// differences at each marker, and time-correlation features quantifying
// how well each estimator tracks elapsed time. In a live pipeline the
// features evolve as observations arrive, and markers not yet reached
// take their neutral defaults.
func Dynamic(v *progress.OnlinePipeline) []float64 {
	return AppendDynamic(make([]float64, 0, NumTotal-NumStatic), v)
}

// AppendDynamic appends the dynamic features to dst and returns the
// extended slice — the alloc-free form the streaming hot path uses with a
// reusable scratch buffer. It reads only the pipeline's marker rows
// (progress.OnlinePipeline.Markers): the first observation at which the
// driver fraction reaches each marker and sub-marker fraction.
func AppendDynamic(dst []float64, v *progress.OnlinePipeline) []float64 {
	out := dst
	marks := v.Markers()

	for _, pr := range diffPairs {
		for mi := range Markers {
			m := markerAt(marks, mi)
			if m == nil {
				out = append(out, 0)
				continue
			}
			d := m.Est[pr[0]] - m.Est[pr[1]]
			if d < 0 {
				d = -d
			}
			out = append(out, d)
		}
	}

	for _, k := range corKinds {
		for i := 1; i <= CorK; i++ {
			for mi := range Markers {
				m := markerAt(marks, mi)
				if m == nil {
					out = append(out, 1) // neutral: looks perfectly linear
					continue
				}
				// Sub-marker at fraction (i/k)*x of the driver input.
				sub := markerAt(marks, subMarker(i, mi))
				so := m.Est[k]
				if sub == nil || m.Elapsed <= 0 || so <= 0 {
					out = append(out, 1)
					continue
				}
				timeRatio := sub.Elapsed / m.Elapsed
				estRatio := sub.Est[k] / so
				if estRatio <= 0 {
					out = append(out, 1)
					continue
				}
				c := timeRatio / estRatio
				if c > 10 {
					c = 10
				}
				out = append(out, c)
			}
		}
	}
	return out
}

// OnlineStatic returns the static feature prefix of a live pipeline. The
// static context never changes after pipeline start, so the prefix is
// computed once per start — and once per plan for the runs of a cached
// plan, which share it read-only (see progress.OnlinePipeline.StaticPrefix).
func OnlineStatic(v *progress.OnlinePipeline) []float64 {
	return v.StaticPrefix(Static)
}

// OnlineFull returns the current full feature vector of a live pipeline:
// the cached static prefix plus the dynamic suffix over the observations
// seen so far. Markers not yet reached contribute their neutral defaults,
// so the vector is well-formed from the very first observation onwards.
//
// The vector is assembled into the view's one feature buffer
// (progress.OnlinePipeline.FeatureBuffer), so a pick allocates nothing
// once the view has it; the returned slice is only valid until the next
// OnlineFull call on any pipeline of the same view.
func OnlineFull(v *progress.OnlinePipeline) []float64 {
	out := append(v.FeatureBuffer(NumTotal), OnlineStatic(v)...)
	return AppendDynamic(out, v)
}

func logp1(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Log1p(x)
}
