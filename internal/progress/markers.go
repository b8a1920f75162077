package progress

import (
	"slices"
	"sort"
)

// Markers are the driver-input fractions x (in percent) at which the
// dynamic features sample a pipeline; estimator selection stops refining
// after 20% of the driver input has been consumed (Section 6, "Dynamic
// Features"). CorK is the number of sub-markers per marker, at
// (x/100)·i/CorK for i = 1..CorK (the paper's time-correlation
// observations). The rows at which a pipeline first reaches these
// fractions are all of its history a pick reads.
var Markers = []int{1, 2, 5, 10, 20}

// CorK is the number of sub-markers per marker (the paper uses i = 1..4).
const CorK = 4

// MarkerFrac returns the driver fraction of marker x's sub-marker i,
// (x/100)·i/CorK, or x/100 itself for i = 0.
func MarkerFrac(x, i int) float64 {
	if i == 0 {
		return float64(x) / 100
	}
	return float64(x) / 100 * float64(i) / CorK
}

// markerLevels are the distinct values of MarkerFrac, ascending: the
// fractions at which a pipeline keeps a MarkerRow. A row reaching a
// level reaches every lower one, so one forward pass over the
// observations settles them in this order.
var markerLevels = func() []float64 {
	var fracs []float64
	for _, x := range Markers {
		for i := 0; i <= CorK; i++ {
			fracs = append(fracs, MarkerFrac(x, i))
		}
	}
	sort.Float64s(fracs)
	return slices.Compact(fracs)
}()

// markersAt[l] is how many Markers lie below level l: the markers
// crossed once the first l levels are reached.
var markersAt = func() []int {
	out := make([]int, len(markerLevels)+1)
	for l := range out {
		for _, x := range Markers {
			if l > 0 && MarkerFrac(x, 0) <= markerLevels[l-1] {
				out[l]++
			}
		}
	}
	return out
}()

// MarkerLevel returns the index of fraction f, one of MarkerFrac's
// values, among the levels a pipeline keeps rows at; it panics for any
// other fraction.
func MarkerLevel(f float64) int {
	l := sort.SearchFloat64s(markerLevels, f)
	if l == len(markerLevels) || markerLevels[l] != f {
		panic("progress: not a marker fraction")
	}
	return l
}

// A MarkerRow is what a pipeline keeps of the first observation at which
// its driver fraction reached a marker level.
type MarkerRow struct {
	// Obs is the observation ordinal.
	Obs int
	// Elapsed is the virtual time since the pipeline's start.
	Elapsed float64
	// Est holds every selectable estimator's value at Obs.
	Est [NumKinds]float64
}
