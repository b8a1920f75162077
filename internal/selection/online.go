package selection

import (
	"progressest/internal/features"
	"progressest/internal/progress"
)

// OnlineMonitor implements the online revision of estimator choices
// described in Section 4.4: a static selector picks an estimator from
// plan-time features before the query starts; once enough of the driver
// input has been consumed to compute the dynamic features (20% by
// default), a dynamic selector revises the choice. The monitor produces
// the composite progress series a progress dialog would actually have
// displayed.
type OnlineMonitor struct {
	// Static picks the initial estimator from plan-time features.
	Static *Selector
	// Dynamic revises the choice once dynamic features are available.
	Dynamic *Selector
	// ReviseAtDriverFraction is the driver-input fraction at which the
	// choice is revised (default 0.20, the last marker the paper uses).
	ReviseAtDriverFraction float64
}

// OnlineResult is the outcome of monitoring one pipeline.
type OnlineResult struct {
	// Initial and Revised are the static-time and revised choices (equal
	// if the dynamic model agreed or revision never triggered).
	Initial, Revised progress.Kind
	// RevisedAt is the observation ordinal where the revision took
	// effect, or -1.
	RevisedAt int
	// Series is the composite progress series shown to the user.
	Series []float64
	// Err is the composite series' error against true pipeline progress.
	Err progress.ErrorStats
}

// Monitor runs a finished pipeline through the online policy; truth is
// the pipeline's true progress at each of its observations.
func (m *OnlineMonitor) Monitor(p *progress.OnlinePipeline, truth []float64) OnlineResult {
	frac := m.ReviseAtDriverFraction
	if frac <= 0 {
		frac = 0.20
	}
	full := features.OnlineFull(p)
	res := OnlineResult{RevisedAt: -1}
	res.Initial = m.Static.Select(full)
	res.Revised = res.Initial
	if m.Dynamic != nil {
		if at := markerObservation(p, frac); at >= 0 {
			res.Revised = m.Dynamic.Select(full)
			res.RevisedAt = at
		}
	}

	res.Series = p.Series(res.Initial)
	if res.RevisedAt >= 0 && res.Revised != res.Initial {
		revised := p.Series(res.Revised)
		copy(res.Series[res.RevisedAt:], revised[res.RevisedAt:])
	}

	dev := make([]float64, len(res.Series))
	for i := range dev {
		dev[i] = res.Series[i] - truth[i]
	}
	res.Err = progress.ErrorStatsOf(dev)
	return res
}

// markerObservation returns the first observation ordinal t{x} at which
// the consumed driver-input fraction reaches frac (Section 4.4.2), or -1
// if the pipeline never reaches it.
func markerObservation(p *progress.OnlinePipeline, frac float64) int {
	for i := 0; i < p.NumObs(); i++ {
		if p.DriverFraction(i) >= frac {
			return i
		}
	}
	return -1
}
