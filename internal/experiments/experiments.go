// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 1 Figure 1; Section 6 Tables 1-8, Figures 4-7; the
// feature-importance study of 6.5 and the model validation of 6.7). Each
// experiment returns a typed result with a String() rendering; the
// cmd/experiments binary runs any subset (see the Layout section of the
// README).
package experiments

import (
	"fmt"
	"sort"

	"progressest/internal/catalog"
	"progressest/internal/datagen"
	"progressest/internal/mart"
	"progressest/internal/selection"
	"progressest/internal/workload"
)

// Config scales the experiment suite.
type Config struct {
	// QueriesTPCH etc. control per-workload query counts (the paper runs
	// 1000 TPC-H, ~200 TPC-DS, 477 Real-1 and 632 Real-2 queries; the
	// defaults scale these down to keep the full suite minutes-long).
	QueriesTPCH  int
	QueriesTPCDS int
	QueriesReal1 int
	QueriesReal2 int
	// Scale is the base database scale (1.0 stands in for ~10GB).
	Scale float64
	// MartTrees is the number of boosting iterations for selection models.
	MartTrees int
	// Seed drives all data generation and parameter binding.
	Seed int64
}

// Quick returns a configuration small enough for unit tests (seconds).
func Quick() Config {
	return Config{
		QueriesTPCH: 30, QueriesTPCDS: 25, QueriesReal1: 25, QueriesReal2: 25,
		Scale: 0.08, MartTrees: 50, Seed: 1,
	}
}

// Full returns the paper-scale configuration cmd/experiments -full runs
// (minutes).
func Full() Config {
	return Config{
		QueriesTPCH: 250, QueriesTPCDS: 160, QueriesReal1: 200, QueriesReal2: 200,
		Scale: 0.25, MartTrees: 200, Seed: 1,
	}
}

func (c Config) martOptions() mart.Options {
	return mart.Options{Trees: c.MartTrees, Seed: c.Seed}
}

// Suite caches workload runs so that experiments sharing a workload (for
// example Figure 4, Table 6 and Figure 5 all use the six-workload ad-hoc
// setup) execute it once.
type Suite struct {
	Cfg  Config
	runs map[string]*workload.Result

	// adhoc caches the six-fold leave-one-workload-out evaluation shared
	// by Figure 4, Table 6 and Figure 5.
	adhoc *AdHocResult
}

// NewSuite creates an empty suite.
func NewSuite(cfg Config) *Suite {
	return &Suite{Cfg: cfg, runs: make(map[string]*workload.Result)}
}

// run executes (or returns the cached run of) one workload spec.
func (s *Suite) run(spec workload.Spec) (*workload.Result, error) {
	key := fmt.Sprintf("%s|%d|%v|%v|%v|%d",
		spec.Kind, spec.Queries, spec.Scale, spec.Zipf, spec.Design, spec.Seed)
	if r, ok := s.runs[key]; ok {
		return r, nil
	}
	r, err := workload.BuildAndRun(spec, workload.RunOptions{Seed: spec.Seed})
	if err != nil {
		return nil, err
	}
	s.runs[key] = r
	return r, nil
}

// tpchSpec builds the standard TPC-H-like workload spec.
func (s *Suite) tpchSpec(design catalog.DesignLevel, zipf, scale float64, seedOff int64) workload.Spec {
	return workload.Spec{
		Name:    fmt.Sprintf("tpch-%v-z%v-s%v", design, zipf, scale),
		Kind:    datagen.TPCHLike,
		Queries: s.Cfg.QueriesTPCH,
		Scale:   scale,
		Zipf:    zipf,
		Design:  design,
		Seed:    s.Cfg.Seed + seedOff,
	}
}

// adhocWorkloads returns the six evaluation workloads of Section 6: one
// TPC-DS, three TPC-H physical-design variants (z=1), and the two
// real-life-like workloads.
func (s *Suite) adhocWorkloads() []workload.Spec {
	c := s.Cfg
	return []workload.Spec{
		{Name: "tpcds", Kind: datagen.TPCDSLike, Queries: c.QueriesTPCDS,
			Scale: c.Scale, Zipf: 0, Design: catalog.PartiallyTuned, Seed: c.Seed + 11},
		s.tpchSpec(catalog.Untuned, 1, c.Scale, 21),
		s.tpchSpec(catalog.PartiallyTuned, 1, c.Scale, 22),
		s.tpchSpec(catalog.FullyTuned, 1, c.Scale, 23),
		{Name: "real1", Kind: datagen.Real1Like, Queries: c.QueriesReal1,
			Scale: c.Scale, Zipf: 0.5, Design: catalog.PartiallyTuned, Seed: c.Seed + 31},
		{Name: "real2", Kind: datagen.Real2Like, Queries: c.QueriesReal2,
			Scale: c.Scale, Zipf: 0.5, Design: catalog.FullyTuned, Seed: c.Seed + 41},
	}
}

// adhocExamples runs all six workloads and returns their example sets in
// workload order.
func (s *Suite) adhocExamples() ([][]selection.Example, []workload.Spec, error) {
	specs := s.adhocWorkloads()
	out := make([][]selection.Example, len(specs))
	for i, spec := range specs {
		r, err := s.run(spec)
		if err != nil {
			return nil, nil, err
		}
		out[i] = r.Examples
	}
	return out, specs, nil
}

// pct formats a fraction as a percentage string.
func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// sortKinds returns kinds sorted by the given score map (ascending).
func sortKinds(scores map[string]float64) []string {
	keys := make([]string, 0, len(scores))
	for k := range scores {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return scores[keys[a]] < scores[keys[b]] })
	return keys
}
