// Package workload generates and runs the six evaluation workloads of
// Section 6: randomly parameterised queries from template families over
// the TPC-H-like, TPC-DS-like and two real-life-like databases, executed
// under configurable physical designs, data sizes and skew factors. The
// runner turns every executed pipeline into a labelled selection.Example
// (features + per-estimator errors), the unit of the paper's evaluation.
package workload

import (
	"fmt"
	"math/rand"

	"progressest/internal/catalog"
	"progressest/internal/datagen"
	"progressest/internal/optimizer"
	"progressest/internal/storage"
)

// Spec configures one workload instance.
type Spec struct {
	// Name tags examples for leave-one-workload-out splits.
	Name string
	// Kind picks the database family and its query templates.
	Kind datagen.DatasetKind
	// Queries is the number of queries to generate.
	Queries int
	// Scale and Zipf parameterise the database (Section 6 varies both).
	Scale float64
	Zipf  float64
	// Design is the physical-design level.
	Design catalog.DesignLevel
	// Seed drives data generation and query parameter binding.
	Seed int64
}

// Workload is a generated database plus its query specs, ready to run.
type Workload struct {
	Spec    Spec
	DB      *storage.Database
	Stats   *optimizer.Stats
	Planner *optimizer.Planner
	Queries []*optimizer.QuerySpec
}

// Build generates the database, applies the physical design, computes
// optimizer statistics, and binds query parameters.
func Build(spec Spec) (*Workload, error) {
	if spec.Scale <= 0 {
		spec.Scale = 0.15
	}
	if spec.Queries <= 0 {
		spec.Queries = 100
	}
	db := datagen.Generate(spec.Kind, datagen.Params{
		Scale: spec.Scale, Zipf: spec.Zipf, Seed: spec.Seed,
	})
	design, ok := datagen.Designs(spec.Kind)[spec.Design]
	if !ok {
		return nil, fmt.Errorf("workload: no design level %v for %v", spec.Design, spec.Kind)
	}
	if err := db.ApplyDesign(design); err != nil {
		return nil, err
	}
	stats := optimizer.BuildStats(db)
	w := &Workload{
		Spec:    spec,
		DB:      db,
		Stats:   stats,
		Planner: optimizer.NewPlanner(db, stats),
	}
	rng := rand.New(rand.NewSource(spec.Seed ^ 0x5ca1ab1e))
	gen := templatesFor(spec.Kind)
	for i := 0; i < spec.Queries; i++ {
		w.Queries = append(w.Queries, gen(rng, db))
	}
	return w, nil
}

// QueryFamily returns the family of query i: queries driven by the same
// base table form one family. The driver table dominates a query's
// pipeline shapes and counter profile (which estimators it favors — see
// the template commentary in templates_*.go); examples harvested from a
// query carry its family, and the serving layer admits queries under it.
func (w *Workload) QueryFamily(i int) string {
	return w.Queries[i].First.Table
}

// queryGen binds one random query spec.
type queryGen func(rng *rand.Rand, db *storage.Database) *optimizer.QuerySpec

// templatesFor returns the template sampler of a dataset kind.
func templatesFor(kind datagen.DatasetKind) queryGen {
	switch kind {
	case datagen.TPCHLike:
		return genTPCHQuery
	case datagen.TPCDSLike:
		return genTPCDSQuery
	case datagen.Real1Like:
		return genReal1Query
	case datagen.Real2Like:
		return genReal2Query
	default:
		panic("workload: unknown dataset kind")
	}
}

// pick returns a uniformly random element.
func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

// span returns a random [lo,hi] sub-range of [min,max] whose width is a
// random fraction between fracLo and fracHi of the domain.
func span(rng *rand.Rand, min, max int64, fracLo, fracHi float64) (int64, int64) {
	domain := max - min + 1
	frac := fracLo + rng.Float64()*(fracHi-fracLo)
	width := int64(float64(domain) * frac)
	if width < 1 {
		width = 1
	}
	lo := min + rng.Int63n(domain-width+1)
	return lo, lo + width - 1
}
