package progress

import (
	"math"
	"testing"

	"progressest/internal/catalog"
	"progressest/internal/datagen"
	"progressest/internal/exec"
	"progressest/internal/optimizer"
	"progressest/internal/plan"
	"progressest/internal/storage"
)

// queryView replays a multi-pipeline query into a finished view.
func queryView(t *testing.T) *OnlineView {
	t.Helper()
	db, pl := queryPlan(t)
	return Replay(exec.Run(db, pl, exec.Options{}))
}

// queryPlan is queryView's database and plan.
func queryPlan(t *testing.T) (*storage.Database, *plan.Plan) {
	t.Helper()
	db := datagen.GenTPCH(datagen.Params{Scale: 0.08, Zipf: 1, Seed: 21})
	if err := db.ApplyDesign(datagen.Designs(datagen.TPCHLike)[catalog.Untuned]); err != nil {
		t.Fatal(err)
	}
	spec := &optimizer.QuerySpec{
		First: optimizer.TableTerm{Table: "orders", Filters: []optimizer.FilterSpec{
			{Column: "o_orderdate", IsRange: true, Lo: 1, Hi: 1800},
		}},
		Joins: []optimizer.JoinTerm{{
			Right:     optimizer.TableTerm{Table: "lineitem"},
			LeftTable: "orders", LeftCol: "o_orderkey", RightCol: "l_orderkey",
		}},
		Group: &optimizer.GroupSpec{
			Cols: []optimizer.ColRef{{Table: "lineitem", Column: "l_returnflag"}},
			Aggs: []optimizer.AggRef{{Func: plan.AggCount}},
		},
	}
	pl, err := optimizer.NewPlanner(db, optimizer.BuildStats(db)).Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return db, pl
}

// single chooses kind for every pipeline.
func single(kind Kind) func(int) Kind { return func(int) Kind { return kind } }

func TestQueryWeightsNormalised(t *testing.T) {
	q := queryView(t)
	var sum float64
	for p := range q.Pipelines {
		w := q.QueryWeight(p)
		if w < 0 || w > 1 {
			t.Fatalf("weight %v out of range", w)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %v", sum)
	}
}

func TestQuerySeriesBoundedAndTerminal(t *testing.T) {
	q := queryView(t)
	for _, k := range []Kind{DNE, TGN, LUO, TGNINT, OracleGetNext} {
		s := q.AppendQuerySeries(nil, single(k))
		if len(s) != len(q.Trace.Snapshots) {
			t.Fatalf("%v: %d query estimates over %d snapshots", k, len(s), len(q.Trace.Snapshots))
		}
		for i, v := range s {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("%v: query progress %v at obs %d", k, v, i)
			}
		}
		if last := s[len(s)-1]; last != 1 {
			t.Errorf("%v: final query progress %v, want the final update's 1", k, last)
		}
	}
}

func TestQueryTrueSeriesMonotone(t *testing.T) {
	q := queryView(t)
	truth := q.AppendQueryTrueSeries(nil)
	for i := 1; i < len(truth); i++ {
		if truth[i] < truth[i-1] {
			t.Fatalf("true progress not monotone at %d", i)
		}
	}
	if truth[len(truth)-1] < 0.999 {
		t.Errorf("final true progress %v", truth[len(truth)-1])
	}
}

func TestQueryOracleBeatsWorstEstimator(t *testing.T) {
	q := queryView(t)
	oracle := q.QueryErrors(OracleGetNext).L1
	worst := 0.0
	for _, k := range CoreKinds() {
		if e := q.QueryErrors(k).L1; e > worst {
			worst = e
		}
	}
	if oracle > worst+1e-9 {
		t.Errorf("query-level oracle L1 %.4f should not exceed worst estimator %.4f", oracle, worst)
	}
}

func TestPerPipelineChoiceFunction(t *testing.T) {
	q := queryView(t)
	// A mixed choice (alternating estimators per pipeline) must still
	// produce bounded progress.
	mixed := func(p int) Kind {
		if p%2 == 0 {
			return DNE
		}
		return TGN
	}
	for i, v := range q.AppendQuerySeries(nil, mixed) {
		if v < 0 || v > 1 {
			t.Fatalf("mixed estimate %v at obs %d", v, i)
		}
	}
}
