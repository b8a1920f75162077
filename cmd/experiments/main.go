// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-run all|fig1|table1|table2|table3|table4|table5|fig4|
//	             table6|fig5|fig6|fig7|table7|table8|featimp|models|ablation]
//	            [-full] [-seed N] [-queries N]
//
// By default a quick configuration runs (seconds per experiment); -full
// uses the paper-scale configuration, experiments.Full (minutes; see the
// Layout section of the README).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"progressest/internal/experiments"
)

func main() {
	run := flag.String("run", "all", "comma-separated experiment list or 'all'")
	full := flag.Bool("full", false, "use the full (slow) configuration")
	seed := flag.Int64("seed", 0, "override the random seed")
	queries := flag.Int("queries", 0, "override per-workload query counts")
	flag.Parse()

	cfg := experiments.Quick()
	if *full {
		cfg = experiments.Full()
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *queries > 0 {
		cfg.QueriesTPCH = *queries
		cfg.QueriesTPCDS = *queries
		cfg.QueriesReal1 = *queries
		cfg.QueriesReal2 = *queries
	}
	suite := experiments.NewSuite(cfg)

	type experiment struct {
		name string
		fn   func() (fmt.Stringer, error)
	}
	exps := []experiment{
		{"fig1", func() (fmt.Stringer, error) { return suite.Figure1() }},
		{"table1", func() (fmt.Stringer, error) { return suite.Table1() }},
		{"table2", func() (fmt.Stringer, error) { return suite.Table2() }},
		{"table3", func() (fmt.Stringer, error) { return suite.Table3() }},
		{"table4", func() (fmt.Stringer, error) { return suite.Table4() }},
		{"table5", func() (fmt.Stringer, error) { return suite.Table5() }},
		{"fig4", func() (fmt.Stringer, error) {
			r, err := suite.AdHoc()
			return stringerFunc(func() string { return r.Figure4String() }), err
		}},
		{"table6", func() (fmt.Stringer, error) {
			r, err := suite.AdHoc()
			return stringerFunc(func() string { return r.Table6String() }), err
		}},
		{"fig5", func() (fmt.Stringer, error) {
			r, err := suite.AdHoc()
			return stringerFunc(func() string { return r.Figure5String() }), err
		}},
		{"fig6", func() (fmt.Stringer, error) { return suite.Figure6() }},
		{"fig7", func() (fmt.Stringer, error) { return suite.Figure7() }},
		{"table7", func() (fmt.Stringer, error) { return suite.Table7() }},
		{"table8", func() (fmt.Stringer, error) { return suite.Table8() }},
		{"featimp", func() (fmt.Stringer, error) { return suite.FeatureImportance() }},
		{"models", func() (fmt.Stringer, error) { return suite.Models() }},
		{"ablation", func() (fmt.Stringer, error) { return suite.Ablation() }},
		{"online", func() (fmt.Stringer, error) { return suite.Online() }},
		{"refinement", func() (fmt.Stringer, error) { return suite.Refinement() }},
	}

	want := map[string]bool{}
	if *run != "all" {
		for _, n := range strings.Split(*run, ",") {
			want[strings.TrimSpace(n)] = true
		}
	}

	mode := "quick"
	if *full {
		mode = "full"
	}
	fmt.Printf("progressest experiment suite (%s configuration, seed %d)\n", mode, cfg.Seed)
	fmt.Println(strings.Repeat("=", 78))
	ranAny := false
	for _, e := range exps {
		if *run != "all" && !want[e.name] {
			continue
		}
		ranAny = true
		start := time.Now()
		r, err := e.fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Printf("\n[%s] (%.1fs)\n%s\n", e.name, time.Since(start).Seconds(), r)
		fmt.Println(strings.Repeat("=", 78))
	}
	if !ranAny {
		fmt.Fprintf(os.Stderr, "no experiment matched %q\n", *run)
		os.Exit(2)
	}
}

type stringerFunc func() string

func (f stringerFunc) String() string { return f() }
