package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"progressest/internal/features"
	"progressest/internal/mart"
	"progressest/internal/textplot"
)

// Table7Result reproduces Table 7: MART training times as a function of
// the number of training examples and boosting iterations M. Times include
// model serialisation, as in the paper.
type Table7Result struct {
	Sizes      []int
	Iterations []int
	// Seconds[i][j] is the training time for Sizes[i] x Iterations[j].
	Seconds [][]float64
}

// Table7 measures training times on synthetic feature matrices with the
// full feature-vector width.
func (s *Suite) Table7() (*Table7Result, error) {
	res := &Table7Result{
		Sizes:      []int{100, 500, 3000, 6000, 60000},
		Iterations: []int{20, 50, 100, 200, 500, 1000},
	}
	if s.Cfg.MartTrees < 100 {
		// Quick configuration: a reduced grid.
		res.Sizes = []int{100, 500, 3000}
		res.Iterations = []int{20, 50, 100}
	}
	rng := rand.New(rand.NewSource(s.Cfg.Seed + 81))
	maxN := res.Sizes[len(res.Sizes)-1]
	nf := features.NumTotal
	X := make([][]float64, maxN)
	y := make([]float64, maxN)
	for i := range X {
		row := make([]float64, nf)
		for j := range row {
			row[j] = rng.Float64()
		}
		X[i] = row
		y[i] = row[0]*row[1] + 0.1*rng.NormFloat64()
	}
	for _, n := range res.Sizes {
		var times []float64
		for _, m := range res.Iterations {
			start := time.Now()
			model, err := mart.Train(X[:n], y[:n], mart.Options{Trees: m, Seed: 1})
			if err != nil {
				return nil, err
			}
			if _, err := model.AppendBinary(nil); err != nil {
				return nil, err
			}
			times = append(times, time.Since(start).Seconds())
		}
		res.Seconds = append(res.Seconds, times)
	}
	return res, nil
}

// String renders the table.
func (r *Table7Result) String() string {
	var b strings.Builder
	b.WriteString("Table 7: MART training times in seconds (rows: examples, cols: boosting iterations M)\n\n")
	header := []string{"examples"}
	for _, m := range r.Iterations {
		header = append(header, fmt.Sprintf("M=%d", m))
	}
	var rows [][]string
	for i, n := range r.Sizes {
		row := []string{fmt.Sprintf("%d", n)}
		for _, sec := range r.Seconds[i] {
			if sec < 1 {
				row = append(row, "< 1")
			} else {
				row = append(row, fmt.Sprintf("%.0f", sec))
			}
		}
		rows = append(rows, row)
	}
	b.WriteString(textplot.Table(header, rows))
	b.WriteString("\nPaper: < 1s up to 6K examples; 8-41s at 60K examples. Training cost is\n")
	b.WriteString("independent of data volume or query runtimes, so retraining in a live system is cheap.\n")
	return b.String()
}
