package bench

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/dataset"
	"repro/internal/sim"
	"repro/internal/wave"
)

// CoverageRow is one problem's toggle/activity coverage, measured by
// running the reference implementation through its own testbench with
// the wave coverage observer attached.
type CoverageRow struct {
	Suite  dataset.Suite
	ID     string
	Stats  wave.Stats
	Points int // signature points, for cross-problem comparison
	Err    string
}

// CoverageReport measures per-problem toggle coverage across every
// suite. seed feeds the stimulus generator, so the table is
// deterministic per seed.
func CoverageReport(seed int64) []CoverageRow {
	var rows []CoverageRow
	for _, suite := range []dataset.Suite{dataset.SuiteMachine, dataset.SuiteHuman, dataset.SuiteRTLLM} {
		for _, p := range dataset.Problems(suite) {
			row := CoverageRow{Suite: suite, ID: p.ID}
			cov := wave.NewCoverage()
			tb, err := p.NewTestbench(rand.New(rand.NewSource(seed)))
			if err == nil {
				_, err = p.CheckObserved(p.RefSource, tb, sim.TBObserve{Coverage: cov})
			}
			if err != nil {
				row.Err = err.Error()
			} else {
				row.Stats = cov.Stats()
				row.Points = cov.Signature().Count()
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// RenderCoverage draws the per-problem coverage table plus per-suite
// aggregate lines.
func RenderCoverage(rows []CoverageRow) string {
	var b strings.Builder
	b.WriteString("Reference-design toggle coverage (coverage observer over the problem testbenches)\n")
	fmt.Fprintf(&b, "%-8s %-28s %9s %12s %10s %9s %8s\n",
		"Suite", "Problem", "Coverage", "TogglePts", "Procs", "Toggles", "SigPts")
	type agg struct {
		covered, total, points int
		n                      int
	}
	suites := map[dataset.Suite]*agg{}
	order := []dataset.Suite{}
	for _, r := range rows {
		if suites[r.Suite] == nil {
			suites[r.Suite] = &agg{}
			order = append(order, r.Suite)
		}
		a := suites[r.Suite]
		if r.Err != "" {
			fmt.Fprintf(&b, "%-8s %-28s %9s  error: %s\n", r.Suite, r.ID, "-", r.Err)
			continue
		}
		s := r.Stats
		fmt.Fprintf(&b, "%-8s %-28s %8.1f%% %6d/%-5d %4d/%-4d %9d %8d\n",
			r.Suite, r.ID, 100*s.Fraction(), s.PointsCovered, s.PointsTotal,
			s.ProcessesActive, s.Processes, s.Toggles, r.Points)
		a.covered += s.PointsCovered + s.ProcessesActive
		a.total += s.PointsTotal + s.Processes
		a.points += r.Points
		a.n++
	}
	for _, s := range order {
		a := suites[s]
		if a.n == 0 || a.total == 0 {
			continue
		}
		fmt.Fprintf(&b, "suite %-8s: %d problems, %.1f%% of %d coverage points, %d signature points\n",
			s, a.n, 100*float64(a.covered)/float64(a.total), a.total, a.points)
	}
	return b.String()
}
