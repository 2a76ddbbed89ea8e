package fuzz

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/analyze"
	"repro/internal/compiler"
	"repro/internal/diag"
	"repro/internal/sim"
	"repro/internal/wave"
)

// Options configures one differential campaign.
type Options struct {
	// Seed is the first generator seed; module n uses Seed+n.
	Seed int64
	// Count is the number of modules to generate and check.
	Count int
	// Cycles is the number of input vectors per module. Zero defaults
	// to 12.
	Cycles int
	// Minimize shrinks every diverging module to a minimal repro.
	Minimize bool
	// Gen bounds the generator; zero value uses defaults.
	Gen GenConfig
	// Progress, when non-nil, receives a line every ProgressEvery
	// modules (and at the end).
	Progress      func(done int, stats Stats)
	ProgressEvery int
	// Coverage turns on coverage guidance: every checked module's
	// engine-side toggle/activity signature is unioned into a corpus
	// signature, and modules that add new coverage points are admitted
	// to the corpus (Stats.Corpus, Stats.CoveragePoints).
	Coverage bool
	// CoverageLog, when non-nil with Coverage on, receives a line for
	// every corpus admission — the campaign's coverage-growth trail.
	CoverageLog func(line string)
}

// Divergence records one walker-vs-engine disagreement found by a
// campaign.
type Divergence struct {
	Seed     int64  // generator seed that produced the module
	Cycles   int    // input vectors the diverging run used (replay key)
	Source   string // the generated (pre-minimization) module
	Mismatch string // first mismatch, human-readable
	// Minimized is the shrunk module (equal to Source when
	// minimization is off or failed to reduce).
	Minimized string
	// TestCase is a ready-to-paste engine_regress_test.go table entry.
	TestCase string
	// AliasFindings is how many alias-hazard findings (rule L010) the
	// static analyzer reports on Source. The alias rule is a static
	// oracle for the divergence classes the generator aims at: a
	// divergence on an analyzer-clean module (AnalyzerClean, zero
	// findings) escaped both the static model and the generator's intent
	// and is a high-priority find.
	AliasFindings int
	AnalyzerClean bool
}

// Priority labels a find for triage: "high" when the static alias
// oracle saw nothing wrong with the module, "normal" otherwise.
func (d Divergence) Priority() string {
	if d.AnalyzerClean {
		return "high"
	}
	return "normal"
}

// Stats summarizes a campaign.
type Stats struct {
	Generated int // modules produced
	Checked   int // modules that compiled on both backends and ran
	Skipped   int // frontend/compile rejections (generator misses)
	Diverged  int
	// CleanDiverged counts divergences on modules the alias-hazard
	// analyzer rule found nothing wrong with (high-priority finds).
	CleanDiverged int
	Elapsed       time.Duration
	// Coverage-guided campaign tallies (zero unless Options.Coverage):
	// Corpus counts admitted modules, CoveragePoints the corpus
	// signature's set bits. CoverageOn marks that guidance ran, so
	// String only grows new fields when the mode is on.
	Corpus         int
	CoveragePoints int
	CoverageOn     bool
}

// Rate returns modules checked per second.
func (s Stats) Rate() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Generated) / s.Elapsed.Seconds()
}

func (s Stats) String() string {
	base := fmt.Sprintf("generated=%d checked=%d skipped=%d diverged=%d (clean=%d) elapsed=%s rate=%.0f/s",
		s.Generated, s.Checked, s.Skipped, s.Diverged, s.CleanDiverged, s.Elapsed.Round(time.Millisecond), s.Rate())
	if s.CoverageOn {
		base += fmt.Sprintf(" corpus=%d coverage=%d", s.Corpus, s.CoveragePoints)
	}
	return base
}

// Run executes the campaign and returns its stats plus every
// divergence found, in seed order.
func Run(opts Options) (Stats, []Divergence) {
	if opts.Cycles <= 0 {
		opts.Cycles = 12
	}
	if opts.ProgressEvery <= 0 {
		opts.ProgressEvery = 1000
	}
	start := time.Now()
	var stats Stats
	var finds []Divergence
	stats.CoverageOn = opts.Coverage
	var corpus wave.Signature
	for n := 0; n < opts.Count; n++ {
		seed := opts.Seed + int64(n)
		src := GenerateWith(seed, opts.Gen)
		stats.Generated++
		var cov *wave.Coverage
		if opts.Coverage {
			cov = wave.NewCoverage()
		}
		rep, err := CheckSourceCov(src, opts.Cycles, seed, cov)
		if err != nil {
			stats.Skipped++
			continue
		}
		stats.Checked++
		if cov != nil {
			// Corpus admission: keep the module when its signature adds
			// coverage points no earlier module exercised.
			if sig := cov.Signature(); corpus.Union(sig) {
				stats.Corpus++
				prev := stats.CoveragePoints
				stats.CoveragePoints = corpus.Count()
				if opts.CoverageLog != nil {
					opts.CoverageLog(fmt.Sprintf("corpus+ seed=%d coverage=%d (+%d)",
						seed, stats.CoveragePoints, stats.CoveragePoints-prev))
				}
			}
		}
		if opts.Progress != nil && (n+1)%opts.ProgressEvery == 0 {
			stats.Elapsed = time.Since(start)
			opts.Progress(n+1, stats)
		}
		if !rep.Diverged() {
			continue
		}
		stats.Diverged++
		div := Divergence{
			Seed:      seed,
			Cycles:    opts.Cycles,
			Source:    src,
			Mismatch:  rep.First().String(),
			Minimized: src,
			// Cross-check against the static alias oracle: the analyzer
			// only runs on divergences, so the campaign's generation and
			// input RNG streams are untouched.
			AliasFindings: len(AliasFindingsFor(src)),
		}
		div.AnalyzerClean = div.AliasFindings == 0
		if div.AnalyzerClean {
			stats.CleanDiverged++
		}
		if opts.Minimize {
			div.Minimized = Minimize(src, opts.Cycles, seed)
		}
		div.TestCase = TestCase(fmt.Sprintf("fuzz_seed_%d", seed), div.Minimized, opts.Cycles, seed)
		finds = append(finds, div)
	}
	stats.Elapsed = time.Since(start)
	if opts.Progress != nil && opts.Count%opts.ProgressEvery != 0 {
		opts.Progress(opts.Count, stats)
	}
	return stats, finds
}

// AliasFindingsFor runs only the alias-hazard analyzer rule (L010) over
// a module's frontend unit — the static side of the campaign's
// cross-check oracle.
func AliasFindingsFor(src string) diag.List {
	u := compiler.NewUnit(src)
	return analyze.Run(u.File, u.Design, analyze.Options{Rules: []string{"L010"}})
}

// CheckSource runs one module through the shared differential path.
// The error marks a frontend/compile rejection (campaigns count it as
// a skip); divergence is reported via the DiffReport.
func CheckSource(src string, cycles int, seed int64) (*sim.DiffReport, error) {
	return CheckSourceCov(src, cycles, seed, nil)
}

// CheckSourceCov is CheckSource with optional toggle-coverage
// accumulation from the engine side of the differential run.
func CheckSourceCov(src string, cycles int, seed int64, cov *wave.Coverage) (*sim.DiffReport, error) {
	return sim.DiffSource(src, sim.DiffConfig{
		Clock:    DetectClock(src),
		Cycles:   cycles,
		Seed:     seed,
		Coverage: cov,
	})
}

// CaptureVCD re-runs one module through the differential path with a
// waveform recorder attached and returns the VCD text, windowed around
// the first engine/oracle divergence when one occurs (full bounded
// trace otherwise). Used by fuzz -vcd to ship a wave dump next to each
// minimized repro.
func CaptureVCD(src string, cycles int, seed int64, window int) (string, error) {
	rec := wave.NewRecorder(window)
	if _, err := sim.DiffSource(src, sim.DiffConfig{
		Clock:    DetectClock(src),
		Cycles:   cycles,
		Seed:     seed,
		Recorder: rec,
	}); err != nil {
		return "", err
	}
	return rec.VCD(), nil
}

// DetectClock returns "clk" when the module declares a clk input, else
// "" (purely combinational drive).
func DetectClock(src string) string {
	if strings.Contains(src, "input clk") || strings.Contains(src, "input wire clk") {
		return "clk"
	}
	return ""
}

// TestCase renders a module as a table entry for TestEngineRegressions
// in internal/sim/engine_regress_test.go — paste it into the cases
// slice verbatim.
func TestCase(name, src string, cycles int, seed int64) string {
	clock := DetectClock(src)
	var b strings.Builder
	b.WriteString("{\n")
	fmt.Fprintf(&b, "\tname: %q, clock: %q, cycles: %d, seed: %d,\n", name, clock, cycles, seed)
	b.WriteString("\tsrc: `\n")
	b.WriteString(strings.ReplaceAll(strings.TrimRight(src, "\n"), "`", "\\x60"))
	b.WriteString("`,\n},")
	return b.String()
}
