package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"
)

// scoringGolden is the sha256 of scoringTranscript per seed. A change to
// how candidates are scored (stimulus, golden model, compile test,
// simulation) must leave every table, figure and coverage row unchanged.
var scoringGolden = map[int64]string{
	2024: "6422fb0bfdbe0213f8d07c270aa2a437f0551b6fd103508dcb9bd9a8a1da2f08",
	7:    "63da28b3fce079d377a39296932858a1bd4687542960507a99b4f8cbde0c241e",
}

// scoringTranscript renders every experiment that scores candidates
// against a problem testbench, at reduced sample counts.
func scoringTranscript(w io.Writer, seed int64) {
	t2 := RunTable2(Table2Config{Seed: seed, SampleN: 6, Workers: 2})
	fmt.Fprint(w, t2.Render(), t2.RenderFigure4())
	fmt.Fprintf(w, "syntax share %v\n", t2.SyntaxErrorShare)
	t3 := RunTable3(Table3Config{Seed: seed, SampleN: 6, Workers: 2})
	fmt.Fprintf(w, "%s%+v\n", t3.Render(), *t3)
	sf := RunSimFeedback(seed, 4)
	fmt.Fprintf(w, "%s%+v\n", sf.Render(), *sf)
	fmt.Fprint(w, RenderCoverage(CoverageReport(seed)))
}

func TestScoringGolden(t *testing.T) {
	for _, seed := range []int64{2024, 7} {
		h := sha256.New()
		scoringTranscript(h, seed)
		if got := hex.EncodeToString(h.Sum(nil)); got != scoringGolden[seed] {
			t.Errorf("seed %d: scoring transcript sha256 = %s, want %s", seed, got, scoringGolden[seed])
		}
	}
}
