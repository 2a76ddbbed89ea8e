package curate

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"
)

// buildGolden is the sha256 of buildTranscript per seed. A change to the
// shingle representation, the Jaccard arithmetic or the clustering must
// leave every curated entry and every stage count unchanged.
var buildGolden = map[int64]string{
	2024: "4f6e3435231181c72e365aa02c8cda0a3ae70e542d6e5c25b960c0c8d665f96a",
	1:    "df204a84a8f8ecd014638bb928c159e4e3ff1ecf196f2670810f902ecd2afab2",
	7:    "ed5b7eed3077f580e6c24f5cc2a8f3b573840c9877661910b4fedf428eb3fe0c",
}

// buildTranscript writes every entry's identity, code and ground truth,
// then the stage counts.
func buildTranscript(w io.Writer, entries []Entry, stats Stats) {
	for i, e := range entries {
		fmt.Fprintf(w, "%d %s %s seed=%d logic=%v\n%s\n", i, e.ProblemID, e.Suite, e.SampleSeed, e.LogicOK, e.Code)
		for _, m := range e.Mutations {
			fmt.Fprintf(w, "mut %+v\n", m)
		}
	}
	fmt.Fprintf(w, "stats %+v\n", stats)
}

func TestBuildGolden(t *testing.T) {
	for _, seed := range []int64{2024, 1, 7} {
		entries, stats := Build(Options{Seed: seed})
		h := sha256.New()
		buildTranscript(h, entries, stats)
		if got := hex.EncodeToString(h.Sum(nil)); got != buildGolden[seed] {
			t.Errorf("seed %d: Build transcript sha256 = %s, want %s", seed, got, buildGolden[seed])
		}
	}
}

// sinkEntries keeps the benchmarked Build call from being optimized away.
var sinkEntries []Entry

// BenchmarkBuild times one full curation run (sampling, filtering,
// clustering, selection) at the default options.
func BenchmarkBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkEntries, _ = Build(Options{Seed: 2024})
	}
}
