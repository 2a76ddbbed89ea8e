package llm_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/curate"
	"repro/internal/fixer"
	"repro/internal/llm"
)

// hotPathGolden is the sha256 of hotPathTranscript over the Seed 2024
// curated corpus. Rewrites of BlindHypotheses, the repair strategies or
// the scanners they share must leave it unchanged.
const hotPathGolden = "263f59e7b5382dd5ac1195b5243fc19f8cba1288ae847b64b0d1e77bdf281e75"

// hotPathTranscript writes every blind hypothesis and the result of
// three chained Repair rounds per entry and persona, each followed by the
// rule-based fixer. Each round compiles the current code with the Quartus
// persona and feeds that log back, so later rounds exercise the
// strategies on partly repaired code too.
func hotPathTranscript(w io.Writer, entries []curate.Entry) {
	quartus := compiler.Quartus{}
	for i, e := range entries {
		for _, h := range llm.BlindHypotheses(e.Code) {
			fmt.Fprintf(w, "%d blind %+v\n", i, h)
		}
		for _, p := range []llm.Persona{llm.GPT35(), llm.GPT4()} {
			code := e.Code
			for round := 0; round < 3; round++ {
				res := llm.NewModel(p, 1).Repair(llm.RepairRequest{
					Code:       code,
					Feedback:   quartus.Compile("top_module.v", code).Log,
					Thought:    round > 0,
					SampleSeed: e.SampleSeed,
					Iteration:  round,
				})
				fmt.Fprintf(w, "%d %s round %d attempted %d notes %q\n%s\n", i, p.Name, round, res.Attempted, res.Notes, res.Code)
				fixed := fixer.Fix(res.Code)
				fmt.Fprintf(w, "fixer %q\n%s\n", fixed.Applied, fixed.Code)
				code = res.Code
			}
		}
	}
}

func TestHotPathGolden(t *testing.T) {
	entries, _ := curatedCorpus()
	if len(entries) != curate.TargetSize {
		t.Fatalf("curated %d entries, want %d", len(entries), curate.TargetSize)
	}
	h := sha256.New()
	hotPathTranscript(h, entries)
	if got := hex.EncodeToString(h.Sum(nil)); got != hotPathGolden {
		t.Errorf("hot-path transcript sha256 = %s, want %s", got, hotPathGolden)
	}
}

var (
	corpusOnce sync.Once
	corpus     []curate.Entry
	corpusLogs []string
)

// curatedCorpus returns the Seed 2024 curated entries and the Quartus
// log of each, built once per test binary.
func curatedCorpus() ([]curate.Entry, []string) {
	corpusOnce.Do(func() {
		corpus, _ = curate.Build(curate.Options{Seed: 2024})
		for _, e := range corpus {
			corpusLogs = append(corpusLogs, compiler.Quartus{}.Compile("top_module.v", e.Code).Log)
		}
	})
	return corpus, corpusLogs
}

// Benchmark results land here so the compiler keeps the measured calls.
var (
	sinkHyps   []llm.Hypothesis
	sinkRepair llm.RepairResult
)

// BenchmarkBlindHypotheses runs the visual scan over every curated entry;
// one op is the whole corpus.
func BenchmarkBlindHypotheses(b *testing.B) {
	entries, _ := curatedCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range entries {
			sinkHyps = llm.BlindHypotheses(e.Code)
		}
	}
}

// BenchmarkModelRepair runs one GPT-3.5 Repair turn, with the entry's
// Quartus log as feedback, over every curated entry; one op is the whole
// corpus.
func BenchmarkModelRepair(b *testing.B) {
	entries, logs := curatedCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, e := range entries {
			sinkRepair = llm.NewModel(llm.GPT35(), 1).Repair(llm.RepairRequest{
				Code: e.Code, Feedback: logs[j], SampleSeed: e.SampleSeed,
			})
		}
	}
}
