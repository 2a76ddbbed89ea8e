// pass_at_k demonstrates the Table 2 pipeline end-to-end on a small slice
// of the VerilogEval-Machine benchmark: sample implementations from the
// simulated model, measure functional correctness by simulation, fix the
// syntax failures with RTLFixer, and measure again.
package main

import (
	"fmt"
	"math/rand"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/metrics"
)

func main() {
	rtlfixer, err := core.New(core.Options{
		CompilerName: "quartus",
		PersonaName:  "gpt-3.5",
		RAG:          true,
		Mode:         core.ModeReAct,
		Seed:         11,
	})
	if err != nil {
		panic(err)
	}

	problems := dataset.Problems(dataset.SuiteMachine)[:12]
	rng := rand.New(rand.NewSource(11))
	const samplesPerProblem = 10

	var ns, origPass, fixedPass []int
	fmt.Printf("%-24s %-10s %-10s\n", "problem", "orig c/n", "fixed c/n")
	for pi, p := range problems {
		rates := llm.SkewRates(llm.RatesFor(string(p.Suite), string(p.Difficulty)), p.ID)
		// every sample of a problem is scored against one testbench
		tb, err := p.NewTestbench(rand.New(rand.NewSource(int64(pi))))
		if err != nil {
			panic(err)
		}
		orig, fixed := 0, 0
		for s := 0; s < samplesPerProblem; s++ {
			sample := llm.Generate(p.RefSource, rates, rng).Code

			switch bench.Evaluate(tb, sample) {
			case bench.OutcomePassed:
				orig++
				fixed++
				continue
			case bench.OutcomeSimError:
				continue // fixing syntax will not help
			}
			// Only compile failures go through the agent: RTLFixer
			// addresses syntax, not logic.
			tr := rtlfixer.Fix("sample.v", sample, rng.Int63())
			if bench.Evaluate(tb, tr.FinalCode) == bench.OutcomePassed {
				fixed++
			}
		}
		ns = append(ns, samplesPerProblem)
		origPass = append(origPass, orig)
		fixedPass = append(fixedPass, fixed)
		fmt.Printf("%-24s %d/%-8d %d/%-8d\n", p.ID, orig, samplesPerProblem, fixed, samplesPerProblem)
	}

	o1, _ := metrics.MeanPassAtK(ns, origPass, 1)
	f1, _ := metrics.MeanPassAtK(ns, fixedPass, 1)
	o5, _ := metrics.MeanPassAtK(ns, origPass, 5)
	f5, _ := metrics.MeanPassAtK(ns, fixedPass, 5)
	fmt.Printf("\npass@1: %.3f -> %.3f (+%.3f from syntax fixing alone)\n", o1, f1, f1-o1)
	fmt.Printf("pass@5: %.3f -> %.3f\n", o5, f5)
}
