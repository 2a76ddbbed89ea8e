//go:build !race

// The race detector makes sync.Pool drop items at random, so the
// regexp matchers the scan borrows from pools allocate a varying number
// of times; the ceiling is only meaningful without it.

package llm_test

import (
	"testing"

	"repro/internal/llm"
)

// blindAllocCeiling bounds BlindHypotheses' allocations on the first
// curated entry. It measures 37 with every pattern compiled once, and
// 485 when patterns were compiled inside the per-line loop.
const blindAllocCeiling = 50

func TestBlindHypothesesAllocs(t *testing.T) {
	entries, _ := curatedCorpus()
	src := entries[0].Code
	if n := testing.AllocsPerRun(20, func() { llm.BlindHypotheses(src) }); n > blindAllocCeiling {
		t.Errorf("BlindHypotheses allocates %.0f times per call, ceiling %d", n, blindAllocCeiling)
	}
}
