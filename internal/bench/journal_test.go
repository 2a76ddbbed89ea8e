package bench

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/agent"
	"repro/internal/curate"
	"repro/internal/pipeline"
)

// sliceJournal keeps every recorded outcome, in arrival order.
type sliceJournal struct {
	mu   sync.Mutex
	recs []journalRec
}

type journalRec struct {
	label string
	job   pipeline.Job
	out   pipeline.Outcome
}

func (j *sliceJournal) Record(label string, jb pipeline.Job, o pipeline.Outcome) {
	j.mu.Lock()
	j.recs = append(j.recs, journalRec{label, jb, o})
	j.mu.Unlock()
}

// fakeFix is a deterministic stand-in agent: success and iteration count
// derive from the seed, final code from the input.
func fakeFix(_ context.Context, j pipeline.Job) *agent.Transcript {
	return &agent.Transcript{
		Success:    j.SampleSeed%2 == 0,
		Iterations: int(j.SampleSeed % 5),
		FinalCode:  "fixed:" + j.Code,
		FixerRules: []string{fmt.Sprintf("rule-%d", j.SampleSeed)},
	}
}

func fakeJobs(n int) []pipeline.Job {
	jobs := make([]pipeline.Job, n)
	for i := range jobs {
		jobs[i] = pipeline.Job{Group: i / 2, Filename: "main.v",
			Code: fmt.Sprintf("module m%d; endmodule", i), SampleSeed: int64(i + 1)}
	}
	return jobs
}

// TestRunJobsRecordsEachSuccessOnce: every successful job is recorded
// exactly once, under the run's label, with the outcome Run returned; the
// caller's own completion hook still sees every result.
func TestRunJobsRecordsEachSuccessOnce(t *testing.T) {
	j := &sliceJournal{}
	SetJournal(j)
	defer SetJournal(nil)

	jobs := fakeJobs(6)
	var hooked int
	cfg := pipeline.Config{Workers: 3, OnResult: func(pipeline.Result) { hooked++ }}
	results, err := runJobs(context.Background(), "exp/a", cfg, jobs, fakeFix)
	if err != nil {
		t.Fatal(err)
	}
	if hooked != len(jobs) {
		t.Fatalf("caller's OnResult saw %d results, want %d", hooked, len(jobs))
	}
	if len(j.recs) != len(jobs) {
		t.Fatalf("journal holds %d outcomes, want %d", len(j.recs), len(jobs))
	}
	seen := map[int]bool{}
	for _, r := range j.recs {
		if r.label != "exp/a" {
			t.Fatalf("recorded under label %q, want exp/a", r.label)
		}
		if seen[r.job.Index] {
			t.Fatalf("job %d recorded twice", r.job.Index)
		}
		seen[r.job.Index] = true
		want := pipeline.OutcomeOf(results[r.job.Index])
		if r.out.Success != want.Success || r.out.Iterations != want.Iterations ||
			r.out.FinalCode != want.FinalCode || r.out.ElapsedNS != want.ElapsedNS {
			t.Fatalf("job %d recorded %+v, Run returned %+v", r.job.Index, r.out, want)
		}
	}
}

// TestRunJobsDoesNotRecordCanceled: a job that never ran (its context
// was already canceled) is reported with its error and never recorded.
func TestRunJobsDoesNotRecordCanceled(t *testing.T) {
	j := &sliceJournal{}
	SetJournal(j)
	defer SetJournal(nil)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := runJobs(ctx, "exp", pipeline.Config{Workers: 2}, fakeJobs(4), fakeFix)
	if err == nil {
		t.Fatal("canceled run must report its context error")
	}
	if len(j.recs) != 0 {
		t.Fatalf("canceled jobs were recorded: %d", len(j.recs))
	}
	for _, r := range results {
		if r.Err == nil && r.Transcript == nil {
			t.Fatal("canceled result must carry its error")
		}
	}
}

// TestSetJournalRecordsEveryTable1Job: a recorder installed with
// SetJournal sees exactly one record per Table 1 agent job, each under a
// table1 label that names its fixer configuration.
func TestSetJournalRecordsEveryTable1Job(t *testing.T) {
	entries, _ := curate.Build(curate.Options{Seed: 11})
	entries = entries[:3]
	const repeats = 2
	j := &sliceJournal{}
	SetJournal(j)
	defer SetJournal(nil)

	res := RunTable1(Table1Config{Seed: 11, Repeats: repeats, Entries: entries, Workers: 2, Cache: true})
	cells := 0
	for _, c := range res.Cells {
		if !math.IsNaN(c.FixRate) {
			cells++
		}
	}
	if want := cells * len(entries) * repeats; len(j.recs) != want {
		t.Fatalf("recorded %d jobs, want %d (%d cells x %d entries x %d repeats)",
			len(j.recs), want, cells, len(entries), repeats)
	}
	type key struct {
		label string
		index int
	}
	seen := map[key]bool{}
	for _, r := range j.recs {
		if !strings.HasPrefix(r.label, "table1/mode=") {
			t.Fatalf("record label %q does not name a table1 fixer configuration", r.label)
		}
		k := key{r.label, r.job.Index}
		if seen[k] {
			t.Fatalf("job %d recorded twice under %q", r.job.Index, r.label)
		}
		seen[k] = true
	}
}
