package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/compiler"
	"repro/internal/dataset"
	"repro/internal/memo"
	"repro/internal/pipeline"
)

// childSpec is what the parent asks one child to do.
type childSpec struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Workers  int    `json:"workers"`
	Traced   bool   `json:"traced"`
	Tiny     bool   `json:"tiny"`
	Index    int    `json:"index"`
}

// childResult is one child's measurement, printed as its last stdout
// line. Spec is filled in by the parent.
type childResult struct {
	// MainUnixNS is when the child's main began; the parent adds the
	// time from its exec to there (process start and package
	// initialisation) to SetupS.
	MainUnixNS int64   `json:"main_unix_ns"`
	SetupS     float64 `json:"setup_s"`
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s"`
	// PeakRSSMB is the child's resident high-water mark when the
	// measured phase ends: set-up, warm-up and the timed work, but not
	// the checks that run after it.
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// Ops counts the operations the fixed work completed; LatMS holds
	// one latency per operation that has one, LatFailed counts failed or
	// refused operations (they miss every latency limit).
	Ops       int       `json:"ops"`
	LatMS     []float64 `json:"lat_ms"`
	LatFailed int       `json:"lat_failed"`
	// Quality guards against speed bought with worse answers: the fix
	// rate of all agent jobs (fix-grid) or requests (serve-fix), mean
	// pass@1 after fixing over both suites (passk-sim), and the share of
	// lint verdicts that agree with the generator's ground truth
	// (lint-cold).
	Quality float64 `json:"quality"`
	// Attempted and Failed count the output checks.
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Failures    []string           `json:"failures,omitempty"`
	Fingerprint string             `json:"fingerprint,omitempty"`
	Layers      map[string]float64 `json:"layers,omitempty"`
	// Notes are facts about the child's inputs that the parent prints,
	// such as how serve-fix traffic spread over entries.
	Notes []string `json:"notes,omitempty"`

	Spec childSpec `json:"-"`
}

// maxFailureNotes bounds the failure messages a child reports.
const maxFailureNotes = 10

// check counts one checked operation and records a failure note.
func (r *childResult) check(ok bool, format string, args ...any) {
	r.Attempted++
	if ok {
		return
	}
	r.Failed++
	if len(r.Failures) < maxFailureNotes {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func childMain(specJSON string, stdout, stderr io.Writer) int {
	mainStart := time.Now()
	var spec childSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintf(stderr, "perfbench child: bad spec: %v\n", err)
		return 2
	}
	w, ok := workloads[spec.Workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench child: unknown workload %q\n", spec.Workload)
		return 2
	}
	res, err := w.run(spec)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench child: %s: %v\n", spec.Workload, err)
		return 1
	}
	res.MainUnixNS = mainStart.UnixNano()
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench child: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// meter brackets the measured phase: wall and process CPU always, and in
// a traced child the public counters, runtime metrics and a CPU profile.
type meter struct {
	traced  bool
	start   time.Time
	cpu0    float64
	memo0   memo.KindTotals
	oracle0 memo.Stats
	rt0     []metrics.Sample
	prof    bytes.Buffer
	wall    time.Duration
	cpu     float64
}

// runtimeMetrics are the runtime/metrics behind runtime.alloc_mb,
// runtime.gc_cycles and runtime.gc_cpu_s.
var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func runtimeValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's resident high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func startMeter(traced bool) (*meter, error) {
	m := &meter{traced: traced}
	if traced {
		m.memo0 = memo.TotalsByKind()
		m.oracle0 = dataset.OracleCacheStats()
		m.rt0 = readRuntime()
		if err := pprof.StartCPUProfile(&m.prof); err != nil {
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
	}
	m.cpu0 = processCPU()
	m.start = time.Now()
	return m, nil
}

// stop ends the measured phase and, in a traced child, folds the
// counters and the profile into layers.
func (m *meter) stop(res *childResult, l layers) error {
	m.wall = time.Since(m.start)
	m.cpu = processCPU() - m.cpu0
	res.WallS = m.wall.Seconds()
	res.CPUS = m.cpu
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	res.PeakRSSMB = rss
	if !m.traced {
		return nil
	}
	pprof.StopCPUProfile()
	memoD := memo.TotalsByKind()
	oracleD := dataset.OracleCacheStats().Sub(m.oracle0)
	rt1 := readRuntime()

	c := memoD.Compile.Sub(m.memo0.Compile)
	s := memoD.Sim.Sub(m.memo0.Sim)
	r := memoD.Retrieval.Sub(m.memo0.Retrieval)
	l["memo.compile_lookups"] = float64(c.Hits + c.Misses)
	l["memo.compile_hit_ratio"] = ratio(float64(c.Hits), float64(c.Hits+c.Misses))
	l["memo.compile_misses"] = float64(c.Misses)
	l["memo.retrieval_lookups"] = float64(r.Lookups)
	l["memo.sim_lookups"] = float64(s.Hits + s.Misses)
	l["memo.sim_hit_ratio"] = ratio(float64(s.Hits), float64(s.Hits+s.Misses))
	l["dataset.checks"] = float64(oracleD.Hits + oracleD.Misses)
	l["sim.compiles"] = float64(oracleD.Misses)
	l["runtime.alloc_mb"] = (runtimeValue(rt1[0]) - runtimeValue(m.rt0[0])) / (1 << 20)
	l["runtime.gc_cycles"] = runtimeValue(rt1[1]) - runtimeValue(m.rt0[1])
	l["runtime.gc_cpu_s"] = runtimeValue(rt1[2]) - runtimeValue(m.rt0[2])
	return attributeProfile(m.prof.Bytes(), l)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// recorder is a pipeline.Journal that never restores and keeps every
// outcome, so the benchmark can check the program's results itself.
type recorder struct {
	mu   sync.Mutex
	recs []record
}

type record struct {
	label string
	job   pipeline.Job
	out   pipeline.Outcome
}

func (r *recorder) Lookup(string, pipeline.Job) (pipeline.Outcome, bool) {
	return pipeline.Outcome{}, false
}

func (r *recorder) Record(label string, jb pipeline.Job, o pipeline.Outcome) {
	r.mu.Lock()
	r.recs = append(r.recs, record{label, jb, o})
	r.mu.Unlock()
}

// verifier re-compiles reported fixes with fresh, uncached compiler
// personas. Identical (persona, code) pairs share one verdict: the
// compile is a pure function of both.
type verifier struct {
	seen map[[2]string]bool
}

func newVerifier() *verifier { return &verifier{seen: map[[2]string]bool{}} }

// compiles reports whether code compiles under a fresh instance of the
// named persona; an unknown persona fails the check.
func (v *verifier) compiles(persona, code string) bool {
	key := [2]string{persona, code}
	ok, done := v.seen[key]
	if !done {
		comp, known := compiler.ByName(persona)
		ok = known && comp.Compile("main.v", code).Ok
		v.seen[key] = ok
	}
	return ok
}
