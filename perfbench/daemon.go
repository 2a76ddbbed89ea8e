package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/curate"
	"repro/internal/dataset"
	"repro/internal/diag"
	"repro/internal/llm"
	"repro/internal/server"
	"repro/internal/trace"
)

// Daemon workload sizes: requests in the measured phase. Each child
// serves this fixed work, so wall_s is comparable across children.
const (
	serveFixRequests = 8000
	lintRequests     = 6000
	tinyRequests     = 40
	// lintWarmup requests run before the measured lint phase, on sources
	// of their own, so connection set-up and first-use costs are paid.
	lintWarmup = 64
	// zipfS skews serve-fix popularity over the curated entries. No
	// trace of real callers exists; s near 1 is the usual model of
	// request popularity, and 1.1 is an assumption, not a fit. Ranks map
	// to entries through a fixed permutation (permutedRanks), so the hot
	// set is not the alphabetically first problems.
	zipfS = 1.1
	// hotSet is the number of most popular entries whose traffic share
	// and iteration mix a serve-fix child reports.
	hotSet = 5
	// serveFixClientsPerCPU sizes the serve-fix closed loop. The server
	// batches up to 2*nproc requests and lingers 2 ms for a batch to
	// fill; with only nproc callers every request waits out the linger,
	// and the run measures how fast an idle vCPU wakes for that timer:
	// on a shared 2-vCPU VM, served/s moved by 0.30 of its median across
	// runs. 4*nproc callers keep batches full, so the run measures
	// dispatch, queueing and agent work. serveFixClients caps them below
	// the server's brownout point.
	serveFixClientsPerCPU = 4
	// brownoutThreshold is the server's default admission-fill fraction
	// past which it sheds lint requests and new traces.
	brownoutThreshold = 0.9
	// Every lintBigEvery-th lint source is replicated to about
	// lintBigBytes, so large inputs take a steady share of the traffic.
	// This share is chosen, not observed: at 1 in 16 (6.25%) the p95 of
	// lint-cold measures the large sources by construction, while the
	// p50 measures the small ones. At 1 in 32 the p95 sat on the thin
	// tail of small sources and moved by more than its median across
	// runs on a busy host.
	lintBigEvery = 16
	lintBigBytes = 24 << 10
)

// daemon is an in-process rtlfixerd on a loopback port.
type daemon struct {
	srv  *server.Server
	hs   *http.Server
	base string
	col  *trace.Collector
	done chan error
}

// startDaemon builds the server with its default configuration plus
// prewarm, serves it on loopback and waits until /v1/readyz answers 200.
// It returns the daemon, the time to construct and listen, and the time
// until ready. The daemon's model seed is a fixed deployment setting; the
// workload seed reaches it only through the requests.
func startDaemon(traced bool, ring int) (*daemon, time.Duration, time.Duration, error) {
	t0 := time.Now()
	cfg := server.Config{Seed: datasetSeed, Prewarm: true}
	d := &daemon{done: make(chan error, 1)}
	if traced {
		// slow retention off: every trace stays in the ring until read
		d.col = trace.NewCollector(ring, -1, 0)
		cfg.Tracing = d.col
	}
	d.srv = server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.srv.Close()
		return nil, 0, 0, err
	}
	d.base = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: d.srv}
	go func() { d.done <- d.hs.Serve(ln) }()
	built := time.Since(t0)

	hc := &http.Client{Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := hc.Get(d.base + "/v1/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			d.close()
			return nil, 0, 0, fmt.Errorf("daemon not ready after 60s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
	return d, built, time.Since(t0), nil
}

// close stops the listener, waits for in-flight handlers, then stops
// the dispatcher.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx) // only fails on timeout; Close below still runs
	<-d.done
	d.srv.Close()
}

// call is one HTTP request the clients send; reply is its outcome.
type call struct {
	path string
	body []byte
	id   string
}

type reply struct {
	status int
	body   []byte
	latMS  float64
	err    error
}

// drive sends the calls from `clients` keep-alive clients in a closed
// loop: each client sends its next call only when the previous reply is
// in, as CLI and editor callers do. Calls are taken in order from a
// shared counter.
func drive(base string, clients int, calls []call) []reply {
	replies := make([]reply, len(calls))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 1}
			defer tr.CloseIdleConnections()
			hc := &http.Client{Transport: tr, Timeout: 60 * time.Second}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(calls) {
					return
				}
				replies[i] = send(hc, base, calls[i])
			}
		}()
	}
	wg.Wait()
	return replies
}

func send(hc *http.Client, base string, c call) reply {
	req, err := http.NewRequest(http.MethodPost, base+c.path, bytes.NewReader(c.body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", c.id)
	t0 := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return reply{err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return reply{status: resp.StatusCode, body: body, latMS: float64(time.Since(t0)) / 1e6, err: err}
}

func (r reply) ok() bool { return r.err == nil && r.status == http.StatusOK }

// daemonLayers folds the measured phase's request traces and the
// server's counters into the per-layer metrics.
func daemonLayers(d *daemon, l layers, m *meter, calls []call, replies []reply, s0, s1 server.StatsSnapshot) int {
	f := newSpanFold()
	for _, s := range d.col.Summaries(0) {
		if s.Start.Before(m.start) {
			continue
		}
		if t, ok := d.col.Get(s.ID); ok {
			f.add(t.JSON())
		}
	}
	f.into(l, m.start, m.wall, runtime.NumCPU()) // the server's default pool size
	var gaps []float64
	for i, c := range calls {
		if root, ok := f.rootMS[c.id]; ok && replies[i].ok() {
			gaps = append(gaps, replies[i].latMS-root)
		}
	}
	l["server.http_ms"] = quantileOr0(gaps, 0.5)
	l["server.coalesced_ratio"] = ratio(float64(s1.Fix.Coalesced-s0.Fix.Coalesced), float64(s1.Requests.Fix-s0.Requests.Fix))
	l["server.mean_batch"] = ratio(float64(s1.Dispatch.BatchedJobs-s0.Dispatch.BatchedJobs), float64(s1.Dispatch.Batches-s0.Dispatch.Batches))
	l["server.rejected"] = float64(s1.Fix.RejectedQueueFull - s0.Fix.RejectedQueueFull +
		s1.Fix.RejectedDraining - s0.Fix.RejectedDraining +
		s1.Resilience.BreakerRejected - s0.Resilience.BreakerRejected +
		s1.Resilience.BrownoutLintShed - s0.Resilience.BrownoutLintShed)
	l["server.sim_checks"] = float64(s1.SimCheck.Checked - s0.SimCheck.Checked)
	return f.violations
}

// checkNoShedding fails the run if the server refused or shed any work
// over the measured phase: a shed trace would silently drop spans from
// the per-layer figures, a refused request is a harness overload.
func checkNoShedding(res *childResult, s0, s1 server.StatsSnapshot) {
	d := func(a, b uint64) uint64 { return b - a }
	res.check(d(s0.Fix.RejectedQueueFull, s1.Fix.RejectedQueueFull) == 0, "server rejected fix requests: queue full")
	res.check(d(s0.Fix.RejectedDraining, s1.Fix.RejectedDraining) == 0, "server rejected fix requests: draining")
	res.check(d(s0.Resilience.BreakerRejected, s1.Resilience.BreakerRejected) == 0, "server breaker rejected requests")
	res.check(d(s0.Resilience.BrownoutLintShed, s1.Resilience.BrownoutLintShed) == 0, "server shed lint requests under brownout")
	res.check(d(s0.Resilience.BrownoutTracesShed, s1.Resilience.BrownoutTracesShed) == 0, "server shed traces under brownout")
}

// serveFixClients is serveFixClientsPerCPU*workers, capped so that the
// closed loop never fills admission to the brownout point.
func serveFixClients(st server.StatsSnapshot, workers int) int {
	brownoutAt := int(brownoutThreshold * float64(st.Queue.MaxInFlight+st.Queue.QueueDepth))
	return min(serveFixClientsPerCPU*workers, brownoutAt-1)
}

// permutedRanks maps Zipf popularity ranks to entry indices through a
// permutation fixed by the dataset seed, so popularity is independent of
// curated (alphabetical) order and of difficulty.
func permutedRanks(n int) []int {
	return rand.New(rand.NewSource(datasetSeed)).Perm(n)
}

// fixReply mirrors the /v1/fix success body fields the checks read.
type fixReply struct {
	Success    bool   `json:"success"`
	Iterations int    `json:"iterations"`
	FinalCode  string `json:"final_code"`
}

// runServeFix is the serve-fix workload: up to 4*nproc closed-loop
// clients send /v1/fix requests over the curated entries with
// Zipf-skewed popularity, after a warm-up pass over every entry that is
// not timed.
func runServeFix(spec childSpec) (*childResult, error) {
	res := &childResult{}
	l := newLayers()
	var entries []curate.Entry
	curateT := timed(func() { entries, _ = curate.Build(curate.Options{Seed: datasetSeed}) })
	n := serveFixRequests
	if spec.Tiny {
		entries, n = entries[:tinyEntries], tinyRequests
	}
	d, built, ready, err := startDaemon(spec.Traced, n+len(entries)+64)
	if err != nil {
		return nil, err
	}
	defer d.close()
	res.SetupS = (curateT + ready).Seconds()
	l["curate.build_s"] = curateT.Seconds()
	l["core.new_s"] = (ready - built).Seconds() // the prewarm builds the default fixer

	fixCall := func(i, e int, tag string) call {
		body, _ := json.Marshal(map[string]any{"source": entries[e].Code, "seed": entries[e].SampleSeed})
		return call{path: "/v1/fix", body: body, id: fmt.Sprintf("%s-%d", tag, i)}
	}
	warm := make([]call, len(entries))
	for i := range entries {
		warm[i] = fixCall(i, i, "warm")
	}
	clients := serveFixClients(d.srv.Stats(), spec.Workers)
	warmReplies := drive(d.base, clients, warm)

	// Popularity: Zipf over permuted ranks; the seed draws the request
	// stream.
	rng := rand.New(rand.NewSource(spec.Seed))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(entries)-1))
	byRank := permutedRanks(len(entries))
	calls := make([]call, n)
	callEntry := make([]int, n)
	callRank := make([]int, n)
	for i := range calls {
		r := int(zipf.Uint64())
		e := byRank[r]
		calls[i], callEntry[i], callRank[i] = fixCall(i, e, "req"), e, r
	}

	s0 := d.srv.Stats()
	m, err := startMeter(spec.Traced)
	if err != nil {
		return nil, err
	}
	replies := drive(d.base, clients, calls)
	if err := m.stop(res, l); err != nil {
		return nil, err
	}
	s1 := d.srv.Stats()

	// Checks: every request succeeds at the HTTP level, every entry gets
	// the same answer every time it is asked (warm-up included), and
	// every reported fix compiles under a fresh Quartus persona.
	v := newVerifier()
	first := map[int]fixReply{}
	fixed := 0
	checkReply := func(e int, r reply, measured bool) {
		if !r.ok() {
			res.check(false, "entry %d: status %d: %v", e, r.status, r.err)
			if measured {
				res.LatFailed++
			}
			return
		}
		var fr fixReply
		if err := json.Unmarshal(r.body, &fr); err != nil {
			res.check(false, "entry %d: bad body: %v", e, err)
			return
		}
		if measured {
			res.Ops++
			res.LatMS = append(res.LatMS, r.latMS)
			if fr.Success {
				fixed++
			}
		}
		if prev, seen := first[e]; seen {
			res.check(prev == fr, "entry %d: answer differs between requests", e)
		} else {
			first[e] = fr
		}
		if fr.Success {
			res.check(v.compiles("quartus", fr.FinalCode), "entry %d: reported fix does not compile under fresh Quartus", e)
		}
	}
	for i, r := range warmReplies {
		checkReply(i, r, false)
	}
	for i, r := range replies {
		checkReply(callEntry[i], r, true)
	}
	checkNoShedding(res, s0, s1)
	res.Quality = ratio(float64(fixed), float64(n))
	res.Notes = append(res.Notes, trafficNote(callRank, first, byRank, len(entries)))
	if spec.Traced {
		res.check(daemonLayers(d, l, m, calls, replies, s0, s1) == 0, "child spans outside their parent")
		res.Layers = l
	}
	return res, nil
}

// trafficNote reports how the measured requests spread over entries: the
// share on the most popular entry and on the hotSet most popular, and
// the mean agent iterations of the hot set against all entries.
func trafficNote(callRank []int, answer map[int]fixReply, byRank []int, entries int) string {
	top1, topK := 0, 0
	for _, r := range callRank {
		if r == 0 {
			top1++
		}
		if r < hotSet {
			topK++
		}
	}
	meanIters := func(ranks int) float64 {
		sum := 0
		for r := 0; r < ranks; r++ {
			sum += answer[byRank[r]].Iterations
		}
		return ratio(float64(sum), float64(ranks))
	}
	k := min(hotSet, entries)
	return fmt.Sprintf("serve-fix traffic top1_share=%.3f top%d_share=%.3f top%d_mean_iterations=%.2f all_mean_iterations=%.2f",
		ratio(float64(top1), float64(len(callRank))), k, ratio(float64(topK), float64(len(callRank))),
		k, meanIters(k), meanIters(entries))
}

// lintInput is one lint-cold source with its generator's ground truth.
type lintInput struct {
	src       string
	syntaxErr bool
}

var moduleName = regexp.MustCompile(`\bmodule\s+(\w+)`)

// lintInputs draws n fresh llm.Generate samples, cycling over all 314
// reference designs. Every lintBigEvery-th sample is replicated, with
// renamed modules, to about lintBigBytes. A unique trailing comment keeps
// every source distinct, so nearly every request misses the compile
// cache.
func lintInputs(seed int64, n int) []lintInput {
	var refs []*dataset.Problem
	for _, s := range []dataset.Suite{dataset.SuiteMachine, dataset.SuiteHuman, dataset.SuiteRTLLM} {
		refs = append(refs, dataset.Problems(s)...)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]lintInput, n)
	for i := range out {
		p := refs[i%len(refs)]
		s := llm.Generate(p.RefSource, llm.RatesFor(string(p.Suite), string(p.Difficulty)), rng)
		src := s.Code
		if i%lintBigEvery == 0 {
			var b strings.Builder
			for k := 0; b.Len() < lintBigBytes; k++ {
				b.WriteString(moduleName.ReplaceAllString(s.Code, fmt.Sprintf("module ${1}_copy%d", k)))
				b.WriteString("\n")
			}
			src = b.String()
		}
		out[i] = lintInput{src: fmt.Sprintf("%s\n// lint-cold source %d\n", src, i), syntaxErr: s.Kind == llm.KindSyntaxErr}
	}
	return out
}

// lintReply mirrors the /v1/lint body; expected bodies are built from a
// direct core Lint into the same type, so both compare as canonical JSON.
type lintReply struct {
	Ok       bool          `json:"ok"`
	Log      string        `json:"log"`
	Errors   int           `json:"errors"`
	Findings []lintFinding `json:"findings"`
}

type lintFinding struct {
	Rule     string    `json:"rule,omitempty"`
	Severity string    `json:"severity"`
	Category string    `json:"category"`
	Line     int       `json:"line"`
	Col      int       `json:"col"`
	Symbol   string    `json:"symbol,omitempty"`
	Message  string    `json:"message"`
	Related  []lintPos `json:"related,omitempty"`
}

type lintPos struct {
	Line int `json:"line"`
	Col  int `json:"col"`
}

// expectedLint renders a direct, uncached core Lint as /v1/lint would.
func expectedLint(f *core.RTLFixer, src string) lintReply {
	res := f.Lint("main.v", src)
	out := lintReply{Ok: res.Ok, Log: res.Log, Findings: []lintFinding{}}
	for _, d := range res.Diags {
		if d.Severity == diag.SeverityError {
			out.Errors++
		}
		lf := lintFinding{Rule: d.Rule, Severity: d.Severity.String(), Category: d.Category.String(),
			Line: d.Pos.Line, Col: d.Pos.Col, Symbol: d.Symbol, Message: d.Message}
		for _, rp := range d.Related {
			lf.Related = append(lf.Related, lintPos{Line: rp.Line, Col: rp.Col})
		}
		out.Findings = append(out.Findings, lf)
	}
	return out
}

// directLints renders the expected body of every input from a direct,
// uncached core Lint, on `workers` goroutines (after the measured phase,
// so only the run's length pays for it).
func directLints(inputs []lintInput, workers int) ([][]byte, error) {
	direct, err := core.New(core.Options{})
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(inputs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(inputs); i = int(next.Add(1)) - 1 {
				out[i], _ = json.Marshal(expectedLint(direct, inputs[i].src)) // plain structs always marshal
			}
		}()
	}
	wg.Wait()
	return out, nil
}

// runLintCold is the lint-cold workload: the serve-fix daemon and
// clients, on /v1/lint with fresh generated sources.
func runLintCold(spec childSpec) (*childResult, error) {
	res := &childResult{}
	l := newLayers()
	n := lintRequests
	if spec.Tiny {
		n = tinyRequests
	}
	inputs := lintInputs(spec.Seed, lintWarmup+n)
	d, built, ready, err := startDaemon(spec.Traced, n+lintWarmup+64)
	if err != nil {
		return nil, err
	}
	defer d.close()
	res.SetupS = ready.Seconds()
	l["core.new_s"] = (ready - built).Seconds()

	calls := make([]call, len(inputs))
	for i, in := range inputs {
		body, _ := json.Marshal(map[string]any{"source": in.src})
		calls[i] = call{path: "/v1/lint", body: body, id: fmt.Sprintf("lint-%d", i)}
	}
	drive(d.base, spec.Workers, calls[:lintWarmup])
	calls, inputs = calls[lintWarmup:], inputs[lintWarmup:]

	s0 := d.srv.Stats()
	m, err := startMeter(spec.Traced)
	if err != nil {
		return nil, err
	}
	replies := drive(d.base, spec.Workers, calls)
	if err := m.stop(res, l); err != nil {
		return nil, err
	}
	s1 := d.srv.Stats()

	// Checks: every response equals a direct core Lint of the same
	// source with the cache off.
	want, err := directLints(inputs, spec.Workers)
	if err != nil {
		return nil, err
	}
	agree := 0
	for i, r := range replies {
		if !r.ok() {
			res.check(false, "lint %d: status %d: %v", i, r.status, r.err)
			res.LatFailed++
			continue
		}
		res.Ops++
		res.LatMS = append(res.LatMS, r.latMS)
		var got lintReply
		if err := json.Unmarshal(r.body, &got); err != nil {
			res.check(false, "lint %d: bad body: %v", i, err)
			continue
		}
		gotJSON, _ := json.Marshal(got)
		res.check(bytes.Equal(gotJSON, want[i]), "lint %d: response differs from a direct uncached Lint", i)
		if got.Ok != inputs[i].syntaxErr {
			agree++
		}
	}
	checkNoShedding(res, s0, s1)
	res.Quality = ratio(float64(agree), float64(n))
	if spec.Traced {
		res.check(daemonLayers(d, l, m, calls, replies, s0, s1) == 0, "child spans outside their parent")
		res.Layers = l
	}
	return res, nil
}
