package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestFixRequestTraceTree is the acceptance gate: a real /v1/fix run
// with tracing on must yield a retrievable span tree covering
// admission → queue → run → agent iterations → compile, plus the
// post-fix sim check, under a "fix" root.
func TestFixRequestTraceTree(t *testing.T) {
	c := trace.NewCollector(0, 0, 0)
	_, ts := newTestServer(t, Config{Tracing: c})
	status, out := postFix(t, ts.URL, map[string]any{"source": brokenSource})
	if status != http.StatusOK || out["success"] != true {
		t.Fatalf("fix failed: %d %v", status, out)
	}

	resp, raw := get(t, ts.URL+"/v1/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace list status = %d", resp.StatusCode)
	}
	var list traceListResponse
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatalf("trace list: %v\n%s", err, raw)
	}
	if !list.Enabled || len(list.Traces) == 0 {
		t.Fatalf("no traces listed: %+v", list)
	}
	var fixID string
	for _, s := range list.Traces {
		if s.Root == "fix" {
			fixID = s.ID
			break
		}
	}
	if fixID == "" {
		t.Fatalf("no fix trace among %+v", list.Traces)
	}

	resp, raw = get(t, ts.URL+"/v1/trace/"+fixID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace get status = %d: %s", resp.StatusCode, raw)
	}
	var tree trace.TraceJSON
	if err := json.Unmarshal(raw, &tree); err != nil {
		t.Fatalf("trace tree: %v", err)
	}
	if tree.Root.Name != "fix" {
		t.Fatalf("root = %q, want fix", tree.Root.Name)
	}
	counts := map[string]int{}
	var walk func(sp trace.SpanJSON)
	walk = func(sp trace.SpanJSON) {
		counts[sp.Name]++
		for _, ch := range sp.Children {
			walk(ch)
		}
	}
	walk(tree.Root)
	for _, stage := range []string{"admission", "queue", "wait", "run", "agent", "iteration", "compile", "sim"} {
		if counts[stage] == 0 {
			t.Fatalf("trace missing %q span; got %v", stage, counts)
		}
	}
	if id, ok := tree.Root.Attrs["request_id"].(string); !ok || id == "" {
		t.Fatalf("fix root has no request_id attr: %v", tree.Root.Attrs)
	}

	// Unknown IDs are a clean 404.
	resp, _ = get(t, ts.URL+"/v1/trace/t-999999")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing trace status = %d, want 404", resp.StatusCode)
	}
}

// TestTraceDisabled: without a collector the endpoints answer cleanly
// and cheaply rather than 500ing.
func TestTraceDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, raw := get(t, ts.URL+"/v1/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace list status = %d", resp.StatusCode)
	}
	var list traceListResponse
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatal(err)
	}
	if list.Enabled || len(list.Traces) != 0 {
		t.Fatalf("disabled tracing listed traces: %+v", list)
	}
	resp, _ = get(t, ts.URL+"/v1/trace/t-000001")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace get status = %d, want 404", resp.StatusCode)
	}
}

// TestMetricsEndpoint scrapes /metrics after real traffic and checks
// the exposition parses, carries the TYPE headers the smoke script
// greps, and reflects the served requests.
func TestMetricsEndpoint(t *testing.T) {
	c := trace.NewCollector(0, 0, 0)
	_, ts := newTestServer(t, Config{Tracing: c})
	if status, _ := postFix(t, ts.URL, map[string]any{"source": brokenSource}); status != http.StatusOK {
		t.Fatal("fix failed")
	}

	resp, raw := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != metrics.PromContentType {
		t.Fatalf("content type = %q", got)
	}
	text := string(raw)
	for _, want := range []string{
		"# TYPE rtlfixer_fix_requests_total counter",
		"# TYPE rtlfixer_fix_latency_ms histogram",
		"# TYPE rtlfixer_stage_duration_ms histogram",
		"# TYPE rtlfixer_queue_depth gauge",
		`rtlfixer_fix_outcomes_total{outcome="ok"} 1`,
		"rtlfixer_fix_requests_total 1",
		`rtlfixer_http_responses_total{code="200"}`,
		`rtlfixer_fix_latency_ms_bucket{le="+Inf"} 1`,
		`rtlfixer_stage_duration_ms_bucket{stage="compile",le="+Inf"}`,
		`rtlfixer_cache_events_total{layer="compile",event="hit"}`,
		"rtlfixer_traces_collected_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
	// Every non-comment line must be "name[{labels}] value".
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.LastIndexByte(line, ' ') <= 0 {
			t.Fatalf("malformed sample line %q", line)
		}
	}
}

// TestRequestIDPropagation: an incoming X-Request-ID is echoed; absent
// one, the server assigns and echoes its own, and the access log (when
// configured) carries it.
func TestRequestIDPropagation(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	_, ts := newTestServer(t, Config{AccessLog: logger})

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/healthz", nil)
	req.Header.Set("X-Request-ID", "caller-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "caller-7" {
		t.Fatalf("echoed id = %q, want caller-7", got)
	}

	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	assigned := resp.Header.Get("X-Request-ID")
	if !strings.HasPrefix(assigned, "r-") {
		t.Fatalf("assigned id = %q, want r- prefix", assigned)
	}

	logs := logBuf.String()
	for _, want := range []string{`"id":"caller-7"`, `"id":"` + assigned + `"`, `"path":"/v1/healthz"`, `"status":200`} {
		if !strings.Contains(logs, want) {
			t.Fatalf("access log missing %s:\n%s", want, logs)
		}
	}
}

// TestHealthzBuildInfoAndTrace: the health body reports build info and,
// with tracing on, collector occupancy.
func TestHealthzBuildInfoAndTrace(t *testing.T) {
	c := trace.NewCollector(8, 0, time.Hour)
	_, ts := newTestServer(t, Config{Tracing: c})
	if status, _ := postFix(t, ts.URL, map[string]any{"source": brokenSource}); status != http.StatusOK {
		t.Fatal("fix failed")
	}
	resp, raw := get(t, ts.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	var body map[string]any
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	build, ok := body["build"].(map[string]any)
	if !ok || build["go"] == "" || build["module"] != "repro" {
		t.Fatalf("bad build info: %v", body["build"])
	}
	tr, ok := body["trace"].(map[string]any)
	if !ok {
		t.Fatalf("healthz missing trace occupancy: %v", body)
	}
	if tr["collected"].(float64) < 1 || tr["ring"].(float64) < 1 {
		t.Fatalf("occupancy not reflecting the fix trace: %v", tr)
	}
}

// TestStatsReportsPerCacheLayers checks the /v1/stats cache breakdown:
// the aggregate equals the sum of the per-layer counters.
func TestStatsReportsPerCacheLayers(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if status, _ := postFix(t, ts.URL, map[string]any{"source": brokenSource}); status != http.StatusOK {
		t.Fatalf("fix status = %d", status)
	}
	snap := s.Stats()
	if snap.Cache.Compile.Hits+snap.Cache.Compile.Misses == 0 {
		t.Fatal("serving a fix must go through the compile cache")
	}
	sum := snap.Cache.Compile.Hits + snap.Cache.Sim.Hits + snap.Cache.Retrieval.Hits
	if snap.Cache.Hits != sum {
		t.Fatalf("aggregate hits %d != per-layer sum %d", snap.Cache.Hits, sum)
	}
}

// TestStatsCarriesStagesAndSimCheck: /v1/stats grows the stage
// breakdown and sim-check counters the loadgen table consumes.
func TestStatsCarriesStagesAndSimCheck(t *testing.T) {
	c := trace.NewCollector(0, 0, 0)
	s, ts := newTestServer(t, Config{Tracing: c})
	if status, _ := postFix(t, ts.URL, map[string]any{"source": brokenSource}); status != http.StatusOK {
		t.Fatal("fix failed")
	}
	snap := s.Stats()
	if snap.SimCheck.Checked != 1 {
		t.Fatalf("sim checks = %+v, want 1 checked", snap.SimCheck)
	}
	if snap.SimCheck.Passed+snap.SimCheck.Failed+snap.SimCheck.Skipped != 1 {
		t.Fatalf("sim check outcome unaccounted: %+v", snap.SimCheck)
	}
	if snap.Trace == nil || snap.Trace.Collected == 0 {
		t.Fatalf("stats missing trace occupancy: %+v", snap.Trace)
	}
	for _, stage := range []string{"fix", "queue", "agent", "compile"} {
		if snap.Stages[stage].Count == 0 {
			t.Fatalf("stage %q absent from stats: %v", stage, snap.Stages)
		}
	}
	// And it round-trips through the wire form loadgen reads.
	var wire struct {
		Stages map[string]metrics.HistogramSnapshot `json:"stages"`
	}
	_, raw := get(t, ts.URL+"/v1/stats")
	if err := json.Unmarshal(raw, &wire); err != nil {
		t.Fatal(err)
	}
	if wire.Stages["compile"].Count == 0 {
		t.Fatalf("wire stages missing compile: %v", wire.Stages)
	}
	if table := trace.RenderStageTable(wire.Stages); !strings.Contains(table, "compile") {
		t.Fatalf("stage table missing compile:\n%s", table)
	}
}

// TestUnsimulableDesign: a design the compiled engine rejects (a
// non-constant replication count) is not simulable on any path: sim.New
// returns the typed compile error, dataset.Check returns an error, and
// the daemon's smoke check records not_simulable and one skip.
func TestUnsimulableDesign(t *testing.T) {
	const src = `module top_module(input [3:0] n, output [7:0] y);
	assign y = {n{1'b1}};
endmodule
`
	_, design, diags := compiler.Frontend(src)
	if design == nil {
		t.Fatalf("elaborate: %s", diags.Summary())
	}
	var ce *sim.CompileError
	if _, err := sim.New(design); !errors.As(err, &ce) {
		t.Fatalf("sim.New err = %v, want *sim.CompileError", err)
	}
	p := dataset.Problems(dataset.SuiteHuman)[0]
	if _, err := p.Check(src, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("dataset.Check must reject an unsimulable candidate")
	}

	c := trace.NewCollector(0, 0, 0)
	s, ts := newTestServer(t, Config{Tracing: c})
	if status, body := postFix(t, ts.URL, map[string]any{"source": src}); status != http.StatusOK || body["success"] != true {
		t.Fatalf("fix of a clean source failed: %d %v", status, body)
	}
	if sc := s.Stats().SimCheck; sc.Checked != 1 || sc.Skipped != 1 {
		t.Fatalf("sim_check = %+v, want 1 checked, 1 skipped", sc)
	}
	var results []any
	var walk func(sp trace.SpanJSON)
	walk = func(sp trace.SpanJSON) {
		if sp.Name == "sim" {
			results = append(results, sp.Attrs["result"])
		}
		for _, ch := range sp.Children {
			walk(ch)
		}
	}
	for _, sum := range c.Summaries(0) {
		if tr, ok := c.Get(sum.ID); ok {
			walk(tr.JSON().Root)
		}
	}
	if len(results) != 1 || results[0] != "not_simulable" {
		t.Fatalf("sim span results = %v, want [not_simulable]", results)
	}
}

// TestSimCheckDisabled: the flag removes the check entirely.
func TestSimCheckDisabled(t *testing.T) {
	s, ts := newTestServer(t, Config{DisableSimCheck: true})
	if status, _ := postFix(t, ts.URL, map[string]any{"source": brokenSource}); status != http.StatusOK {
		t.Fatal("fix failed")
	}
	if snap := s.Stats(); snap.SimCheck.Checked != 0 {
		t.Fatalf("disabled sim check ran: %+v", snap.SimCheck)
	}
}

// TestStatsSimObservability: with the sim check and observation on
// (both defaults), a successful fix leaves nonzero toggle coverage in
// the /v1/stats "sim" section and the rtlfixer_sim_* families on
// /metrics — the serving half of the wave-layer acceptance gate.
func TestStatsSimObservability(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if status, _ := postFix(t, ts.URL, map[string]any{"source": brokenSource}); status != http.StatusOK {
		t.Fatal("fix failed")
	}
	snap := s.Stats()
	if snap.Sim == nil {
		t.Fatal("stats missing sim observability section")
	}
	if snap.Sim.Runs == 0 || snap.Sim.Samples == 0 {
		t.Fatalf("sim check ran unobserved: %+v", snap.Sim)
	}
	// The smoke check pulses the clock, so at minimum clk rose and fell
	// and the sequential process fired.
	if snap.Sim.Toggles == 0 || snap.Sim.LastCoveredPoints == 0 || snap.Sim.LastFraction <= 0 {
		t.Fatalf("zero toggle coverage from a clocked smoke check: %+v", snap.Sim)
	}
	if snap.Sim.LastProcsActive == 0 {
		t.Fatalf("no process activations recorded: %+v", snap.Sim)
	}
	// The fixed design compiles, so the engine profile must be live too.
	if snap.Sim.Instructions == 0 || snap.Sim.Settles == 0 || len(snap.Sim.TopOps) == 0 {
		t.Fatalf("compiled-engine profile empty: %+v", snap.Sim)
	}

	// Wire form: the "sim" key is present with the same numbers.
	var wire struct {
		Sim *SimObsSnapshot `json:"sim"`
	}
	_, raw := get(t, ts.URL+"/v1/stats")
	if err := json.Unmarshal(raw, &wire); err != nil {
		t.Fatal(err)
	}
	if wire.Sim == nil || wire.Sim.Runs != snap.Sim.Runs {
		t.Fatalf("wire sim section = %+v, want runs %d", wire.Sim, snap.Sim.Runs)
	}

	_, raw = get(t, ts.URL+"/metrics")
	text := string(raw)
	for _, want := range []string{
		"# TYPE rtlfixer_sim_toggle_coverage gauge",
		"rtlfixer_sim_observed_runs_total 1",
		"rtlfixer_sim_toggles_total",
		"rtlfixer_sim_instructions_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
	// The gauge must be a parseable nonzero fraction.
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "rtlfixer_sim_toggle_coverage ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, "rtlfixer_sim_toggle_coverage "), 64)
		if err != nil || v <= 0 || v > 1 {
			t.Fatalf("bad coverage gauge %q: %v", line, err)
		}
		return
	}
	t.Fatal("rtlfixer_sim_toggle_coverage sample line absent")
}

// TestSimObserveDisabled: DisableSimObserve keeps the smoke check but
// drops the observability plane — stats omit "sim" entirely.
func TestSimObserveDisabled(t *testing.T) {
	s, ts := newTestServer(t, Config{DisableSimObserve: true})
	if status, _ := postFix(t, ts.URL, map[string]any{"source": brokenSource}); status != http.StatusOK {
		t.Fatal("fix failed")
	}
	snap := s.Stats()
	if snap.SimCheck.Checked != 1 {
		t.Fatalf("sim check should still run: %+v", snap.SimCheck)
	}
	if snap.Sim != nil {
		t.Fatalf("disabled observation still reported: %+v", snap.Sim)
	}
	var wire map[string]json.RawMessage
	_, raw := get(t, ts.URL+"/v1/stats")
	if err := json.Unmarshal(raw, &wire); err != nil {
		t.Fatal(err)
	}
	if _, ok := wire["sim"]; ok {
		t.Fatalf("stats JSON carries top-level sim section when disabled:\n%s", raw)
	}
}

// TestStagesJSONPipelineOrder: the /v1/stats "stages" object must
// marshal its keys in pipeline order (trace.StageNames), not Go's
// alphabetical map order, so the JSON reads like the attribution table.
func TestStagesJSONPipelineOrder(t *testing.T) {
	c := trace.NewCollector(0, 0, 0)
	_, ts := newTestServer(t, Config{Tracing: c})
	if status, _ := postFix(t, ts.URL, map[string]any{"source": brokenSource}); status != http.StatusOK {
		t.Fatal("fix failed")
	}
	var wire struct {
		Stages json.RawMessage `json:"stages"`
	}
	_, raw := get(t, ts.URL+"/v1/stats")
	if err := json.Unmarshal(raw, &wire); err != nil {
		t.Fatal(err)
	}
	var stages map[string]metrics.HistogramSnapshot
	if err := json.Unmarshal(wire.Stages, &stages); err != nil {
		t.Fatal(err)
	}
	want := trace.StageNames(stages)
	if len(want) < 5 {
		t.Fatalf("too few stages to check ordering: %v", want)
	}
	// Histogram snapshot values never contain stage-name keys, so the
	// first occurrence of each `"name":` marks its position.
	text := string(wire.Stages)
	last := -1
	for _, name := range want {
		idx := strings.Index(text, `"`+name+`":`)
		if idx < 0 {
			t.Fatalf("stage %q absent from stages JSON", name)
		}
		if idx <= last {
			t.Fatalf("stages JSON out of pipeline order at %q; want %v in:\n%s", name, want, text)
		}
		last = idx
	}
}

// TestConcurrentMetricsScrapes races /metrics and /v1/stats scrapes
// against live fix traffic — under -race this is the data-race gate for
// the whole monitoring plane, including the new sim family.
func TestConcurrentMetricsScrapes(t *testing.T) {
	_, ts := newTestServer(t, Config{Tracing: trace.NewCollector(0, 0, 0)})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			src := brokenSource
			if n%2 == 0 {
				src = cleanSource
			}
			for j := 0; j < 3; j++ {
				postFix(t, ts.URL, map[string]any{"source": src})
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				resp, _ := get(t, ts.URL+"/metrics")
				if resp.StatusCode != http.StatusOK {
					t.Errorf("metrics status = %d", resp.StatusCode)
				}
				resp, _ = get(t, ts.URL+"/v1/stats")
				if resp.StatusCode != http.StatusOK {
					t.Errorf("stats status = %d", resp.StatusCode)
				}
			}
		}()
	}
	wg.Wait()
	// After the dust settles the sim family reflects the observed runs.
	_, raw := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(raw), "rtlfixer_sim_observed_runs_total") {
		t.Fatal("sim family absent after concurrent traffic")
	}
}
