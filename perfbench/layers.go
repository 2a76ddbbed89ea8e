package main

import (
	"sort"
	"strings"
	"time"

	"repro/internal/trace"
)

// perLayer are the single-layer metrics a traced run reports, named by
// module. Each comes from one of three places: spans (the benchmark's
// own around its calls, and the program's trace seams bench.SetTracer
// and server.Config.Tracing), public counters (memo, dataset, server,
// runtime/metrics), or the child's CPU profile attributed by cumulative
// samples under a layer's public entry function. A layer a workload
// never reaches reports 0.
var perLayer = []metricDef{
	{"curate.build_s", "s"},
	{"core.new_s", "s"},
	{"pipeline.jobs", "count"},
	{"pipeline.busy_s", "s"},
	{"pipeline.utilization", "ratio"},
	{"pipeline.outside_s", "s"},
	{"agent.runs", "count"},
	{"agent.iterations_per_run", "count"},
	{"agent.self_s", "s"},
	{"llm.calls", "count"},
	{"llm.busy_s", "s"},
	{"llm.hypotheses_cpu_s", "s"},
	{"llm.repair_cpu_s", "s"},
	{"llm.regexp_compile_cpu_s", "s"},
	{"llm.generate_cpu_s", "s"},
	{"compiler.calls", "count"},
	{"compiler.busy_s", "s"},
	{"verilog.cpu_s", "s"},
	{"sema.cpu_s", "s"},
	{"analyze.cpu_s", "s"},
	{"fixer.cpu_s", "s"},
	{"memo.compile_hit_ratio", "ratio"},
	{"memo.compile_lookups", "count"},
	{"memo.compile_misses", "count"},
	{"memo.retrieval_lookups", "count"},
	{"memo.sim_hit_ratio", "ratio"},
	{"memo.sim_lookups", "count"},
	{"rag.calls", "count"},
	{"rag.busy_s", "s"},
	{"dataset.checks", "count"},
	{"dataset.check_cpu_s", "s"},
	{"dataset.vectors_cpu_s", "s"},
	{"sim.compiles", "count"},
	{"sim.compile_cpu_s", "s"},
	{"sim.testbench_cpu_s", "s"},
	{"server.queue_wait_p50_ms", "ms"},
	{"server.queue_wait_p99_ms", "ms"},
	{"server.coalesced_ratio", "ratio"},
	{"server.mean_batch", "count"},
	{"server.rejected", "count"},
	{"server.sim_checks", "count"},
	{"server.http_ms", "ms"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_s", "s"},
	{"cpu.profile_s", "s"},
	{"cpu.unattributed_s", "s"},
	{"trace.unattributed_s", "s"},
	{"trace.overhead_ratio", "ratio"},
}

// layers holds one traced child's per-layer values.
type layers map[string]float64

func newLayers() layers {
	l := layers{}
	for _, m := range perLayer {
		if m.name != "trace.overhead_ratio" { // the parent computes it
			l[m.name] = 0
		}
	}
	return l
}

// spanFold accumulates finished traces into per-layer span metrics.
// Spans are folded from their rendered JSON after the measured phase,
// so the folding itself costs the timed work nothing.
type spanFold struct {
	count map[string]int
	busy  map[string]float64 // seconds
	// agentSelf is agent span time not covered by its compile, rag and
	// llm descendants; unattributed is root span time not covered by
	// any direct child.
	agentSelf    float64
	unattributed float64
	// jobs are the absolute intervals of pipeline jobs ("job" roots in
	// bench runs, "run" spans in the daemon).
	jobs       [][2]time.Time
	queueMS    []float64
	rootMS     map[string]float64 // request_id → fix/lint root duration
	violations int
}

func newSpanFold() *spanFold {
	return &spanFold{count: map[string]int{}, busy: map[string]float64{}, rootMS: map[string]float64{}}
}

// spanSlackMS absorbs clock rounding when checking that a child span
// lies within its parent.
const spanSlackMS = 0.001

func (f *spanFold) add(t trace.TraceJSON) {
	root := t.Root
	if id, ok := root.Attrs["request_id"].(string); ok {
		f.rootMS[id] = root.DurMS
	}
	f.unattributed += (root.DurMS - coveredMS(root)) / 1e3
	if root.Name == "job" {
		f.addJob(t, root)
	}
	var walk func(s trace.SpanJSON)
	walk = func(s trace.SpanJSON) {
		f.count[s.Name]++
		f.busy[s.Name] += s.DurMS / 1e3
		switch s.Name {
		case "agent":
			f.agentSelf += (s.DurMS - stageMS(s)) / 1e3
		case "queue":
			f.queueMS = append(f.queueMS, s.DurMS)
		}
		if s.Name == "run" {
			f.addJob(t, s)
		}
		for _, c := range s.Children {
			if s.Ended && c.Ended && (c.StartMS < s.StartMS-spanSlackMS || c.StartMS+c.DurMS > s.StartMS+s.DurMS+spanSlackMS) {
				f.violations++
			}
			walk(c)
		}
	}
	walk(root)
}

func (f *spanFold) addJob(t trace.TraceJSON, s trace.SpanJSON) {
	begin := t.Start.Add(time.Duration(s.StartMS * float64(time.Millisecond)))
	f.jobs = append(f.jobs, [2]time.Time{begin, begin.Add(time.Duration(s.DurMS * float64(time.Millisecond)))})
}

// stageMS sums the compile, rag and llm spans under s: the agent's
// stages, which run one after another.
func stageMS(s trace.SpanJSON) float64 {
	total := 0.0
	for _, c := range s.Children {
		switch c.Name {
		case "compile", "rag", "llm":
			total += c.DurMS
		default:
			total += stageMS(c)
		}
	}
	return total
}

// coveredMS is the length of the union of s's direct children's
// intervals (children may overlap: a fix root's wait spans its run).
func coveredMS(s trace.SpanJSON) float64 {
	iv := make([][2]float64, 0, len(s.Children))
	for _, c := range s.Children {
		iv = append(iv, [2]float64{c.StartMS, c.StartMS + c.DurMS})
	}
	return unionLen(iv)
}

func unionLen(iv [][2]float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, end := 0.0, 0.0
	for i, v := range iv {
		if i == 0 || v[0] > end {
			total += v[1] - v[0]
			end = v[1]
		} else if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// into writes the span metrics for a measured phase that began at start
// and lasted wall, on a pool of workers.
func (f *spanFold) into(l layers, start time.Time, wall time.Duration, workers int) {
	l["pipeline.jobs"] = float64(len(f.jobs))
	busy := 0.0
	iv := make([][2]float64, 0, len(f.jobs))
	for _, j := range f.jobs {
		busy += j[1].Sub(j[0]).Seconds()
		iv = append(iv, [2]float64{j[0].Sub(start).Seconds(), j[1].Sub(start).Seconds()})
	}
	l["pipeline.busy_s"] = busy
	l["pipeline.utilization"] = ratio(busy, wall.Seconds()*float64(workers))
	l["pipeline.outside_s"] = wall.Seconds() - unionLen(iv)
	l["agent.runs"] = float64(f.count["agent"])
	l["agent.iterations_per_run"] = ratio(float64(f.count["iteration"]), float64(f.count["agent"]))
	l["agent.self_s"] = f.agentSelf
	l["llm.calls"] = float64(f.count["llm"])
	l["llm.busy_s"] = f.busy["llm"]
	l["compiler.calls"] = float64(f.count["compile"])
	l["compiler.busy_s"] = f.busy["compile"]
	l["rag.calls"] = float64(f.count["rag"])
	l["rag.busy_s"] = f.busy["rag"]
	l["server.queue_wait_p50_ms"] = quantileOr0(f.queueMS, 0.50)
	l["server.queue_wait_p99_ms"] = quantileOr0(f.queueMS, 0.99)
	l["trace.unattributed_s"] = f.unattributed
}

func quantileOr0(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	return quantile(vs, q)
}

// profileLayers maps a per-layer metric to the public entry functions
// whose cumulative CPU samples it counts. A sample counts once per
// metric however many of its frames match.
var profileLayers = []struct {
	metric string
	funcs  []string
}{
	{"llm.hypotheses_cpu_s", []string{"repro/internal/llm.BlindHypotheses"}},
	{"llm.repair_cpu_s", []string{"repro/internal/llm.(*Model).Repair"}},
	{"llm.generate_cpu_s", []string{"repro/internal/llm.Generate"}},
	{"verilog.cpu_s", []string{"repro/internal/verilog.Lex", "repro/internal/verilog.Parse"}},
	{"sema.cpu_s", []string{"repro/internal/sema.Elaborate"}},
	{"analyze.cpu_s", []string{"repro/internal/analyze.Source", "repro/internal/analyze.Run"}},
	{"fixer.cpu_s", []string{"repro/internal/fixer.Fix"}},
	{"dataset.check_cpu_s", []string{"repro/internal/dataset.(*Problem).Check", "repro/internal/dataset.(*Problem).CheckObserved"}},
	{"dataset.vectors_cpu_s", []string{"repro/internal/dataset.(*Problem).Vectors"}},
	{"sim.compile_cpu_s", []string{"repro/internal/sim.Compile"}},
	{"sim.testbench_cpu_s", []string{"repro/internal/sim.RunTestbench", "repro/internal/sim.RunTestbenchSim", "repro/internal/sim.RunTestbenchObserved"}},
}

// attributeProfile decodes the child's CPU profile and fills the
// profile-derived layers, cpu.profile_s and cpu.unattributed_s (samples
// under no layer entry function, such as GC and HTTP plumbing).
func attributeProfile(data []byte, l layers) error {
	samples, err := decodeCPUProfile(data)
	if err != nil {
		return err
	}
	for _, s := range samples {
		sec := float64(s.cpuNS) / 1e9
		l["cpu.profile_s"] += sec
		attributed := false
		for _, pl := range profileLayers {
			if hasAny(s.funcs, pl.funcs) {
				l[pl.metric] += sec
				attributed = true
			}
		}
		// regexp compilation the simulated model triggers
		inLLM, inRegexp := false, false
		for _, fn := range s.funcs {
			inLLM = inLLM || strings.HasPrefix(fn, "repro/internal/llm.")
			inRegexp = inRegexp || fn == "regexp.compile"
		}
		if inLLM && inRegexp {
			l["llm.regexp_compile_cpu_s"] += sec
			attributed = true
		}
		if !attributed {
			l["cpu.unattributed_s"] += sec
		}
	}
	return nil
}

func hasAny(stack, want []string) bool {
	for _, fn := range stack {
		for _, w := range want {
			if fn == w {
				return true
			}
		}
	}
	return false
}
