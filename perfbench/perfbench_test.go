package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as its own child process.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// manifest is the part of BENCHMARK.json the test checks.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesCode: BENCHMARK.json declares exactly the
// workloads and metrics (with units) this program emits.
func TestManifestMatchesCode(t *testing.T) {
	m := loadManifest(t)
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("workloads: BENCHMARK.json has %v, code has %v", names, want)
	}
	same := func(kind string, declared []metricDef, listed []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(declared) != len(listed) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code declares %d", kind, len(listed), len(declared))
		}
		units := map[string]string{}
		for _, d := range declared {
			units[d.name] = d.unit
		}
		for _, l := range listed {
			if u, ok := units[l.Name]; !ok || u != l.Unit {
				t.Errorf("%s: %s [%s] in BENCHMARK.json, code has unit %q (declared %v)", kind, l.Name, l.Unit, u, ok)
			}
		}
	}
	same("end_to_end", endToEnd, m.EndToEnd)
	same("per_layer", perLayer, m.PerLayer)
}

// TestWorkloadsTiny runs every workload at a tiny size, untraced and
// traced, and checks that each run passes its output checks and emits
// every metric BENCHMARK.json names, with its unit.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	m := loadManifest(t)
	for _, w := range m.Workloads {
		for _, traced := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+traced, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", w.Name, "--seed", "7", "--seconds", "1", "--trace", traced, "--tiny"}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstderr:\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var rep report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
					t.Fatalf("last line is not the report: %v\n%s", err, stdout.String())
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Errorf("checks: correct=%v attempted=%d failed=%d\nstderr:\n%s", rep.Correct, rep.Attempted, rep.Failed, stderr.String())
				}
				want := m.EndToEnd
				if traced == "1" {
					want = m.PerLayer
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, want %d", len(rep.Metrics), len(want))
				}
				for _, d := range want {
					got, ok := rep.Metrics[d.Name]
					if !ok || got.Unit != d.Unit {
						t.Errorf("metric %s: emitted=%v unit %q, want %q", d.Name, ok, got.Unit, d.Unit)
					}
				}
			})
		}
	}
}

// TestUnionLen pins the interval arithmetic behind pipeline.outside_s
// and trace.unattributed_s: overlapping intervals count once.
func TestUnionLen(t *testing.T) {
	got := unionLen([][2]float64{{5, 7}, {0, 2}, {1, 3}, {6, 6.5}})
	if got != 5 {
		t.Errorf("unionLen = %v, want 5", got)
	}
	if unionLen(nil) != 0 {
		t.Error("empty union is not 0")
	}
}

// TestLatencyQuantileCountsFailures: a failed operation misses every
// latency limit, so enough failures drag the tail to the miss value.
func TestLatencyQuantileCountsFailures(t *testing.T) {
	lat := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if got := latencyQuantile(lat, 0, 0.5); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := latencyQuantile(lat, 1, 0.99); got < 9 {
		t.Errorf("p99 with a failure = %v, want beyond every success", got)
	}
}
