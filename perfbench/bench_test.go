package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// contract is the part of BENCHMARK.json the benchmark must honour.
type contract struct {
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

func loadContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

var textLine = regexp.MustCompile(`^(\S+)\s+(\S+)\s+(\S+)\s+n=(\d+)`)

// runSmoke runs one workload at the smoke size and returns its result and
// the sample count printed for each metric.
func runSmoke(t *testing.T, workload, seed, trace string) (result, map[string]int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", seed, "--seconds", "1", "--trace", trace,
		"--size", "smoke", "--out", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s trace %s seed %s: exit %d\nstdout:\n%s\nstderr:\n%s", workload, trace, seed, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the JSON result: %v", workload, err)
	}
	samples := make(map[string]int)
	for _, line := range lines[:len(lines)-1] {
		if m := textLine.FindStringSubmatch(line); m != nil {
			n, err := strconv.Atoi(m[4])
			if err != nil {
				t.Fatal(err)
			}
			samples[m[1]] = n
		}
	}
	return res, samples
}

// textOnly are the per-workload figures a timed run prints as text lines
// only: the throughput under its workload-specific name, and the live
// per-call latencies the city workloads have no counterpart for.
var textOnly = map[string][]string{
	"city-query":    {"sim_qps"},
	"city-mobility": {"sim_qps"},
	"live-replay":   {"live_qps", "query_p50_us", "query_p99_us", "handoff_p50_us", "handoff_p90_us"},
}

// workloadNames returns every workload the benchmark can run, sorted;
// BENCHMARK.json times a subset of them.
func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestContractWorkloadsExist checks that every workload BENCHMARK.json
// names is one the benchmark runs.
func TestContractWorkloadsExist(t *testing.T) {
	for _, w := range loadContract(t).Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not have", w.Name)
		}
	}
}

// TestWorkloadsEmitContract runs every workload, timed and traced, at the
// smoke size on seeds 1 and 2: the output checks pass, and the result line
// carries exactly the metrics BENCHMARK.json names, each with its unit and
// a printed sample count.
func TestWorkloadsEmitContract(t *testing.T) {
	c := loadContract(t)
	for _, name := range workloadNames() {
		for _, seed := range []string{"1", "2"} {
			for _, trace := range []string{"0", "1"} {
				t.Run(name+"/seed"+seed+"/trace"+trace, func(t *testing.T) {
					checkSmoke(t, c, name, seed, trace)
				})
			}
		}
	}
}

// checkSmoke runs one workload at the smoke size and checks its result
// line against the contract.
func checkSmoke(t *testing.T, c contract, name, seed, trace string) {
	t.Helper()
	res, samples := runSmoke(t, name, seed, trace)
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
	}
	want := c.EndToEnd
	if trace == "1" {
		want = c.PerLayer
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
		if _, ok := samples[m.Name]; !ok {
			t.Errorf("metric %s has no sample count", m.Name)
		}
		if trace == "0" && got.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
		}
	}
	if trace == "0" {
		for _, text := range textOnly[name] {
			if _, ok := samples[text]; !ok {
				t.Errorf("text line %s missing", text)
			}
		}
	}
}

func TestModuleOf(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"sort.insertionSort", "perdnn/internal/edgesim.(*world).tick", "main.main"}, "edgesim"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "perdnn/internal/core.(*Planner).PlanFor"}, "runtime"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"perdnn/internal/obs/tracing.(*Tracer).Record"}, "obs"},
		{[]string{"syscall.Syscall6", "main.run"}, "other"},
	} {
		if got := moduleOf(c.frames); got != c.want {
			t.Errorf("moduleOf(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}
