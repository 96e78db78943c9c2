// Command perfbench is the repository benchmark. It runs one workload —
// city-query, city-mobility or live-replay — checks the program's outputs,
// and prints one JSON result line last on standard output:
//
//	go run . --workload city-query --seed 1 --seconds 10 --trace 0
//
// A timed run (--trace 0) sets the workload up several times, measures it
// for --seconds, and reports the end-to-end metrics. A traced run
// (--trace 1) is a separate run that brackets every call it makes into the
// program with a span, reads the counters the program exports, takes a CPU
// profile, and reports the per-layer metrics. README.md records the
// workloads, the metric map and the baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// loadThreads caps the threads a city workload runs on, so the load from
// one process is the same on every host.
const loadThreads = 2

// setupRepeats is how many times a timed run sets its workload up; setup_s
// is the median.
const setupRepeats = 3

// options are the run parameters shared by every workload.
type options struct {
	seed    int64
	seconds time.Duration
	smoke   bool
	out     string // directory for a traced run's span journal and CPU profile
	name    string // workload name
}

// spansPath and profilePath name a traced run's span journal and CPU
// profile.
func (o options) spansPath() string   { return filepath.Join(o.out, "spans-"+o.name+".jsonl") }
func (o options) profilePath() string { return filepath.Join(o.out, "cpu-"+o.name+".pprof") }

// workload is one benchmark input: a timed run giving the end-to-end
// metrics, a traced run giving the per-layer metrics, and the GOMAXPROCS
// both run with.
type workload struct {
	timed  func(options) (*report, error)
	traced func(options) (*report, error)
	procs  int
}

var workloads = map[string]workload{
	"city-query":    {timed: cityQuery.timed, traced: cityQuery.traced, procs: loadThreads},
	"city-mobility": {timed: cityMobility.timed, traced: cityMobility.traced, procs: loadThreads},
	"live-replay":   {timed: liveTimed, traced: liveTraced, procs: liveProcs},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs one workload and writes its report; it returns the
// process exit code: 0 only when the run completed and every output check
// passed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: city-query, city-mobility or live-replay")
	seed := fs.Int64("seed", 1, "input seed; 1 reproduces the sizes in README.md")
	seconds := fs.Int("seconds", 10, "measured wall time of a timed run, in seconds")
	traced := fs.Int("trace", 0, "0 = timed run (end-to-end metrics), 1 = traced run (per-layer metrics)")
	size := fs.String("size", "full", "input size: full, or smoke for the benchmark's own tests")
	out := fs.String("out", ".bench_build", "directory for a traced run's span journal and CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) || (*size != "full" && *size != "smoke") {
		fmt.Fprintf(stderr, "perfbench: bad arguments: workload %q, seconds %d, trace %d, size %q\n", *name, *seconds, *traced, *size)
		return 2
	}
	o := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, smoke: *size == "smoke", out: *out, name: *name}
	runtime.GOMAXPROCS(w.procs)
	fn := w.timed
	if *traced == 1 {
		fn = w.traced
	}
	r, err := fn(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if err := r.write(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: writing report: %v\n", err)
		return 1
	}
	if !r.correct() {
		for _, p := range r.problems {
			fmt.Fprintf(stderr, "perfbench: %s: output check failed: %s\n", *name, p)
		}
		return 1
	}
	return 0
}

// entry is one reported metric with the number of samples behind it. A
// metric the workload does not exercise reads 0 and carries the reason.
type entry struct {
	name    string
	value   float64
	unit    string
	samples int
	reason  string
}

// report collects a run's metrics, its operation counts and any failed
// output check.
type report struct {
	entries   []entry
	extra     []entry // printed for reading, left out of the JSON line
	attempted int64
	failed    int64
	problems  []string
}

func (r *report) add(name string, value float64, unit string, samples int) {
	r.entries = append(r.entries, entry{name: name, value: value, unit: unit, samples: samples})
}

// skip reports a metric of a layer this workload does not exercise.
func (r *report) skip(name, unit, reason string) {
	r.entries = append(r.entries, entry{name: name, unit: unit, reason: reason})
}

// note reports a figure on the text lines only.
func (r *report) note(name string, value float64, unit string, samples int) {
	r.extra = append(r.extra, entry{name: name, value: value, unit: unit, samples: samples})
}

// check records a failed output check unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) correct() bool { return len(r.problems) == 0 }

// jsonMetric is one metric of the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints one text line per metric — value, unit, sample count, and
// the reason for a metric that reads 0 — then the JSON result line.
func (r *report) write(w io.Writer) error {
	if r.attempted < 1 {
		r.check(false, "no operation attempted")
		r.attempted = 1
	}
	all := append(append([]entry(nil), r.entries...), r.extra...)
	for i, e := range all {
		if math.IsNaN(e.value) || math.IsInf(e.value, 0) {
			r.check(false, "metric %s is %v", e.name, e.value)
			all[i].value = 0
		}
	}
	metrics := make(map[string]jsonMetric, len(r.entries))
	for i, e := range all {
		line := fmt.Sprintf("%-30s %16.6g %-6s n=%d", e.name, e.value, e.unit, e.samples)
		if e.reason != "" {
			line += "  (not measured: " + e.reason + ")"
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
		if i < len(r.entries) {
			metrics[e.name] = jsonMetric{Value: e.value, Unit: e.unit}
		}
	}
	for _, p := range r.problems {
		if _, err := fmt.Fprintln(w, "check failed:", p); err != nil {
			return err
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of ds in microseconds; 0
// for none.
func percentile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i]) / float64(time.Microsecond)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB returns the process's peak resident set size in MB (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
