package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one call the traced run made into the program: its name, its
// interval, the span that caused it, and the trace it belongs to (one per
// RunCity call or per replayed trajectory).
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"span"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) duration() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps the traced run's spans in memory until the run ends. A nil
// recorder records nothing, so the timed and traced runs share one code
// path.
type recorder struct {
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// id allocates a span or trace ID (0 when r is nil).
func (r *recorder) id() uint64 {
	if r == nil {
		return 0
	}
	return r.ids.Add(1)
}

// add records a span that ran from start to end; id may be 0 to allocate
// one. It returns the span's ID.
func (r *recorder) add(trace, id, parent uint64, name string, start, end time.Time) uint64 {
	if r == nil {
		return 0
	}
	if id == 0 {
		id = r.id()
	}
	s := span{Trace: trace, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return id
}

// since records a span from start to now and returns its duration.
func (r *recorder) since(trace, parent uint64, name string, start time.Time) time.Duration {
	end := time.Now()
	r.add(trace, 0, parent, name, start, end)
	return end.Sub(start)
}

// durations returns the durations of every span with the given name.
func (r *recorder) durations(name string) []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.duration())
		}
	}
	return out
}

// nameTimes is the time spent in the spans of one name.
type nameTimes struct {
	count       int
	total, self time.Duration
}

// selfTimes sums, per span name, the total time and the self time: a
// span's duration minus the part its children cover. Children of one span
// never overlap, because the benchmark makes its calls one after another
// on each goroutine.
func (r *recorder) selfTimes() (names []string, times map[string]*nameTimes) {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make(map[uint64]time.Duration)
	for _, s := range r.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.duration()
		}
	}
	times = make(map[string]*nameTimes)
	for _, s := range r.spans {
		t := times[s.Name]
		if t == nil {
			t = &nameTimes{}
			times[s.Name] = t
			names = append(names, s.Name)
		}
		t.count++
		t.total += s.duration()
		t.self += s.duration() - child[s.ID]
	}
	sort.Strings(names)
	return names, times
}

// writeJSONL writes the spans, one JSON object a line, to path.
func (r *recorder) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span journal: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span journal: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	for _, s := range r.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("span journal: %w", err)
	}
	return nil
}

// finish writes the span journal and adds the per-name total and self
// times to the report's text lines.
func (r *recorder) finish(rep *report, path string) error {
	names, times := r.selfTimes()
	for _, n := range names {
		t := times[n]
		rep.note("span."+n+".total_ms", float64(t.total)/float64(time.Millisecond), "ms", t.count)
		rep.note("span."+n+".self_ms", float64(t.self)/float64(time.Millisecond), "ms", t.count)
	}
	return r.writeJSONL(path)
}
