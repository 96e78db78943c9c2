package edgesim

import (
	"context"
	"runtime"
	"sync"
)

// SweepRun pairs a prepared environment with one city-run configuration —
// one cell of an experiment sweep (dataset × model × mode × radius).
type SweepRun struct {
	Env *Env
	Cfg CityConfig
}

// SweepOutcome is the result of one sweep cell, stored at the same index
// as its SweepRun. Exactly one of Result and Err is non-nil.
type SweepOutcome struct {
	Run    SweepRun
	Result *CityResult
	Err    error
}

// SweepConfigs builds sweep runs for several configurations against one
// environment, preserving order.
func SweepConfigs(env *Env, cfgs ...CityConfig) []SweepRun {
	runs := make([]SweepRun, 0, len(cfgs))
	for _, cfg := range cfgs {
		runs = append(runs, SweepRun{Env: env, Cfg: cfg})
	}
	return runs
}

// RunSweep executes the given simulation runs concurrently on a bounded
// worker pool and returns their outcomes in input order. workers <= 0 uses
// GOMAXPROCS. Each run is the same deterministic RunCity call it would be
// sequentially — environments are read-only, every run owns its servers and
// planner state, and the shared plan cache returns identical immutable
// entries to every run — so RunSweep(runs, w) produces byte-identical
// results for every w, including w = 1.
//
// One run's failure does not stop the others; callers inspect per-outcome
// errors (or use SweepErr for the first one).
func RunSweep(runs []SweepRun, workers int) []SweepOutcome {
	return RunSweepContext(context.Background(), runs, workers)
}

// RunSweepContext is RunSweep under a context: runs already in flight when
// the context is canceled abort at their next movement tick, runs not yet
// started fail immediately, and every outcome whose run was cut short
// carries the context error.
func RunSweepContext(ctx context.Context, runs []SweepRun, workers int) []SweepOutcome {
	return runPool(runs, workers, func(run SweepRun) SweepOutcome {
		if err := ctx.Err(); err != nil {
			return SweepOutcome{Run: run, Err: err}
		}
		res, err := RunCityContext(ctx, run.Env, run.Cfg)
		return SweepOutcome{Run: run, Result: res, Err: err}
	})
}

// runPool applies fn to every input on a pool of at most workers
// goroutines (workers <= 0 uses GOMAXPROCS) and returns the results in
// input order.
func runPool[In, Out any](in []In, workers int, fn func(In) Out) []Out {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(in) {
		workers = len(in)
	}
	out := make([]Out, len(in))
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(in) {
					return
				}
				out[i] = fn(in[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// SweepErr returns the first error among the outcomes, or nil.
func SweepErr(outs []SweepOutcome) error {
	for _, o := range outs {
		if o.Err != nil {
			return o.Err
		}
	}
	return nil
}
