package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"time"

	"perdnn/internal/core"
	"perdnn/internal/dnn"
	"perdnn/internal/edgesim"
	"perdnn/internal/estimator"
	"perdnn/internal/geo"
	"perdnn/internal/gpusim"
	"perdnn/internal/mobility"
	"perdnn/internal/profile"
	"perdnn/internal/trace"
)

// citySpec is one city-simulation workload: a generated mobility dataset
// played back through edgesim.RunCityContext under one configuration.
type citySpec struct {
	name   string
	trace  func() trace.Config
	model  dnn.ModelName
	gap    time.Duration // pause between a client's queries
	shards int
}

// cityQuery is the Fig 9 configuration: nearly all events are query-chain
// events, so the engine and query path do the work.
var cityQuery = citySpec{
	name: "city-query", trace: trace.KAISTConfig, model: dnn.ModelResNet,
	gap: 500 * time.Millisecond,
}

// cityMobility uses the same engine the other way: a 10x larger server set,
// fast movers, and a 5 s query gap make handoffs, predictions, migration
// plans and layer-store writes in the serial tick phase dominate, and two
// region shards run the barrier protocol.
var cityMobility = citySpec{
	name: "city-mobility", trace: trace.GeolifeConfig, model: dnn.ModelMobileNet,
	gap: 5 * time.Second, shards: 2,
}

// smokeSteps caps playback at the smoke size.
const smokeSteps = 40

// profileTime is the least time the traced run profiles the simulation.
func (o options) profileTime() time.Duration {
	if o.smoke {
		return 200 * time.Millisecond
	}
	return 4 * time.Second
}

// traceConfig returns the dataset generator configuration for a seed; seed
// 1 is the generator's default.
func (s citySpec) traceConfig(o options) trace.Config {
	cfg := s.trace()
	cfg.Seed += o.seed - 1
	if o.smoke {
		cfg.TrainUsers, cfg.TestUsers = 20, 6
		cfg.Duration = time.Duration(smokeSteps) * 20 * time.Second
	}
	return cfg
}

func (s citySpec) envConfig(o options) edgesim.EnvConfig {
	cfg := edgesim.DefaultEnvConfig()
	cfg.Seed = o.seed
	return cfg
}

func (s citySpec) cityConfig(o options) edgesim.CityConfig {
	cfg := edgesim.DefaultCityConfig(s.model, edgesim.ModePerDNN, 100)
	cfg.QueryGap = s.gap
	cfg.Shards = s.shards
	cfg.Seed = o.seed
	return cfg
}

// citySetup is a prepared city workload.
type citySetup struct {
	env  *edgesim.Env
	warm *edgesim.CityResult // the untimed warm-up run
	took time.Duration
}

// setup generates the dataset, prepares the environment, and runs the
// warm-up simulation that fills the process-wide plan cache as a sweep
// would.
func (s citySpec) setup(ctx context.Context, o options) (*citySetup, error) {
	start := time.Now()
	ds, err := trace.Generate(s.traceConfig(o))
	if err != nil {
		return nil, err
	}
	env, err := edgesim.PrepareEnv(ds, s.envConfig(o))
	if err != nil {
		return nil, err
	}
	warm, err := edgesim.RunCityContext(ctx, env, s.cityConfig(o))
	if err != nil {
		return nil, fmt.Errorf("warm-up run: %w", err)
	}
	return &citySetup{env: env, warm: warm, took: time.Since(start)}, nil
}

// simStats are the simulated statistics of a run: a pure function of the
// configuration, so they must repeat exactly.
type simStats struct {
	Queries, WindowQueries, Connections int
	Hits, Misses, Partials              int
	MigrationBytes                      int64
	P50, P99                            time.Duration
}

func statsOf(r *edgesim.CityResult) simStats {
	return simStats{
		Queries: r.TotalQueries, WindowQueries: r.WindowQueries, Connections: r.Connections,
		Hits: r.Hits, Misses: r.Misses, Partials: r.Partials,
		MigrationBytes: r.Metrics.Counters["migration_bytes_total"],
		P50:            r.P50(), P99: r.P99(),
	}
}

// stepClock is the context a timed run hands to RunCityContext. The
// simulator polls the context once per movement tick, so the gaps between
// polls are the host time of each simulated step: the next interval's
// queries plus the tick's movement, handoffs and migrations.
type stepClock struct {
	context.Context
	mu    sync.Mutex
	polls []time.Time
}

func newStepClock() *stepClock { return &stepClock{Context: context.Background()} }

func (c *stepClock) Err() error {
	now := time.Now()
	c.mu.Lock()
	c.polls = append(c.polls, now)
	c.mu.Unlock()
	return nil
}

// wantPolls is how many times a run over env with cfg polls its context:
// once after each simulated step and once after the last window, so a
// change in how the simulator polls fails the run instead of silently
// cutting the steps finer or coarser.
func wantPolls(env *edgesim.Env, cfg edgesim.CityConfig) int {
	steps := 0
	for _, tr := range env.Dataset.Test {
		steps = max(steps, tr.Len())
	}
	if cfg.MaxSteps > 0 {
		steps = min(steps, cfg.MaxSteps)
	}
	return steps + 1
}

// polled returns how many times the context was polled.
func (c *stepClock) polled() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.polls)
}

// steps returns the gaps between consecutive polls.
func (c *stepClock) steps() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]time.Duration, 0, len(c.polls))
	for i := 1; i < len(c.polls); i++ {
		out = append(out, c.polls[i].Sub(c.polls[i-1]))
	}
	return out
}

// timed sets the workload up setupRepeats times, then runs the simulation
// back to back for the measured time.
func (s citySpec) timed(o options) (*report, error) {
	ctx := context.Background()
	r := &report{}
	var su *citySetup
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		su = nil
		runtime.GC()
		var err error
		if su, err = s.setup(ctx, o); err != nil {
			return nil, err
		}
		setups = append(setups, su.took.Seconds())
	}
	want := statsOf(su.warm)
	cfg := s.cityConfig(o)
	polls := wantPolls(su.env, cfg)
	var qps []float64
	var steps []time.Duration
	for deadline := time.Now().Add(o.seconds); r.attempted == 0 || time.Now().Before(deadline); {
		// Every repetition starts from a collected heap, so the collector's
		// phase does not carry over between them.
		runtime.GC()
		clock := newStepClock()
		start := time.Now()
		res, err := edgesim.RunCityContext(clock, su.env, cfg)
		took := time.Since(start)
		r.attempted++
		if err != nil {
			r.failed++
			r.check(false, "RunCityContext: %v", err)
			continue
		}
		qps = append(qps, float64(res.TotalQueries)/took.Seconds())
		steps = append(steps, clock.steps()...)
		got := statsOf(res)
		r.check(got == want, "repetition %d simulated %+v, warm-up simulated %+v", r.attempted, got, want)
		r.check(clock.polled() == polls, "repetition %d polled its context %d times, want %d (one a step and one at the end)", r.attempted, clock.polled(), polls)
	}
	r.check(len(steps) > 0, "no simulated step was timed")
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	r.add("qps", median(qps), "1/s", len(qps))
	r.add("step_p50_us", percentile(steps, 0.50), "us", len(steps))
	r.add("step_p99_us", percentile(steps, 0.99), "us", len(steps))
	r.add("peak_rss_mb", rss, "MB", 1)
	r.add("setup_s", median(setups), "s", len(setups))
	r.note("sim_qps", median(qps), "queries/host-s", len(qps))
	return r, nil
}

// traced is the per-layer run: separately timed set-up phases, one plain
// and one span-bracketed simulation, a CPU profile, the shard invariant,
// the cost of the simulator's own span journal, and single-call timings of
// each layer on this workload's inputs.
func (s citySpec) traced(o options) (*report, error) {
	ctx := context.Background()
	r := &report{}
	rec := newRecorder()
	envCfg := s.envConfig(o)
	cfg := s.cityConfig(o)

	// Set-up phases. PrepareEnv trains the predictor and the estimator
	// concurrently, so each is also trained alone here to time it.
	t0 := time.Now()
	ds, err := trace.Generate(s.traceConfig(o))
	if err != nil {
		return nil, err
	}
	r.add("trace.generate_s", rec.since(0, 0, "trace.Generate", t0).Seconds(), "s", 1)
	t0 = time.Now()
	env, err := edgesim.PrepareEnv(ds, envCfg)
	if err != nil {
		return nil, err
	}
	rec.since(0, 0, "edgesim.PrepareEnv", t0)
	svr := &mobility.SVR{Seed: envCfg.Seed}
	train := capTrain(env.Dataset.Train, envCfg.MaxTrainWindows)
	t0 = time.Now()
	if err := svr.Fit(train, env.Placement, envCfg.HistoryLen); err != nil {
		return nil, err
	}
	r.add("mobility.fit_s", rec.since(0, 0, "mobility.SVR.Fit", t0).Seconds(), "s", 1)
	t0 = time.Now()
	if _, err := estimator.TrainServerEstimator(profile.ServerTitanXp(), gpusim.DefaultParams(), envCfg.Seed); err != nil {
		return nil, err
	}
	r.add("estimator.train_s", rec.since(0, 0, "estimator.TrainServerEstimator", t0).Seconds(), "s", 1)
	warm, err := edgesim.RunCityContext(ctx, env, cfg)
	if err != nil {
		return nil, fmt.Errorf("warm-up run: %w", err)
	}
	want := statsOf(warm)
	r.attempted++

	// One plain run: allocation, GC and plan-cache deltas around it.
	var m0, m1 runtime.MemStats
	plans0 := core.SharedPlans().Stats()
	runtime.ReadMemStats(&m0)
	t0 = time.Now()
	res, err := edgesim.RunCityContext(ctx, env, cfg)
	plainTook := time.Since(t0)
	runtime.ReadMemStats(&m1)
	plans1 := core.SharedPlans().Stats()
	r.attempted++
	if err != nil {
		return nil, err
	}
	r.check(statsOf(res) == want, "plain run simulated %+v, warm-up %+v", statsOf(res), want)
	q := float64(res.TotalQueries)
	r.add("edgesim.queries", q, "count", 1)
	r.add("edgesim.window_queries", float64(res.WindowQueries), "count", 1)
	r.add("edgesim.hit_ratio", res.HitRatio(), "ratio", res.Hits+res.Misses)
	r.add("edgesim.sim_p99_ms", float64(res.P99())/float64(time.Millisecond), "ms", res.TotalQueries)
	r.add("edgesim.migration_bytes", float64(res.Metrics.Counters["migration_bytes_total"]), "B", 1)
	r.add("edgesim.allocs_per_query", ratio(float64(m1.Mallocs-m0.Mallocs), q), "count", res.TotalQueries)
	r.add("edgesim.alloc_bytes_per_query", ratio(float64(m1.TotalAlloc-m0.TotalAlloc), q), "B", res.TotalQueries)
	r.add("edgesim.gc_cycles", float64(m1.NumGC-m0.NumGC), "count", 1)
	requests := plans1.Requests() - plans0.Requests()
	r.add("core.plan_requests", float64(requests), "count", 1)
	r.add("core.plan_cache_hit_ratio", ratio(float64(plans1.Hits-plans0.Hits), float64(requests)), "ratio", int(requests))

	// One span-bracketed run: a span per RunCity call, per simulated step
	// and per mobility prediction, all in one trace.
	tracedTook, err := s.spanRun(ctx, rec, env, cfg, want, r)
	if err != nil {
		return nil, err
	}
	r.add("bench.span_overhead_ratio", ratio(float64(tracedTook), float64(plainTook)), "ratio", 1)

	shares, samples, err := cpuShares(o.profilePath(), func() error {
		for start := time.Now(); time.Since(start) < o.profileTime(); {
			res, err := edgesim.RunCityContext(ctx, env, cfg)
			r.attempted++
			if err != nil {
				return err
			}
			r.check(statsOf(res) == want, "profiled run simulated %+v, warm-up %+v", statsOf(res), want)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	addShares(r, shares, samples)

	if err := s.shardCheck(ctx, rec, env, cfg, r); err != nil {
		return nil, err
	}
	if err := s.spanJournalCost(ctx, env, cfg, r); err != nil {
		return nil, err
	}

	m, err := dnn.ZooModel(s.model)
	if err != nil {
		return nil, err
	}
	layerTimings(rec, r, layerInputs{
		model: m, est: env.Estimator, pl: env.Placement, pred: env.Predictor,
		trajs: env.Dataset.Test, historyLen: envCfg.HistoryLen, seed: o.seed,
	})
	skipLive(r, "city workloads do not run the live daemons")
	return r, rec.finish(r, o.spansPath())
}

// spanRun runs the simulation once with the benchmark's spans on: the
// RunCity call, each simulated step (through the polled context), and
// each mobility prediction (through a wrapped predictor on a copy of the
// environment). It returns the host time of the run.
func (s citySpec) spanRun(ctx context.Context, rec *recorder, env *edgesim.Env, cfg edgesim.CityConfig, want simStats, r *report) (time.Duration, error) {
	traceID := rec.id()
	root := rec.id()
	clock := &spanClock{Context: ctx, rec: rec, trace: traceID, root: root}
	variant := *env
	variant.Predictor = &spanPredictor{Predictor: env.Predictor, clock: clock}
	clock.last = time.Now()
	clock.step = rec.id()
	start := clock.last
	res, err := edgesim.RunCityContext(clock, &variant, cfg)
	end := time.Now()
	rec.add(traceID, root, 0, "edgesim.RunCityContext", start, end)
	r.attempted++
	if err != nil {
		return 0, err
	}
	r.check(statsOf(res) == want, "span-bracketed run simulated %+v, warm-up %+v", statsOf(res), want)
	return end.Sub(start), nil
}

// spanClock closes one step span and opens the next at every poll.
type spanClock struct {
	context.Context
	rec         *recorder
	trace, root uint64
	mu          sync.Mutex
	step        uint64
	last        time.Time
}

func (c *spanClock) Err() error {
	now := time.Now()
	c.mu.Lock()
	c.rec.add(c.trace, c.step, c.root, "edgesim.step", c.last, now)
	c.step, c.last = c.rec.id(), now
	c.mu.Unlock()
	return nil
}

// spanPredictor brackets every prediction with a span under the current
// step.
type spanPredictor struct {
	mobility.Predictor
	clock *spanClock
}

func (p *spanPredictor) PredictPoint(recent []geo.Point) (geo.Point, bool) {
	start := time.Now()
	pt, ok := p.Predictor.PredictPoint(recent)
	end := time.Now()
	p.clock.mu.Lock()
	step := p.clock.step
	p.clock.mu.Unlock()
	p.clock.rec.add(p.clock.trace, 0, step, "mobility.PredictPoint", start, end)
	return pt, ok
}

func (p *spanPredictor) Rank(recent []geo.Point, k int) []geo.ServerID {
	start := time.Now()
	ids := p.Predictor.Rank(recent, k)
	end := time.Now()
	p.clock.mu.Lock()
	step := p.clock.step
	p.clock.mu.Unlock()
	p.clock.rec.add(p.clock.trace, 0, step, "mobility.Rank", start, end)
	return ids
}

// shardCheck runs the configuration at one and at two region shards: the
// results must be equal field by field (DESIGN.md §16), and the host-time
// ratio is the sharding speed-up.
func (s citySpec) shardCheck(ctx context.Context, rec *recorder, env *edgesim.Env, cfg edgesim.CityConfig, r *report) error {
	var res [2]*edgesim.CityResult
	var took [2]time.Duration
	for i, n := range []int{1, 2} {
		t0 := time.Now()
		out, err := edgesim.RunCitySharded(ctx, env, cfg, n)
		took[i] = rec.since(rec.id(), 0, fmt.Sprintf("edgesim.RunCitySharded/%d", n), t0)
		r.attempted++
		if err != nil {
			return err
		}
		res[i] = out
	}
	r.check(reflect.DeepEqual(res[0], res[1]), "1-shard result %+v differs from 2-shard result %+v", statsOf(res[0]), statsOf(res[1]))
	r.add("edgesim.shard_speedup", ratio(float64(took[0]), float64(took[1])), "ratio", 1)
	return nil
}

// journalSteps caps playback when the simulator records its own span
// journal, which keeps every span of every query in memory.
const journalSteps = 120

// spanJournalCost compares simulated queries per host second with
// CityConfig.RecordSpans off and on, over the first journalSteps steps.
func (s citySpec) spanJournalCost(ctx context.Context, env *edgesim.Env, cfg edgesim.CityConfig, r *report) error {
	cfg.MaxSteps = journalSteps
	var qps [2]float64
	for i, on := range []bool{false, true} {
		cfg.RecordSpans = on
		t0 := time.Now()
		res, err := edgesim.RunCityContext(ctx, env, cfg)
		took := time.Since(t0)
		r.attempted++
		if err != nil {
			return err
		}
		qps[i] = float64(res.TotalQueries) / took.Seconds()
		r.check(res.TotalQueries > 0, "span journal run completed no query")
	}
	r.add("tracing.overhead_ratio", ratio(qps[0], qps[1]), "ratio", 1)
	return nil
}

// capTrain truncates trajectories so the total sample count stays under
// limit, as PrepareEnv does before fitting the predictor.
func capTrain(train []trace.Trajectory, limit int) []trace.Trajectory {
	total := 0
	for _, tr := range train {
		total += tr.Len()
	}
	if limit <= 0 || total <= limit {
		return train
	}
	frac := float64(limit) / float64(total)
	out := make([]trace.Trajectory, 0, len(train))
	for _, tr := range train {
		if keep := int(float64(tr.Len()) * frac); keep >= 8 {
			out = append(out, trace.Trajectory{User: tr.User, Interval: tr.Interval, Points: tr.Points[:keep]})
		}
	}
	if len(out) == 0 {
		return train
	}
	return out
}
