package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"perdnn/internal/dnn"
	"perdnn/internal/edged"
	"perdnn/internal/estimator"
	"perdnn/internal/geo"
	"perdnn/internal/gpusim"
	"perdnn/internal/master"
	"perdnn/internal/mobile"
	"perdnn/internal/mobility"
	"perdnn/internal/obs"
	"perdnn/internal/obs/tracing"
	"perdnn/internal/profile"
	"perdnn/internal/trace"
	"perdnn/internal/wire"
)

const (
	liveModel = dnn.ModelInception
	// liveSteps is how many 20 s steps of each KAIST test trajectory are
	// replayed; smokeLiveSteps at the smoke size.
	liveSteps      = 300
	smokeLiveSteps = 20
	liveInterval   = 20 * time.Second
	// liveQueries per step match the paper's 0.5 s query gap over a 20 s
	// interval.
	liveQueries = 40
	// liveClients closed-loop mobile clients replay trajectories at once,
	// each with zero think time.
	liveClients = 2
	// liveProcs is the GOMAXPROCS of live-replay: the clients and every
	// daemon share one P. With two Ps the goroutines on either end of a
	// loopback round trip wake each other across vCPUs, and on a shared
	// 2-vCPU VM the host's speed drift showed far more strongly: over the
	// same six seeds, run alternately, step_p50_us spread 0.30 with two Ps
	// and 0.07 with one.
	liveProcs = 1
	// journalLiveSteps caps the replay when every daemon and client keeps
	// its own span journal in memory.
	journalLiveSteps = 60
	// roundTrips is how many stats round trips time the bare wire.
	roundTrips = 2000
	// liveTTL is the edge daemons' layer-cache lifetime in wall time. With
	// TimeScale 0 one trajectory replays in well under a second, so its
	// layers live through it, as with the paper's TTL; a replay that takes
	// longer fails the output checks. A trajectory replays again under a
	// client ID whose layers have expired everywhere (see clientIDs), so
	// every replay starts from the same cache state however fast the
	// program runs.
	liveTTL = 2 * time.Second
)

// discardLogger gives a daemon or client the default-level log handler with
// its output dropped: records are still formatted, but terminal I/O stays
// out of the measurement.
func discardLogger(component string) *slog.Logger {
	return obs.NewLogger(io.Discard, slog.LevelInfo, component)
}

// liveInputs are the replayed trajectories and the placement they induce:
// one edge server for each cell they visit.
type liveInputs struct {
	trajs []trace.Trajectory
	pl    *geo.Placement
}

func liveTrajectories(o options) (*liveInputs, error) {
	cfg := trace.KAISTConfig()
	cfg.Seed += o.seed - 1
	steps := liveSteps
	if o.smoke {
		steps = smokeLiveSteps
		cfg.TrainUsers, cfg.TestUsers = 2, 4
		cfg.Duration = time.Duration(steps) * liveInterval
	}
	ds, err := trace.Generate(cfg)
	if err != nil {
		return nil, err
	}
	rs, err := ds.Resample(liveInterval)
	if err != nil {
		return nil, err
	}
	trajs := capSteps(rs.Test, steps)
	var pts []geo.Point
	for _, tr := range trajs {
		pts = append(pts, tr.Points...)
	}
	return &liveInputs{trajs: trajs, pl: geo.NewPlacement(geo.NewHexGrid(50), pts)}, nil
}

// capSteps truncates every trajectory to at most steps points.
func capSteps(trajs []trace.Trajectory, steps int) []trace.Trajectory {
	out := make([]trace.Trajectory, len(trajs))
	for i, tr := range trajs {
		if tr.Len() > steps {
			tr.Points = tr.Points[:steps]
		}
		out[i] = tr
	}
	return out
}

// cluster is a master and one edge daemon per placed server, all serving
// on loopback TCP inside this process.
type cluster struct {
	m      *master.Master
	edges  []*edged.Server
	addrs  map[geo.ServerID]string // edge address by the master's server ID
	pl     *geo.Placement          // the master's placement
	addr   string                  // master address
	cancel context.CancelFunc
	wg     sync.WaitGroup

	ids clientIDs

	mu       sync.Mutex
	serveErr error
}

// clientIDs hands out the client ID each trajectory replays under. A
// trajectory reuses the ID of its own earliest finished replay once that
// replay ended more than liveTTL ago, so the edge caches hold nothing live
// for it and the master's history for it is the end of the same
// trajectory; otherwise it takes a fresh ID. At the full size a pass over
// the queue takes several times liveTTL and every replay after the first
// reuses its ID, which keeps the daemons' per-client state bounded.
type clientIDs struct {
	mu     sync.Mutex
	n      int           // trajectories in the queue; ID = i+1 + k*n
	issued map[int]int   // IDs issued per trajectory
	done   map[int][]use // finished replays per trajectory, oldest first
}

// use is one finished replay under an ID.
type use struct {
	id  int
	end time.Time
}

// take returns the ID trajectory i replays under at now, and when that ID
// last finished a replay (zero for a fresh ID).
func (p *clientIDs) take(i int, now time.Time) (int, time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if q := p.done[i]; len(q) > 0 && now.Sub(q[0].end) > liveTTL {
		p.done[i] = q[1:]
		return q[0].id, q[0].end
	}
	id := i + 1 + p.issued[i]*p.n
	p.issued[i]++
	return id, time.Time{}
}

// put records that trajectory i's replay under id ended at end.
func (p *clientIDs) put(i, id int, end time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done[i] = append(p.done[i], use{id: id, end: end})
}

// startCluster starts the edge daemons and the master. A nil est makes the
// master train its estimator at start-up; traced gives every daemon a
// wall-clock span tracer.
func startCluster(ctx context.Context, o options, in *liveInputs, est *estimator.ServerEstimator, traced bool) (*cluster, error) {
	ctx, cancel := context.WithCancel(ctx)
	c := &cluster{
		cancel: cancel, addrs: make(map[geo.ServerID]string, in.pl.Len()),
		ids: clientIDs{n: len(in.trajs), issued: make(map[int]int), done: make(map[int][]use)},
	}
	infos := make([]master.EdgeInfo, 0, in.pl.Len())
	for i := 0; i < in.pl.Len(); i++ {
		cfg := edged.DefaultConfig(liveModel)
		cfg.TimeScale = 0
		cfg.TTL = liveTTL
		cfg.GPUSeed = o.seed + int64(i)
		cfg.Logger = discardLogger("edged")
		if traced {
			cfg.Tracer = tracing.NewWallClock()
			cfg.Node = fmt.Sprintf("server/%d", i)
		}
		srv, err := edged.New(cfg)
		if err != nil {
			c.stop()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.stop()
			return nil, err
		}
		c.edges = append(c.edges, srv)
		c.serve(func() error { return srv.ServeContext(ctx, ln) })
		infos = append(infos, master.EdgeInfo{Addr: ln.Addr().String(), Location: in.pl.Center(geo.ServerID(i))})
	}
	mcfg := master.DefaultConfig(infos)
	mcfg.EstimatorSeed = o.seed
	mcfg.Estimator = est
	mcfg.Logger = discardLogger("master")
	if traced {
		mcfg.Tracer = tracing.NewWallClock()
	}
	m, err := master.New(mcfg)
	if err != nil {
		c.stop()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.stop()
		return nil, err
	}
	c.m, c.addr, c.pl = m, ln.Addr().String(), m.Placement()
	c.serve(func() error { return m.ServeContext(ctx, ln) })
	for id := 0; id < c.pl.Len(); id++ {
		addr, ok := m.EdgeAddr(geo.ServerID(id))
		if !ok {
			c.stop()
			return nil, fmt.Errorf("master has no edge for server %d", id)
		}
		c.addrs[geo.ServerID(id)] = addr
	}
	return c, nil
}

func (c *cluster) serve(fn func() error) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		if err := fn(); err != nil {
			c.mu.Lock()
			c.serveErr = err
			c.mu.Unlock()
		}
	}()
}

// stop shuts every daemon down and waits for them to return; calling it
// again does nothing.
func (c *cluster) stop() {
	c.cancel()
	if c.m != nil {
		c.m.Close() //nolint:errcheck // the listener is closed either way
	}
	for _, e := range c.edges {
		e.Close() //nolint:errcheck // the listener is closed either way
	}
	c.wg.Wait()
}

func (c *cluster) err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.serveErr
}

// tally is the outcome of a replay: operation counts and call latencies.
type tally struct {
	trajectories, steps             int64
	registers, registerFails        int64
	reports, reportFails            int64
	handoffs, handoffFails, hits    int64
	queries, queryFails, badLatency int64
	clientQueries                   int64 // queries the clients' own metrics counted
	uploads, uploadBytes            int64
	earlyReuse, overTTL             int64 // replays that break the cache-lifetime rules

	handoff, query, step []time.Duration
}

func (t *tally) merge(o *tally) {
	t.trajectories += o.trajectories
	t.steps += o.steps
	t.registers += o.registers
	t.registerFails += o.registerFails
	t.reports += o.reports
	t.reportFails += o.reportFails
	t.handoffs += o.handoffs
	t.handoffFails += o.handoffFails
	t.hits += o.hits
	t.queries += o.queries
	t.queryFails += o.queryFails
	t.badLatency += o.badLatency
	t.clientQueries += o.clientQueries
	t.uploads += o.uploads
	t.uploadBytes += o.uploadBytes
	t.earlyReuse += o.earlyReuse
	t.overTTL += o.overTTL
	t.handoff = append(t.handoff, o.handoff...)
	t.query = append(t.query, o.query...)
	t.step = append(t.step, o.step...)
}

func (t *tally) attempted() int64 { return t.registers + t.reports + t.handoffs + t.queries }
func (t *tally) failed() int64 {
	return t.registerFails + t.reportFails + t.handoffFails + t.queryFails
}

// served is the number of queries answered without an error.
func (t *tally) served() int64 { return t.queries - t.queryFails }

// count adds the tally's operations to the report and checks its outputs.
func (t *tally) count(r *report, what string) {
	r.attempted += t.attempted()
	r.failed += t.failed()
	t.check(r, what)
}

// check records the tally's failed output checks in the report.
func (t *tally) check(r *report, what string) {
	r.check(t.queries == t.steps*liveQueries, "%s: %d queries over %d steps, want %d a step", what, t.queries, t.steps, liveQueries)
	r.check(t.clientQueries == t.queries, "%s: clients counted %d queries, %d were issued", what, t.clientQueries, t.queries)
	r.check(t.badLatency == 0, "%s: %d successful queries returned a latency <= 0", what, t.badLatency)
	r.check(t.trajectories > 0, "%s: no trajectory replayed", what)
	r.check(t.earlyReuse == 0, "%s: %d replays reused a client ID within %v of its last replay", what, t.earlyReuse, liveTTL)
	r.check(t.overTTL == 0, "%s: %d trajectories took longer than the %v edge cache TTL", what, t.overTTL, liveTTL)
}

// replay runs liveClients closed-loop clients over the trajectory queue.
// With a zero deadline every trajectory is replayed once; otherwise the
// queue repeats until the deadline and the trajectories in flight finish.
// Each replay takes its client ID from c.ids. It returns the merged tally
// and the wall time.
func (c *cluster) replay(ctx context.Context, trajs []trace.Trajectory, deadline time.Time, rec *recorder, traced bool) (*tally, time.Duration, error) {
	var next atomic.Int64
	tallies := make([]tally, liveClients)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < liveClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				j := next.Add(1) - 1
				if deadline.IsZero() && j >= int64(len(trajs)) || !deadline.IsZero() && time.Now().After(deadline) {
					return
				}
				i := int(j % int64(len(trajs)))
				c.replayOne(ctx, i, trajs[i], &tallies[w], rec, traced)
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	var t tally
	for w := range tallies {
		t.merge(&tallies[w])
	}
	if err := c.err(); err != nil {
		return nil, 0, fmt.Errorf("daemon stopped serving: %w", err)
	}
	return &t, wall, nil
}

// replayOne replays trajectory i: at every step one location report, a
// handoff when the step enters a new cell, then liveQueries queries. Failed
// operations are counted in t.
func (c *cluster) replayOne(ctx context.Context, i int, tr trace.Trajectory, t *tally, rec *recorder, traced bool) {
	begin := time.Now()
	id, last := c.ids.take(i, begin)
	if !last.IsZero() && begin.Sub(last) <= liveTTL {
		t.earlyReuse++
	}
	defer func() {
		end := time.Now()
		if end.Sub(begin) > liveTTL {
			t.overTTL++
		}
		c.ids.put(i, id, end)
	}()
	cfg := mobile.Config{ID: id, Model: liveModel, MasterAddr: c.addr, Logger: discardLogger("mobile")}
	if traced {
		cfg.Tracer = tracing.NewWallClock()
	}
	traceID, root := rec.id(), rec.id()
	cli, err := mobile.DialContext(ctx, cfg)
	rec.add(traceID, 0, root, "mobile.DialContext", begin, time.Now())
	t.registers++
	if err != nil {
		t.registerFails++
		return
	}
	t.trajectories++
	cur := geo.NoServer
	for _, p := range tr.Points {
		stepStart := time.Now()
		step := rec.id()
		err := cli.ReportLocationContext(ctx, p)
		reported := time.Now()
		rec.add(traceID, 0, step, "mobile.ReportLocationContext", stepStart, reported)
		t.reports++
		if err != nil {
			t.reportFails++
		}
		if sid := c.pl.ServerAt(p); sid != cur && sid != geo.NoServer {
			if c.handoff(ctx, cli, sid, t, rec, traceID, step) {
				cur = sid
			}
		}
		for q := 0; q < liveQueries; q++ {
			t0 := time.Now()
			lat, err := cli.QueryContext(ctx)
			t1 := time.Now()
			rec.add(traceID, 0, step, "mobile.QueryContext", t0, t1)
			t.queries++
			t.query = append(t.query, t1.Sub(t0))
			switch {
			case err != nil: // core.ErrLocalFallback included: degraded service
				t.queryFails++
			case lat <= 0:
				t.badLatency++
			}
		}
		end := time.Now()
		rec.add(traceID, step, root, "replay.step", stepStart, end)
		t.steps++
		t.step = append(t.step, end.Sub(stepStart))
	}
	met := cli.Metrics()
	t.uploads += met.Counter("uploads_total").Value()
	t.uploadBytes += met.Counter("upload_bytes_total").Value()
	t.clientQueries += met.Counter("queries_total").Value()
	cli.Close() //nolint:errcheck // the replay is over; a close error changes nothing measured
	rec.add(traceID, root, 0, "replay.trajectory", begin, time.Now())
}

// handoff attaches the client to a new cell's edge server and uploads its
// missing layers; it reports whether the client ended warmly attached.
func (c *cluster) handoff(ctx context.Context, cli *mobile.Client, sid geo.ServerID, t *tally, rec *recorder, traceID, parent uint64) bool {
	h := rec.id()
	t0 := time.Now()
	err := cli.ConnectContext(ctx, sid, c.addrs[sid])
	t1 := time.Now()
	rec.add(traceID, 0, h, "mobile.ConnectContext", t0, t1)
	if err == nil {
		if present, total := cli.CacheState(); present == total {
			t.hits++
		}
		_, err = cli.UploadAllContext(ctx)
	}
	t2 := time.Now()
	rec.add(traceID, 0, h, "mobile.UploadAllContext", t1, t2)
	rec.add(traceID, h, parent, "replay.handoff", t0, t2)
	t.handoffs++
	t.handoff = append(t.handoff, t2.Sub(t0))
	if err != nil {
		t.handoffFails++
		return false
	}
	return true
}

// liveSetup generates the trajectories, starts the cluster (the master
// trains its estimator), and replays every trajectory once untimed, which
// makes the first dial of every pooled connection. The warm-up's outputs
// are checked; its operations are not counted.
func liveSetup(ctx context.Context, o options, r *report) (*cluster, *liveInputs, time.Duration, error) {
	start := time.Now()
	in, err := liveTrajectories(o)
	if err != nil {
		return nil, nil, 0, err
	}
	cl, err := startCluster(ctx, o, in, nil, false)
	if err != nil {
		return nil, nil, 0, err
	}
	warm, _, err := cl.replay(ctx, in.trajs, time.Time{}, nil, false)
	if err != nil {
		cl.stop()
		return nil, nil, 0, fmt.Errorf("warm-up replay: %w", err)
	}
	took := time.Since(start)
	warm.check(r, "warm-up replay")
	return cl, in, took, nil
}

// liveTimed sets the cluster up setupRepeats times, then replays for the
// measured time.
func liveTimed(o options) (*report, error) {
	ctx := context.Background()
	r := &report{}
	var (
		cl     *cluster
		in     *liveInputs
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if cl != nil {
			cl.stop()
			cl = nil
		}
		runtime.GC()
		var took time.Duration
		var err error
		if cl, in, took, err = liveSetup(ctx, o, r); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer cl.stop()
	t, wall, err := cl.replay(ctx, in.trajs, time.Now().Add(o.seconds), nil, false)
	if err != nil {
		return nil, err
	}
	t.count(r, "timed replay")
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	qps := float64(t.served()) / wall.Seconds()
	r.add("qps", qps, "1/s", int(t.served()))
	r.add("step_p50_us", percentile(t.step, 0.50), "us", len(t.step))
	r.add("step_p99_us", percentile(t.step, 0.99), "us", len(t.step))
	r.add("peak_rss_mb", rss, "MB", 1)
	r.add("setup_s", median(setups), "s", len(setups))
	r.note("live_qps", qps, "queries/s", int(t.served()))
	r.note("query_p50_us", percentile(t.query, 0.50), "us", len(t.query))
	r.note("query_p99_us", percentile(t.query, 0.99), "us", len(t.query))
	r.note("handoff_p50_us", percentile(t.handoff, 0.50), "us", len(t.handoff))
	r.note("handoff_p90_us", percentile(t.handoff, 0.90), "us", len(t.handoff))
	return r, nil
}

// daemonCounters are the counters the master and edge daemons export,
// summed over the cluster.
type daemonCounters struct {
	migrationsOrdered                 int64
	execs, migrations, migrationBytes int64
	poolReuse, poolDials              int64
}

func (c *cluster) counters() daemonCounters {
	mm := c.m.Metrics()
	d := daemonCounters{
		migrationsOrdered: mm.Counter("migrations_ordered_total").Value(),
		poolReuse:         mm.Counter("edge_pool_reuse_hits_total").Value(),
		poolDials:         mm.Counter("edge_pool_dials_total").Value(),
	}
	for _, e := range c.edges {
		em := e.Metrics()
		d.execs += em.Counter("execs_total").Value()
		d.migrations += em.Counter("migrations_total").Value()
		d.migrationBytes += em.Counter("migration_bytes_total").Value()
		d.poolReuse += em.Counter("peer_pool_reuse_hits_total").Value()
		d.poolDials += em.Counter("peer_pool_dials_total").Value()
	}
	return d
}

// liveTraced is the per-layer run: separately timed set-up phases, then on
// one warmed cluster a plain replay (counters and allocations), a
// span-bracketed replay, and a profiled replay; then bare wire round trips,
// the cost of the daemons' own tracers, and single-call layer timings.
func liveTraced(o options) (*report, error) {
	ctx := context.Background()
	r := &report{}
	rec := newRecorder()

	t0 := time.Now()
	in, err := liveTrajectories(o)
	if err != nil {
		return nil, err
	}
	r.add("trace.generate_s", rec.since(0, 0, "trace.Generate", t0).Seconds(), "s", 1)
	lin := &mobility.Linear{}
	t0 = time.Now()
	lin.FitPlacement(in.pl)
	r.add("mobility.fit_s", rec.since(0, 0, "mobility.Linear.FitPlacement", t0).Seconds(), "s", 1)
	t0 = time.Now()
	est, err := estimator.TrainServerEstimator(profile.ServerTitanXp(), gpusim.DefaultParams(), o.seed)
	if err != nil {
		return nil, err
	}
	r.add("estimator.train_s", rec.since(0, 0, "estimator.TrainServerEstimator", t0).Seconds(), "s", 1)
	t0 = time.Now()
	cl, err := startCluster(ctx, o, in, est, false)
	if err != nil {
		return nil, err
	}
	defer cl.stop()
	rec.since(0, 0, "cluster.start", t0)
	warm, _, err := cl.replay(ctx, in.trajs, time.Time{}, nil, false)
	if err != nil {
		return nil, err
	}
	warm.count(r, "warm-up replay")

	// Plain replay: daemon counter and allocation deltas around it.
	before := cl.counters()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain, plainWall, err := cl.replay(ctx, in.trajs, time.Time{}, nil, false)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	after := cl.counters()
	plain.count(r, "plain replay")
	r.add("runtime.allocs_per_query", ratio(float64(m1.Mallocs-m0.Mallocs), float64(plain.queries)), "count", int(plain.queries))
	r.add("master.migrations_ordered", float64(after.migrationsOrdered-before.migrationsOrdered), "count", 1)
	r.add("edged.execs", float64(after.execs-before.execs), "count", 1)
	r.add("edged.migrations", float64(after.migrations-before.migrations), "count", 1)
	r.add("edged.migration_bytes", float64(after.migrationBytes-before.migrationBytes), "B", 1)
	reuse, dials := after.poolReuse-before.poolReuse, after.poolDials-before.poolDials
	r.add("wire.pool_reuse_ratio", ratio(float64(reuse), float64(reuse+dials)), "ratio", int(reuse+dials))
	r.add("mobile.uploads", float64(plain.uploads), "count", 1)
	r.add("mobile.upload_bytes", float64(plain.uploadBytes), "B", 1)
	r.add("mobile.hit_ratio", ratio(float64(plain.hits), float64(plain.handoffs)), "ratio", int(plain.handoffs))
	plan := cl.m.Metrics().Histogram("plan_latency_ns")
	r.add("master.plan_p50_us", float64(plan.P50())/float64(time.Microsecond), "us", int(plan.Count()))

	// Span-bracketed replay: one trace per trajectory.
	spanned, spanWall, err := cl.replay(ctx, in.trajs, time.Time{}, rec, false)
	if err != nil {
		return nil, err
	}
	spanned.count(r, "span-bracketed replay")
	r.add("bench.span_overhead_ratio", ratio(float64(spanWall), float64(plainWall)), "ratio", 1)
	for _, m := range []struct {
		name, span string
		q          float64
	}{
		{"master.report_p50_us", "mobile.ReportLocationContext", 0.50},
		{"master.report_p99_us", "mobile.ReportLocationContext", 0.99},
		{"mobile.connect_p50_us", "mobile.ConnectContext", 0.50},
		{"mobile.upload_p50_us", "mobile.UploadAllContext", 0.50},
		{"mobile.query_p50_us", "mobile.QueryContext", 0.50},
		{"mobile.query_p99_us", "mobile.QueryContext", 0.99},
		{"mobile.handoff_p50_us", "replay.handoff", 0.50},
		{"mobile.handoff_p90_us", "replay.handoff", 0.90},
	} {
		ds := rec.durations(m.span)
		r.add(m.name, percentile(ds, m.q), "us", len(ds))
	}

	shares, samples, err := cpuShares(o.profilePath(), func() error {
		t, _, err := cl.replay(ctx, in.trajs, time.Time{}, nil, false)
		if err == nil {
			t.count(r, "profiled replay")
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	addShares(r, shares, samples)

	rt, err := wireRoundTrips(ctx, rec, cl.addrs[0])
	if err != nil {
		return nil, err
	}
	r.add("wire.roundtrip_p50_us", percentile(rt, 0.50), "us", len(rt))

	ratioTracing, err := daemonTracingCost(ctx, o, in, est, cl, r)
	if err != nil {
		return nil, err
	}
	r.add("tracing.overhead_ratio", ratioTracing, "ratio", 1)

	m, err := dnn.ZooModel(liveModel)
	if err != nil {
		return nil, err
	}
	layerTimings(rec, r, layerInputs{
		model: m, est: est, pl: in.pl, pred: lin, trajs: in.trajs,
		historyLen: master.DefaultConfig(nil).HistoryLen, seed: o.seed,
	})
	skipCity(r, "live-replay bypasses edgesim and the process-wide plan cache")
	return r, rec.finish(r, o.spansPath())
}

// wireRoundTrips times stats round trips on one direct connection to an
// edge daemon.
func wireRoundTrips(ctx context.Context, rec *recorder, addr string) ([]time.Duration, error) {
	start := time.Now()
	conn, err := wire.DialContext(ctx, addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close() //nolint:errcheck // only read from
	out := make([]time.Duration, 0, roundTrips)
	req := &wire.Envelope{Type: wire.MsgStatsRequest}
	for i := 0; i < roundTrips; i++ {
		t0 := time.Now()
		resp, err := conn.RoundTripContext(ctx, req)
		if err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0))
		if resp.Type != wire.MsgStatsResponse || resp.Stats == nil {
			return nil, fmt.Errorf("stats round trip answered with message type %d", resp.Type)
		}
	}
	rec.since(rec.id(), 0, "wire.Conn.RoundTripContext", start)
	return out, nil
}

// daemonTracingCost compares served queries per second on the untraced
// cluster with a second cluster whose master, edge daemons and clients all
// record wall-clock spans, over the first journalLiveSteps steps of every
// trajectory (the span journals stay in memory). Both measured replays
// start liveTTL after the cluster's previous replay, so on both every
// trajectory reuses its ID with every cached layer expired.
func daemonTracingCost(ctx context.Context, o options, in *liveInputs, est *estimator.ServerEstimator, cl *cluster, r *report) (float64, error) {
	short := capSteps(in.trajs, journalLiveSteps)
	time.Sleep(liveTTL)
	plain, plainWall, err := cl.replay(ctx, short, time.Time{}, nil, false)
	if err != nil {
		return 0, err
	}
	plain.count(r, "untraced short replay")
	cl.stop() // one cluster in memory at a time
	tcl, err := startCluster(ctx, o, in, est, true)
	if err != nil {
		return 0, err
	}
	defer tcl.stop()
	warm, _, err := tcl.replay(ctx, short, time.Time{}, nil, true)
	if err != nil {
		return 0, err
	}
	warm.count(r, "traced-daemon warm-up replay")
	time.Sleep(liveTTL)
	traced, tracedWall, err := tcl.replay(ctx, short, time.Time{}, nil, true)
	if err != nil {
		return 0, err
	}
	traced.count(r, "traced-daemon replay")
	return ratio(float64(plain.served())/plainWall.Seconds(), float64(traced.served())/tracedWall.Seconds()), nil
}
