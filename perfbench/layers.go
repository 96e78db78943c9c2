package main

import (
	"sort"
	"time"

	"perdnn/internal/core"
	"perdnn/internal/dnn"
	"perdnn/internal/estimator"
	"perdnn/internal/geo"
	"perdnn/internal/gpusim"
	"perdnn/internal/mobility"
	"perdnn/internal/partition"
	"perdnn/internal/profile"
	"perdnn/internal/trace"
)

// shareModules are the modules whose CPU share is reported; samples of the
// runtime's allocator and collector are reported as runtime.gc_cpu_share.
var shareModules = []string{
	"edgesim", "core", "mobility", "partition", "gpusim", "geo", "estimator",
	"wire", "master", "edged", "mobile",
}

// addShares reports the CPU profile's shares, the listed modules as
// metrics and every other module on the text lines.
func addShares(r *report, shares map[string]float64, samples int64) {
	listed := map[string]bool{"runtime": true}
	for _, m := range shareModules {
		listed[m] = true
		r.add(m+".cpu_share", shares[m], "ratio", int(samples))
	}
	r.add("runtime.gc_cpu_share", shares["runtime"], "ratio", int(samples))
	var rest []string
	for m := range shares {
		if !listed[m] {
			rest = append(rest, m)
		}
	}
	sort.Strings(rest)
	for _, m := range rest {
		r.note(m+".cpu_share", shares[m], "ratio", int(samples))
	}
}

// layerInputs are the inputs a workload hands each layer.
type layerInputs struct {
	model      *dnn.Model
	est        *estimator.ServerEstimator
	pl         *geo.Placement
	pred       mobility.Predictor
	trajs      []trace.Trajectory
	historyLen int
	seed       int64
}

// microTime is the least time one layer timing runs for.
const microTime = 100 * time.Millisecond

// perCall times fn over n inputs in whole passes until microTime has
// elapsed, records the batch as one span, and returns the mean
// nanoseconds per call.
func perCall(rec *recorder, name string, n int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	start := time.Now()
	calls := 0
	for calls == 0 || time.Since(start) < microTime {
		for i := 0; i < n; i++ {
			fn(i)
		}
		calls += n
	}
	took := rec.since(rec.id(), 0, name, start)
	return float64(took.Nanoseconds()) / float64(calls)
}

// layerTimings times single calls into each layer on the workload's own
// inputs: its history windows, placement, model and trained estimator.
func layerTimings(rec *recorder, r *report, in layerInputs) {
	windows := mobility.Windows(in.trajs, in.historyLen)
	var sink int
	r.add("mobility.predict_ns", perCall(rec, "mobility.PredictPoint", len(windows), func(i int) {
		if _, ok := in.pred.PredictPoint(windows[i].In); ok {
			sink++
		}
	}), "ns", len(windows))
	hits, scored := 0, 0
	for _, w := range windows {
		next := in.pl.ServerAt(w.Target)
		if next == geo.NoServer {
			continue
		}
		scored++
		if top := in.pred.Rank(w.In, 1); len(top) > 0 && top[0] == next {
			hits++
		}
	}
	r.add("mobility.next_cell_hit_ratio", ratio(float64(hits), float64(scored)), "ratio", scored)

	policy := &core.MigrationPolicy{
		Predictor: in.pred, Placement: in.pl, Radius: 100, HistoryLen: in.historyLen, TTLIntervals: 5,
	}
	r.add("core.targets_ns", perCall(rec, "core.MigrationPolicy.Targets", len(windows), func(i int) {
		hist := windows[i].In
		targets, _ := policy.Targets(hist, in.pl.ServerAt(hist[len(hist)-1]))
		sink += len(targets)
	}), "ns", len(windows))

	var points []geo.Point
	for _, tr := range in.trajs {
		points = append(points, tr.Points...)
	}
	r.add("geo.server_at_ns", perCall(rec, "geo.Placement.ServerAt", len(points), func(i int) {
		sink += int(in.pl.ServerAt(points[i]))
	}), "ns", len(points))

	// GPU samples across a load cycle: 0..7 inferences in flight.
	gpu := gpusim.New(profile.ServerTitanXp(), gpusim.DefaultParams(), in.seed)
	const nSamples = 256
	samples := make([]gpusim.Stats, nSamples)
	for i := range samples {
		now := time.Duration(i) * 250 * time.Millisecond
		for j := 0; j < i%8; j++ {
			gpu.Begin(now)
		}
		samples[i] = gpu.Sample(now)
		for j := 0; j < i%8; j++ {
			gpu.End()
		}
	}
	r.add("estimator.estimate_ns", perCall(rec, "estimator.EstimateSlowdown", nSamples, func(i int) {
		if in.est.EstimateSlowdown(samples[i]) >= 1 {
			sink++
		}
	}), "ns", nSamples)
	prof := profile.NewModelProfile(in.model, profile.ClientODROID(), profile.ServerTitanXp())
	if planner, err := core.NewPlanner(prof, in.est, partition.LabWiFi()); err == nil {
		r.add("core.plan_for_ns", perCall(rec, "core.Planner.PlanFor", nSamples, func(i int) {
			if _, err := planner.PlanFor(samples[i]); err == nil {
				sink++
			}
		}), "ns", nSamples)
	} else {
		r.check(false, "core.NewPlanner: %v", err)
	}

	// Assignments offloading the first k layers, k = 0..n.
	n := in.model.NumLayers()
	locs := make([][]partition.Location, n+1)
	for k := range locs {
		off := make(map[dnn.LayerID]bool, k)
		for id := 0; id < k; id++ {
			off[dnn.LayerID(id)] = true
		}
		locs[k] = partition.WithOffloaded(in.model, off)
	}
	splits := make([]partition.Split, len(locs))
	r.add("partition.decompose_ns", perCall(rec, "partition.Decompose", len(locs), func(i int) {
		splits[i] = partition.Decompose(prof, locs[i])
	}), "ns", len(locs))
	r.add("gpusim.exec_time_ns", perCall(rec, "gpusim.GPU.ExecTime", len(splits), func(i int) {
		now := time.Duration(i) * time.Millisecond
		if gpu.ExecTime(splits[i].ServerBase, splits[i].Intensity, now) >= 0 {
			sink++
		}
	}), "ns", len(splits))
	r.check(sink > 0, "layer timings made no call")
}

// skipLive reports the live-path metrics of a workload that bypasses the
// daemons.
func skipLive(r *report, reason string) {
	for _, m := range []struct{ name, unit string }{
		{"wire.roundtrip_p50_us", "us"}, {"wire.pool_reuse_ratio", "ratio"},
		{"master.report_p50_us", "us"}, {"master.report_p99_us", "us"},
		{"master.plan_p50_us", "us"}, {"master.migrations_ordered", "count"},
		{"edged.execs", "count"}, {"edged.migrations", "count"}, {"edged.migration_bytes", "B"},
		{"mobile.connect_p50_us", "us"}, {"mobile.upload_p50_us", "us"},
		{"mobile.uploads", "count"}, {"mobile.upload_bytes", "B"}, {"mobile.hit_ratio", "ratio"},
		{"mobile.query_p50_us", "us"}, {"mobile.query_p99_us", "us"},
		{"mobile.handoff_p50_us", "us"}, {"mobile.handoff_p90_us", "us"},
		{"runtime.allocs_per_query", "count"},
	} {
		r.skip(m.name, m.unit, reason)
	}
}

// skipCity reports the simulator metrics of a workload that bypasses
// edgesim and the process-wide plan cache.
func skipCity(r *report, reason string) {
	for _, m := range []struct{ name, unit string }{
		{"edgesim.queries", "count"}, {"edgesim.window_queries", "count"},
		{"edgesim.hit_ratio", "ratio"}, {"edgesim.sim_p99_ms", "ms"},
		{"edgesim.migration_bytes", "B"}, {"edgesim.allocs_per_query", "count"},
		{"edgesim.alloc_bytes_per_query", "B"}, {"edgesim.gc_cycles", "count"},
		{"edgesim.shard_speedup", "ratio"},
		{"core.plan_requests", "count"}, {"core.plan_cache_hit_ratio", "ratio"},
	} {
		r.skip(m.name, m.unit, reason)
	}
}
