package edgesim

import (
	"fmt"
	"time"

	"perdnn/internal/dnn"
	"perdnn/internal/partition"
)

// The paper's future work (Section VI) includes "applications
// simultaneously running multiple DNNs". This file implements that
// extension for the single-client scenario: a client interleaves queries
// over several models while uploading all of them over one uplink, and the
// upload order can either finish one model at a time or jointly rank every
// model's schedule units by efficiency.

// UploadStrategy orders uploads across multiple models.
type UploadStrategy int

// Upload strategies for multi-DNN clients.
const (
	// UploadSequential ships model 0's full schedule, then model 1's, ...
	UploadSequential UploadStrategy = iota + 1
	// UploadJoint merges every model's schedule units into one
	// efficiency-ranked order, so all models improve together.
	UploadJoint
)

// String implements fmt.Stringer.
func (s UploadStrategy) String() string {
	switch s {
	case UploadSequential:
		return "sequential"
	case UploadJoint:
		return "joint"
	default:
		return fmt.Sprintf("UploadStrategy(%d)", int(s))
	}
}

// MultiConfig parameterizes a multi-DNN single-client run.
type MultiConfig struct {
	// Models are the DNNs the client cycles through (one query each, round
	// robin).
	Models []dnn.ModelName
	// Duration is the simulated time span.
	Duration time.Duration
	// QueryGap is the pause after each query completes.
	QueryGap time.Duration
	// Link is the wireless access link.
	Link partition.Link
	// Strategy orders the uploads.
	Strategy UploadStrategy
}

// DefaultMultiConfig runs Inception and ResNet side by side for the time it
// takes to upload both.
func DefaultMultiConfig(strategy UploadStrategy) MultiConfig {
	return MultiConfig{
		Models:   []dnn.ModelName{dnn.ModelInception, dnn.ModelResNet},
		Duration: time.Minute,
		QueryGap: 500 * time.Millisecond,
		Link:     partition.LabWiFi(),
		Strategy: strategy,
	}
}

// MultiQuery is one executed query of a multi-DNN run.
type MultiQuery struct {
	Model   int // index into MultiConfig.Models
	Issued  time.Duration
	Latency time.Duration
}

// MultiResult holds a multi-DNN run's outputs.
type MultiResult struct {
	Strategy UploadStrategy
	Queries  []MultiQuery
	// UploadDone is when the last layer finished uploading.
	UploadDone time.Duration
}

// QueriesPerModel returns the per-model query counts.
func (r *MultiResult) QueriesPerModel(numModels int) []int {
	out := make([]int, numModels)
	for _, q := range r.Queries {
		out[q.Model]++
	}
	return out
}

// MeanLatencyPerModel returns the per-model mean latencies.
func (r *MultiResult) MeanLatencyPerModel(numModels int) []time.Duration {
	sums := make([]time.Duration, numModels)
	counts := make([]int, numModels)
	for _, q := range r.Queries {
		sums[q.Model] += q.Latency
		counts[q.Model]++
	}
	out := make([]time.Duration, numModels)
	for i := range out {
		if counts[i] > 0 {
			out[i] = sums[i] / time.Duration(counts[i])
		}
	}
	return out
}

// multiUnit is one upload unit tagged with its model.
type multiUnit struct {
	model int
	unit  partition.UploadUnit
}

// RunMultiDNN simulates a client running several DNNs concurrently against
// one uncontended edge server while uploading them all.
func RunMultiDNN(cfg MultiConfig) (*MultiResult, error) {
	if len(cfg.Models) < 2 {
		return nil, fmt.Errorf("edgesim: multi-DNN run needs >= 2 models, got %d", len(cfg.Models))
	}
	if cfg.Strategy != UploadSequential && cfg.Strategy != UploadJoint {
		return nil, fmt.Errorf("edgesim: invalid upload strategy %d", int(cfg.Strategy))
	}
	if cfg.Duration <= 0 || cfg.QueryGap <= 0 {
		return nil, fmt.Errorf("edgesim: bad timing config: %v / %v", cfg.Duration, cfg.QueryGap)
	}

	type modelState struct {
		sched     []partition.UploadUnit
		prefixLat []time.Duration
		uploaded  int // units fully uploaded
	}
	states := make([]*modelState, 0, len(cfg.Models))
	var allUnits []multiUnit
	for mi, name := range cfg.Models {
		prof, _, sched, err := zooPlan(name, cfg.Link)
		if err != nil {
			return nil, err
		}
		st := &modelState{sched: sched, prefixLat: prefixLatencies(prof, sched, cfg.Link)}
		states = append(states, st)
		for _, u := range sched {
			allUnits = append(allUnits, multiUnit{model: mi, unit: u})
		}
	}

	// Global upload order. The joint strategy k-way-merges the per-model
	// schedules: at each step it ships the model whose next unit has the
	// highest efficiency. Within-model order is preserved, which the
	// prefix-latency bookkeeping below relies on.
	if cfg.Strategy == UploadJoint {
		heads := make([]int, len(states))
		merged := make([]multiUnit, 0, len(allUnits))
		for len(merged) < len(allUnits) {
			best := -1
			for mi, st := range states {
				if heads[mi] >= len(st.sched) {
					continue
				}
				if best < 0 || st.sched[heads[mi]].Efficiency > states[best].sched[heads[best]].Efficiency {
					best = mi
				}
			}
			merged = append(merged, multiUnit{model: best, unit: states[best].sched[heads[best]]})
			heads[best]++
		}
		allUnits = merged
	}
	// Completion time of each global unit over the shared uplink.
	unitDone := make([]time.Duration, len(allUnits))
	var cum time.Duration
	for i, mu := range allUnits {
		cum += cfg.Link.UpTime(mu.unit.Bytes)
		unitDone[i] = cum
	}

	res := &MultiResult{Strategy: cfg.Strategy, UploadDone: cum}
	now := time.Duration(0)
	next := 0 // round-robin model index
	gi := 0   // global upload progress
	for now < cfg.Duration {
		// Advance upload state to `now`.
		for gi < len(allUnits) && now >= unitDone[gi] {
			states[allUnits[gi].model].uploaded++
			gi++
		}
		// The schedule-prefix latency needs the per-model count of
		// *contiguously* uploaded units; with the joint order a model's
		// units still arrive in its own schedule order (stable sort), so
		// the count is the prefix length.
		st := states[next]
		lat := st.prefixLat[st.uploaded]
		if now+lat > cfg.Duration {
			break
		}
		res.Queries = append(res.Queries, MultiQuery{Model: next, Issued: now, Latency: lat})
		now += lat + cfg.QueryGap
		next = (next + 1) % len(cfg.Models)
	}
	return res, nil
}
