package main

import "runtime"

// metricDef is one reported metric; BENCHMARK.json lists the same names.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics an untraced run reports, for every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"iter_s", "s"},
	{"iter_tail_s", "s"},
	{"alloc_mb_per_iter", "MB"},
	{"live_heap_mb", "MB"},
}

// outcomes are deterministic at a fixed seed and must repeat exactly from
// run to run. Both kinds of run print them; a traced run also reports them
// as metrics.
var outcomes = []metricDef{
	{"energy_kj", "kJ"},
	{"deadline_miss_ratio", "ratio"},
	{"regret_pct", "%"},
	{"fail_ratio", "ratio"},
}

// perLayer are the metrics a traced run reports, for every workload: a
// layer the workload bypasses reads 0. Times are per-iteration sums in ms.
// cpu_s_per_iter is the whole process's, over the traced run's iterations;
// it is not an end-to-end metric because on a 2-vCPU host the speed of two
// busy threads shifts with their placement, a 10-26% spread over ten runs.
var perLayer = []metricDef{
	{"cpu_s_per_iter", "s"},
	{"core.round_self_ms", "ms"},
	{"core.between_rounds_ms", "ms"},
	{"core.explored", "count"},
	{"gp.fit_ms", "ms"},
	{"gp.fits", "count"},
	{"mobo.scan_ms", "ms"},
	{"mobo.scans", "count"},
	{"ilp.solve_ms", "ms"},
	{"ilp.solves", "count"},
	{"device.measure_ms", "ms"},
	{"device.jobs", "count"},
	{"parallel.fanouts", "count"},
	{"parallel.helpers_per_fanout", "count"},
	{"fl.client_ms", "ms"},
	{"fl.fold_wait_ms", "ms"},
	{"fl.contribute_ms", "ms"},
	{"fl.commit_ms", "ms"},
	{"fl.execute_ms", "ms"},
	{"exact.add_ms", "ms"},
	{"exact.round_ms", "ms"},
	{"fl.tier_close_ms", "ms"},
	{"fl.partials", "count"},
	{"fl.partial_kb", "kB"},
	{"fl.http_ms", "ms"},
	{"fl.handler_ms", "ms"},
	{"fl.transport_ms", "ms"},
	{"fl.wire_tx_kb", "kB"},
	{"fl.wire_rx_kb", "kB"},
	{"fl.http_requests", "count"},
	{"ml.train_ms", "ms"},
	{"ml.steps", "count"},
	{"obs.sink_calls", "count"},
	{"ledger.events", "count"},
	{"fleet.update_ms", "ms"},
	{"fleet.update_calls", "count"},
	{"fleet.engine_cpu_ms", "ms"},
	{"fleet.partials", "count"},
	{"fleet.wire_kb", "kB"},
	{"fleet.survivor_ratio", "ratio"},
	{"fleet.subtree_drops", "count"},
	{"fleet.shards", "count"},
	{"gc.cycles", "count"},
	{"gc.pause_ms", "ms"},
	{"attrib.unattributed_pct", "%"},
	{"trace.overhead_pct", "%"},
}

// traceSample is what one traced iteration leaves behind.
type traceSample struct {
	raw     [numSlots]int64
	fanouts uint64 // parallel.Stats deltas
	helpers uint64
	gc      uint32 // runtime.MemStats deltas
	pauseNs uint64
}

// gcSnapshot reads the collector counters (stops the world briefly; traced
// iterations only).
func gcSnapshot() (cycles uint32, pauseNs uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC, ms.PauseTotalNs
}

// layerValues derives one traced iteration's per-layer metrics. Layers that
// are timed only as an enclosing span are split by subtracting the timed
// calls inside them.
func layerValues(t traceSample) map[string]float64 {
	r := t.raw
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	kb := func(b int64) float64 { return float64(b) / 1e3 }
	m := map[string]float64{
		"core.round_self_ms":     ms(r[sRound] - r[sExec]),
		"core.between_rounds_ms": ms(r[sBetween]),
		"core.explored":          float64(r[sExplored]),
		"gp.fit_ms":              ms(r[sGPFit]),
		"gp.fits":                float64(r[sGPFits]),
		"mobo.scan_ms":           ms(r[sScan]),
		"mobo.scans":             float64(r[sScans]),
		"ilp.solve_ms":           ms(r[sILP]),
		"ilp.solves":             float64(r[sILPs]),
		// The executor is the device meter in pace and the client's training
		// job in round-http; the model's own gradient time is ml's share.
		"device.measure_ms":   ms(r[sExec] - r[sTrain]),
		"device.jobs":         float64(r[sJobs]),
		"parallel.fanouts":    float64(t.fanouts),
		"fl.client_ms":        ms(r[sClient]),
		"fl.fold_wait_ms":     ms(r[sFoldWait]),
		"fl.contribute_ms":    ms(r[sContribute]),
		"fl.commit_ms":        ms(r[sCommit]),
		"fl.execute_ms":       ms(r[sExecute]),
		"fl.tier_close_ms":    ms(r[sTierClose]),
		"fl.partials":         float64(r[sPartials]),
		"fl.partial_kb":       kb(r[sPartialBytes]),
		"fl.http_ms":          ms(r[sHTTP]),
		"fl.handler_ms":       ms(r[sHandler]),
		"fl.transport_ms":     ms(r[sHTTP] - r[sHandler]),
		"fl.wire_tx_kb":       kb(r[sWireTx]),
		"fl.wire_rx_kb":       kb(r[sWireRx]),
		"fl.http_requests":    float64(r[sRequests]),
		"ml.train_ms":         ms(r[sTrain]),
		"ml.steps":            float64(r[sSteps]),
		"obs.sink_calls":      float64(r[sSinkCalls]),
		"ledger.events":       float64(r[sLedgerEvents]),
		"fleet.update_ms":     ms(r[sUpdate]),
		"fleet.update_calls":  float64(r[sUpdateCalls]),
		"fleet.engine_cpu_ms": ms(r[sEngineCPU] - r[sUpdate]),
		"fleet.partials":      float64(r[sFleetPartials]),
		"fleet.wire_kb":       kb(r[sFleetWire]),
		"fleet.subtree_drops": float64(r[sFleetDrops]),
		"fleet.shards":        float64(r[sFleetShards]),
		"gc.cycles":           float64(t.gc),
		"gc.pause_ms":         ms(int64(t.pauseNs)),
	}
	// exact's share is what the fold and report spans spend outside the
	// aggregator: the exact add of each contribution into the flat
	// accumulator or the open tier-0 group, and the exact rounding of the
	// sums. Only fl.Server opens those spans.
	if r[sFold] > 0 {
		m["exact.add_ms"] = ms(r[sFold] - r[sContribute])
		m["exact.round_ms"] = ms(r[sReport] - r[sCommit])
	}
	if t.fanouts > 0 {
		m["parallel.helpers_per_fanout"] = float64(t.helpers) / float64(t.fanouts)
	}
	if r[sFleetClients] > 0 {
		m["fleet.survivor_ratio"] = float64(r[sFleetSurvivors]) / float64(r[sFleetClients])
	}
	return m
}
