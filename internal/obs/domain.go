package obs

import (
	"bofl/internal/ilp"
	"bofl/internal/parallel"
)

// Canonical BoFL metric names. Instrumented packages refer to these
// constants so the DESIGN.md metric table, the CI grep and the exposition
// stay in lockstep. Span names are the *_seconds histograms minus the
// suffix (Telemetry.Span appends it).
const (
	// Controller (internal/core).
	MetricRounds          = "bofl_rounds_total"                // counter: executed controller rounds
	MetricRoundEnergy     = "bofl_round_energy_joules"         // histogram: per-round energy
	MetricRoundDuration   = "bofl_round_duration_seconds"      // histogram: per-round busy time (simulated seconds)
	MetricDeadlineMisses  = "bofl_deadline_miss_total"         // counter: rounds past their deadline
	MetricControllerPhase = "bofl_controller_phase"            // gauge: 1 random-explore, 2 pareto-construct, 3 exploit
	MetricFrontSize       = "bofl_pareto_front_size"           // gauge: observed Pareto-front cardinality
	MetricHypervolume     = "bofl_hypervolume"                 // gauge: dominated hypervolume vs worst-observed reference
	MetricPhaseEnergy     = "bofl_phase_energy_joules_total"   // counter{phase}: energy accumulated per controller phase
	MetricPhaseLatency    = "bofl_phase_latency_seconds_total" // counter{phase}: busy time accumulated per phase
	MetricReadapts        = "bofl_readapts_total"              // counter: drift-triggered re-explorations

	// MBO (internal/mobo). Span-backed *_seconds histograms.
	MetricMBORuns        = "bofl_mbo_runs_total"        // counter: between-round MBO computations
	MetricMBOSuggestions = "bofl_mbo_suggestions_total" // counter: candidates suggested
	MetricAcqBest        = "bofl_acq_best_ehvi"         // gauge: acquisition value of the last chosen candidate
	SpanGPFit            = "bofl_gp_fit"                // span: one surrogate hyperparameter fit
	SpanEHVIScan         = "bofl_ehvi_scan"             // span: one SuggestBatch call that scans, its k* cache build, believer chain and every pick's scan included; a call that reuses an unchanged batch records none
	SpanILPSolve         = "bofl_ilp_solve"             // span: one exploitation plan solve
	SpanMBO              = "bofl_mbo"                   // span: one BetweenRounds computation
	SpanRound            = "bofl_round_wall"            // span: one controller round (wall time)

	// Worker pool (internal/parallel), read-on-scrape.
	MetricPoolWorkers     = "bofl_pool_workers"               // gauge: configured width
	MetricPoolBusy        = "bofl_pool_helpers_busy"          // gauge: helper tokens checked out (queue depth proxy)
	MetricPoolUtilization = "bofl_pool_utilization"           // gauge: busy fraction of the helper pool
	MetricPoolFanouts     = "bofl_pool_fanouts_total"         // counter: fan-outs that used helpers
	MetricPoolInline      = "bofl_pool_inline_total"          // counter: fan-outs that ran inline
	MetricPoolAcquires    = "bofl_pool_helper_acquires_total" // counter: helper tokens handed out

	// ILP solver (internal/ilp), read-on-scrape.
	MetricILPSolves     = "bofl_ilp_solves_total"     // counter: completed Solve calls
	MetricILPInfeasible = "bofl_ilp_infeasible_total" // counter: solves returning infeasible
	MetricILPNodes      = "bofl_ilp_nodes_total"      // counter: branch-and-bound nodes expanded

	// FL orchestration (internal/fl).
	MetricFLRounds          = "bofl_fl_rounds_total"           // counter: orchestrated FL rounds
	MetricFLDropouts        = "bofl_fl_dropouts_total"         // counter: participants dropped from aggregation
	MetricFLRoundErrors     = "bofl_fl_round_errors_total"     // counter: participant round failures seen by the server
	MetricFLRetries         = "bofl_fl_retries_total"          // counter: participant attempt retries
	MetricFLStragglerStrips = "bofl_fl_straggler_strips_total" // counter: stragglers stripped from aggregation
	MetricFLQuorumRounds    = "bofl_fl_quorum_rounds_total"    // counter: rounds finalized below full participation via quorum
	MetricFLQuarantines     = "bofl_fl_quarantines_total"      // counter: clients quarantined for corrupt frames
	MetricFLHTTPErrors      = "bofl_fl_http_errors_total"      // counter{endpoint,kind}: transport/decode/status failures
	MetricFLWireTx          = "bofl_fl_wire_tx_bytes_total"    // counter{codec}: serialized bytes sent on the FL wire
	MetricFLWireRx          = "bofl_fl_wire_rx_bytes_total"    // counter{codec}: serialized bytes received on the FL wire
	SpanFLRound             = "fl_round"                       // span: one server-orchestrated round
	SpanFLSelect            = "fl_select"                      // span: participant selection
	SpanFLConfigure         = "fl_configure"                   // span: deadline assignment + request build
	SpanFLExecute           = "fl_execute"                     // span: parallel dispatch until last report
	SpanFLReport            = "fl_report"                      // span: commit of the normalized global model
	SpanFLFold              = "fl_fold"                        // span: one streaming FedAvg fold of an arriving update
	SpanFLRetry             = "fl_retry"                       // span: one backoff wait before a retried attempt
	SpanFLAttempt           = "fl_attempt"                     // span: one fault-injected participant attempt
	MetricFLPartials        = "bofl_fl_partials_total"         // counter: tier partial aggregates forwarded upward
	MetricFLSubtreeDrops    = "bofl_fl_subtree_drops_total"    // counter: subtrees discarded for missing per-tier quorum
	SpanFLTierFold          = "fl_tier_fold"                   // span: one tier aggregator closing a group into its parent
	SpanClientRound         = "fl_client_round"                // span: one client-side training round
	SpanClientWindow        = "fl_client_config_window"        // span: client-side MBO window
	EventFLFault            = "fl_fault"                       // event: one failed attempt's verdict, trace-annotated
	EventFLQuarantine       = "fl_quarantine"                  // event: a client excluded for shipping a corrupt frame
	EventExemplar           = "exemplar"                       // event: histogram observation ↔ trace-ID jump link

	// Fleet simulator (internal/fleet), virtual-time quantities.
	MetricFleetClients  = "bofl_fleet_clients_total"         // counter: simulated clients dispatched across rounds
	MetricFleetVirtualS = "bofl_fleet_virtual_seconds_total" // counter: virtual round time accumulated by the simulator
	MetricFleetEnergy   = "bofl_fleet_energy_joules_total"   // counter: simulated fleet energy across rounds
	MetricFleetMisses   = "bofl_fleet_deadline_misses_total" // counter: simulated clients past the round deadline
	MetricFleetDropped  = "bofl_fleet_dropped_total"         // counter: simulated clients unavailable or failed
)

// NewBoFL builds a Telemetry with every canonical BoFL instrument
// pre-registered (so a scrape lists the full series catalog even before the
// first round) and the worker-pool and ILP read-on-scrape bridges installed.
func NewBoFL(clock Clock) *Telemetry {
	t := New(clock)
	t.SetBuckets(MetricRoundEnergy, EnergyBuckets)
	r := t.Registry

	r.Counter(MetricRounds, "Executed controller rounds.")
	r.Histogram(MetricRoundEnergy, "Per-round training energy in Joules.", EnergyBuckets)
	r.Histogram(MetricRoundDuration, "Per-round busy time in (simulated) seconds.", DurationBuckets)
	r.Counter(MetricDeadlineMisses, "Rounds that finished past their deadline.")
	r.Gauge(MetricControllerPhase, "Controller phase: 1 random-explore, 2 pareto-construct, 3 exploit.")
	r.Gauge(MetricFrontSize, "Observed Pareto-front size.")
	r.Gauge(MetricHypervolume, "Dominated hypervolume against the worst-observed reference point.")
	r.Counter(MetricReadapts, "Drift-triggered re-explorations.")

	r.Counter(MetricMBORuns, "Between-round MBO computations.")
	r.Counter(MetricMBOSuggestions, "Candidates suggested by the MBO.")
	r.Gauge(MetricAcqBest, "Acquisition value (EHVI) of the last chosen candidate.")
	r.Histogram(SpanGPFit+"_seconds", "GP surrogate hyperparameter fit duration.", DurationBuckets)
	r.Histogram(SpanEHVIScan+"_seconds", "Duration of a SuggestBatch call that scans: k* cache build, believer chain and candidate scans. A call that reuses an unchanged batch is not recorded.", DurationBuckets)
	r.Histogram(SpanILPSolve+"_seconds", "Exploitation ILP solve duration.", DurationBuckets)
	r.Histogram(SpanMBO+"_seconds", "BetweenRounds MBO wall time.", DurationBuckets)
	r.Histogram(SpanRound+"_seconds", "Controller round wall time.", DurationBuckets)

	r.GaugeFunc(MetricPoolWorkers, "Configured worker-pool width.",
		func() float64 { return float64(parallel.Stats().Workers) })
	r.GaugeFunc(MetricPoolBusy, "Helper goroutine tokens currently checked out.",
		func() float64 { return float64(parallel.Stats().HelpersBusy) })
	r.GaugeFunc(MetricPoolUtilization, "Busy fraction of the helper pool (0-1).",
		func() float64 { return parallel.Stats().Utilization() })
	r.CounterFunc(MetricPoolFanouts, "Fan-outs that acquired at least one helper.",
		func() float64 { return float64(parallel.Stats().Fanouts) })
	r.CounterFunc(MetricPoolInline, "Fan-outs that ran inline on the caller.",
		func() float64 { return float64(parallel.Stats().InlineRuns) })
	r.CounterFunc(MetricPoolAcquires, "Helper tokens handed out across all fan-outs.",
		func() float64 { return float64(parallel.Stats().HelperAcquires) })

	r.CounterFunc(MetricILPSolves, "Completed exploitation ILP solves.",
		func() float64 { return float64(ilp.Stats().Solves) })
	r.CounterFunc(MetricILPInfeasible, "ILP solves that returned infeasible.",
		func() float64 { return float64(ilp.Stats().Infeasible) })
	r.CounterFunc(MetricILPNodes, "Branch-and-bound nodes expanded across all solves.",
		func() float64 { return float64(ilp.Stats().Nodes) })

	r.Counter(MetricFLRounds, "Orchestrated FL rounds.")
	r.Counter(MetricFLDropouts, "Participants dropped from aggregation.")
	r.Counter(MetricFLRoundErrors, "Participant round failures observed by the server.")
	r.Counter(MetricFLRetries, "Participant round attempts retried after a failure.")
	r.Counter(MetricFLStragglerStrips, "Stragglers stripped from aggregation after the attempt timeout.")
	r.Counter(MetricFLQuorumRounds, "Rounds finalized below full participation under a quorum.")
	r.Counter(MetricFLQuarantines, "Clients quarantined for shipping corrupt frames.")
	r.Counter(MetricFLHTTPErrors, "FL HTTP transport, decode and status failures.")
	r.Counter(MetricFLWireTx, "Serialized bytes sent on the FL wire, labeled by codec.")
	r.Counter(MetricFLWireRx, "Serialized bytes received on the FL wire, labeled by codec.")
	r.Counter(MetricFLPartials, "Tier partial aggregates forwarded toward the root.")
	r.Counter(MetricFLSubtreeDrops, "Subtrees discarded for missing the per-tier quorum.")
	r.Histogram(SpanFLFold+"_seconds", "Streaming FedAvg fold duration per arriving update.", DurationBuckets)
	r.Histogram(SpanFLTierFold+"_seconds", "Tier aggregator group close: quorum check, encode the partial frame to count its bytes, merge into the parent.", DurationBuckets)
	r.Histogram(SpanFLRetry+"_seconds", "Backoff wait before a retried participant attempt.", DurationBuckets)
	r.Histogram(SpanFLAttempt+"_seconds", "One fault-injected participant attempt, retries excluded.", DurationBuckets)

	r.Counter(MetricFleetClients, "Simulated clients dispatched across fleet rounds.")
	r.Counter(MetricFleetVirtualS, "Virtual round seconds accumulated by the fleet simulator.")
	r.Counter(MetricFleetEnergy, "Simulated fleet energy in Joules.")
	r.Counter(MetricFleetMisses, "Simulated clients finishing past the round deadline.")
	r.Counter(MetricFleetDropped, "Simulated clients unavailable, crashed or dropped.")

	RegisterRuntime(r)

	return t
}
