// Command boflfleet runs virtual-time federated rounds over a generated
// heterogeneous device fleet: a discrete-event simulation (internal/fleet) of
// the hierarchical aggregation tree, where a million clients train, straggle,
// drop out and upload in simulated seconds while the process itself uses
// O(tree-depth · model) memory and finishes in wall-clock seconds.
//
// Usage:
//
//	boflfleet -clients 1000000 -dim 4096 -fanout 64 -rounds 3
//	boflfleet -clients 10000 -fanout 32 -chaos-drop 0.05 -ledger fleet.jsonl
//
// The chaos seed resolves, in order: -chaos-seed flag, BOFL_CHAOS_SEED env,
// then -seed — the same replay convention as the chaos test suite.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strconv"
	"time"

	"bofl/internal/device"
	"bofl/internal/faultinject"
	"bofl/internal/fl"
	"bofl/internal/fleet"
	"bofl/internal/obs"
	"bofl/internal/obs/ledger"
	"bofl/internal/parallel"
)

// effectiveWorkers resolves the -workers flag the way the engine does: 0
// means the shared parallel pool width.
func effectiveWorkers(w int) int {
	if w > 0 {
		return w
	}
	return parallel.Workers()
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "boflfleet:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("boflfleet", flag.ContinueOnError)
	var (
		clients  = fs.Int("clients", 100_000, "simulated fleet size")
		dim      = fs.Int("dim", 1024, "model dimension")
		fanout   = fs.Int("fanout", 32, "aggregation-tree fanout")
		jobs     = fs.Int("jobs", 5, "local minibatches per client per round")
		rounds   = fs.Int("rounds", 3, "virtual-time rounds to simulate")
		seed     = fs.Int64("seed", 1, "population sampling / trace seed")
		workers  = fs.Int("workers", 0, "subtree shards simulated concurrently (0 = parallel pool width)")
		chaos    = fs.Int64("chaos-seed", 0, "availability & fault draw seed (0 = BOFL_CHAOS_SEED env, then -seed)")
		workload = fs.String("workload", "vit", "workload anchoring the board classes: vit, resnet50, lstm")
		aggName  = fs.String("aggregator", "fedavg", "aggregation strategy (fedavg only: simulated clients report no step count or control variate)")

		tierQuorum = fs.Float64("tier-quorum", 0, "per-aggregator child quorum; a node below it drops its whole subtree")
		quorum     = fs.Float64("quorum", 0, "round-level survivor fraction required to commit")
		deadline   = fs.Float64("deadline", 0, "per-client round deadline in virtual seconds (0 = derived)")
		ratio      = fs.Float64("deadline-ratio", 0, "derived-deadline scale over the slowest client (0 = 1.25)")
		hop        = fs.Float64("tier-latency", 0.05, "virtual seconds charged per aggregation hop")

		chaosDrop     = fs.Float64("chaos-drop", 0, "per-round probability a client vanishes before training")
		chaosCrash    = fs.Float64("chaos-crash", 0, "per-round probability a client trains but dies before uploading")
		chaosStraggle = fs.Float64("chaos-straggle", 0, "per-round probability a client straggles")
		chaosStragMax = fs.Duration("chaos-straggle-max", 2*time.Minute, "maximum injected straggle (virtual)")

		ledgerPath = fs.String("ledger", "", "journal round/partial/subtree-drop events to this JSONL file (empty = off)")
		ledgerCap  = fs.Int("ledger-cap", 4096, "max journaled events per round (0 = unlimited); suppressed events are counted")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// A simulated client's update (fleet.UpdateFn) returns parameters and an
	// example count only — no local step count for FedNova, no control
	// variate for SCAFFOLD — so the engine folds FedAvg. Validate through the
	// shared registry so unknown names get the same error the full server
	// would give.
	if agg, err := fl.NewAggregator(*aggName, 0); err != nil {
		return err
	} else if agg.Name() != fl.AlgFedAvg {
		return fmt.Errorf("-aggregator %s not supported by the fleet engine: simulated clients report no step count or control variate (use cmd/flserver for the plugin layer)", agg.Name())
	}
	w := device.Workload(*workload)
	classes, err := device.StandardFleetClasses(w)
	if err != nil {
		return err
	}
	pop, err := device.NewPopulation(*seed, classes)
	if err != nil {
		return err
	}
	chaosSeed := *chaos
	if chaosSeed == 0 {
		if env := os.Getenv("BOFL_CHAOS_SEED"); env != "" {
			v, err := strconv.ParseInt(env, 10, 64)
			if err != nil {
				return fmt.Errorf("BOFL_CHAOS_SEED=%q: %w", env, err)
			}
			chaosSeed = v
		} else {
			chaosSeed = *seed
		}
	}
	var policy faultinject.Policy
	if *chaosDrop > 0 || *chaosCrash > 0 || *chaosStraggle > 0 {
		policy = &faultinject.Plan{
			Seed: chaosSeed,
			Default: faultinject.Profile{
				Drop: *chaosDrop, Crash: *chaosCrash,
				Straggle: *chaosStraggle, StraggleMax: *chaosStragMax,
			},
		}
	}

	var led *ledger.Ledger
	if *ledgerPath != "" {
		led = ledger.New(0)
		led.SetRoundCap(*ledgerCap)
		f, err := os.Create(*ledgerPath)
		if err != nil {
			return fmt.Errorf("ledger sink: %w", err)
		}
		defer func() {
			_ = led.Flush()
			_ = f.Close()
		}()
		led.SetSink(f)
	}

	eng, err := fleet.New(fleet.Config{
		Clients: *clients, Dim: *dim, Fanout: *fanout, Jobs: *jobs,
		Seed: *seed, ChaosSeed: chaosSeed, Workers: *workers,
		TierQuorum: *tierQuorum, Quorum: *quorum,
		DeadlineSeconds: *deadline, DeadlineRatio: *ratio,
		TierLatencySeconds: *hop,
		Population:         pop, Fault: policy,
		Sink: obs.Nop, Ledger: led,
	})
	if err != nil {
		return err
	}
	fmt.Printf("fleet: %d clients (%d classes), model dim %d, tree fanout %d depth %d, deadline %.1fs, chaos seed %d\n",
		*clients, len(classes), *dim, *fanout, eng.Depth(), eng.Deadline(), chaosSeed)
	shards, span := eng.Shards()
	fmt.Printf("parallel: %d workers over %d subtree shards of %d leaves (model, stats and ledger are identical at any -workers)\n",
		effectiveWorkers(*workers), shards, span)
	fmt.Printf("aggregator working set: %d KiB (O(depth·params), independent of fleet size)\n", eng.SpineBytes()>>10)

	var virtual, energy float64
	start := time.Now()
	for r := 0; r < *rounds; r++ {
		st, err := eng.RunRound()
		if err != nil {
			return err
		}
		virtual += st.VirtualSeconds
		energy += st.EnergyJ
		fmt.Printf("round %3d: %7d/%d survived (%d unavailable, %d crashed, %d misses, %d subtree drops), %d partials %.1f MiB, %8.1fs virtual, %10.0f J\n",
			st.Round, st.Survivors, st.Clients,
			st.Unavailable, st.Crashed, st.DeadlineMisses, st.SubtreeDrops,
			st.Partials, float64(st.WireBytes)/(1<<20), st.VirtualSeconds, st.EnergyJ)
	}
	wall := time.Since(start)
	fmt.Printf("done: %d rounds, %.0f virtual seconds (%.0fx real time), %.1f kJ fleet energy, wall %v, %d workers, %.0f clients/s\n",
		*rounds, virtual, virtual/wall.Seconds(), energy/1e3, wall.Round(time.Millisecond),
		effectiveWorkers(*workers), float64(*clients)*float64(*rounds)/wall.Seconds())
	fmt.Printf("model: root hash fnv64a:%016x over %d params (bit-identical at any -workers / GOMAXPROCS)\n",
		modelHash(eng.Global()), *dim)
	if led != nil {
		fmt.Printf("ledger: %d events journaled (%d suppressed by -ledger-cap %d) -> %s\n",
			led.Len(), led.RoundDropped(), *ledgerCap, *ledgerPath)
	}
	return nil
}

// modelHash digests the committed global model bit-exactly: FNV-64a over the
// little-endian IEEE-754 encoding of every parameter. Runs at any -workers
// setting must print the same hash for the same flags and chaos seed.
func modelHash(params []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range params {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(p))
		h.Write(b[:])
	}
	return h.Sum64()
}
