package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"bofl/internal/device"
	"bofl/internal/faultinject"
	"bofl/internal/fleet"
)

// Shape of the fleet workload.
const (
	fleetDim    = 256
	fleetFanout = 64
)

// fleetWorkers is the engine's shard worker count: nproc.
func fleetWorkers() int { return runtime.GOMAXPROCS(0) }

// fleetWorkload is fleet.Engine over a heterogeneous population with a
// seeded fault plan, a tier quorum and a non-periodic update function, so
// leaf pricing, chaos draws, the sharded spine and the generic exact adds
// carry the round (the DefaultUpdate memoization stays off). One iteration
// is one round, started from the initial model, so every round folds the
// same values.
type fleetWorkload struct {
	eng  *fleet.Engine
	init []float64
	pr   *probe
}

// pinnedPlan draws every round's faults as round 1's: the same clients fail
// the same way each round, so round energy and deadline misses are fixed
// outcomes of the seed and the per-round work is stationary.
type pinnedPlan struct{ plan *faultinject.Plan }

func (p pinnedPlan) Decide(pt faultinject.Point) faultinject.Decision {
	pt.Round = 1
	return p.plan.Decide(pt)
}

// fleetUpdate returns the workload's local update: an affine map whose
// coefficients come from a hash of the client index and the seed, so no two
// clients share a cycle. Scales and shifts centre on 1 and 0, keeping the
// global model's magnitude steady across rounds.
func fleetUpdate(seed int64) fleet.UpdateFn {
	salt := uint64(seed) * 0x9E3779B97F4A7C15
	return func(i int, global, out []float64) int {
		h := mix64(uint64(i) ^ salt)
		scale := 1 + (float64(h&0xFFFF)/0xFFFF-0.5)/32
		shift := (float64(h>>16&0xFFFF)/0xFFFF - 0.5) / 32
		for j, v := range global {
			out[j] = v*scale + shift
		}
		return 1 + int(h>>32%29)
	}
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

func fleetConfig(seed int64, clients, workers int) (fleet.Config, error) {
	classes, err := device.StandardFleetClasses(device.ViT)
	if err != nil {
		return fleet.Config{}, err
	}
	// Availability draws change every round; the pinned fault plan's drops
	// stand in for unavailable devices instead.
	for i := range classes {
		classes[i].Availability = 1
	}
	pop, err := device.NewPopulation(seed, classes)
	if err != nil {
		return fleet.Config{}, err
	}
	plan := &faultinject.Plan{
		Seed:    seed ^ 0x5DEECE66D,
		Default: faultinject.Profile{Drop: 0.03, Crash: 0.01, Timeout: 0.01},
	}
	return fleet.Config{
		Clients: clients, Dim: fleetDim, Fanout: fleetFanout, Jobs: 1,
		Seed: seed, Workers: workers, TierQuorum: 0.5,
		Population: pop, Fault: pinnedPlan{plan}, Update: fleetUpdate(seed),
	}, nil
}

func newFleet(seed int64, clients, workers int, pr *probe) (*fleetWorkload, error) {
	cfg, err := fleetConfig(seed, clients, workers)
	if err != nil {
		return nil, err
	}
	if pr != nil {
		update := cfg.Update
		cfg.Update = func(i int, global, out []float64) int {
			if !pr.on.Load() {
				return update(i, global, out)
			}
			t0 := time.Now()
			w := update(i, global, out)
			pr.since(sUpdate, t0)
			pr.add(sUpdateCalls, 1)
			return w
		}
		cfg.Sink = newSpanSink(pr, nil)
	}
	eng, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	return &fleetWorkload{eng: eng, init: eng.Global(), pr: pr}, nil
}

func (w *fleetWorkload) iterate(int) (outcome, error) {
	traced := w.pr != nil && w.pr.on.Load()
	var cpu0 time.Duration
	if traced {
		cpu0 = cpuTime()
	}
	if err := w.eng.SetGlobal(w.init); err != nil {
		return outcome{}, err
	}
	st, err := w.eng.RunRound()
	if err != nil {
		return outcome{}, err
	}
	if traced {
		w.pr.add(sEngineCPU, int64(cpuTime()-cpu0))
		shards, _ := w.eng.Shards()
		w.pr.add(sFleetPartials, int64(st.Partials))
		w.pr.add(sFleetWire, st.WireBytes)
		w.pr.add(sFleetSurvivors, int64(st.Survivors))
		w.pr.add(sFleetClients, int64(st.Clients))
		w.pr.add(sFleetDrops, int64(st.SubtreeDrops))
		w.pr.add(sFleetShards, int64(shards))
	}
	return outcome{energyJ: st.EnergyJ, scheduled: st.Clients, missed: st.DeadlineMisses}, nil
}

// check requires the next round's committed model to be bit-identical to the
// Engine.FlatRound oracle: one flat exact fold over the same survivors, with
// no tree, partial frames or shards.
func (w *fleetWorkload) check(outcome) error {
	if err := w.eng.SetGlobal(w.init); err != nil {
		return err
	}
	want, weight, err := w.eng.FlatRound()
	if err != nil {
		return err
	}
	st, err := w.eng.RunRound()
	if err != nil {
		return err
	}
	if st.SubtreeDrops != 0 || st.TotalWeight != weight {
		return fmt.Errorf("fleet: round %d dropped %d subtrees, weight %d, oracle weight %d",
			st.Round, st.SubtreeDrops, st.TotalWeight, weight)
	}
	for j, v := range w.eng.Global() {
		if math.Float64bits(v) != math.Float64bits(want[j]) {
			return fmt.Errorf("fleet: coordinate %d committed %v, flat oracle %v", j, v, want[j])
		}
	}
	return nil
}

func (w *fleetWorkload) close() {}
