package fleet

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"bofl/internal/device"
	"bofl/internal/exact"
	"bofl/internal/faultinject"
	"bofl/internal/obs/ledger"
	"bofl/internal/simclock"
)

// chaosSeed resolves the suite's chaos seed, honoring the repo-wide
// BOFL_CHAOS_SEED replay convention (see internal/fl/chaos_test.go).
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	seed := int64(20260807)
	if env := os.Getenv("BOFL_CHAOS_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("BOFL_CHAOS_SEED=%q: %v", env, err)
		}
		seed = v
	}
	t.Logf("chaos seed %d (replay with BOFL_CHAOS_SEED=%d)", seed, seed)
	return seed
}

// bitsEqual compares float64 slices bit-for-bit.
func bitsEqual(t *testing.T, got, want []float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for j := range got {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s: [%d] %x (%v) != %x (%v)", label, j,
				math.Float64bits(got[j]), got[j], math.Float64bits(want[j]), want[j])
		}
	}
}

// uniformPopulation is a single always-available jitter-free class, so the
// only losses are the ones a test scripts.
func uniformPopulation(t *testing.T, seed int64) *device.Population {
	t.Helper()
	pop, err := device.NewPopulation(seed, []device.FleetClass{{
		Name: "uniform", SecPerJob: 0.1,
		PowerBusyW: 2, PowerIdleW: 0.2,
		UplinkBps: 1e6, DownlinkBps: 4e6,
		Availability: 1, Share: 1,
	}})
	if err != nil {
		t.Fatalf("uniform population: %v", err)
	}
	return pop
}

// TestTreeMatchesFlatRound: the committed tree aggregate is bit-identical to
// the flat in-order exact fold over the same survivors, across fanouts and
// fleet sizes, with organic availability dropout in play.
func TestTreeMatchesFlatRound(t *testing.T) {
	for _, n := range []int{1, 7, 64, 1000, 5000} {
		for _, fanout := range []int{2, 8, 64} {
			e, err := New(Config{
				Clients: n, Dim: 32, Fanout: fanout, Jobs: 2, Seed: 42,
			})
			if err != nil {
				t.Fatalf("n=%d fanout=%d: %v", n, fanout, err)
			}
			flat, flatW, err := e.FlatRound()
			if err != nil {
				t.Fatalf("n=%d fanout=%d flat: %v", n, fanout, err)
			}
			stats, err := e.RunRound()
			if err != nil {
				t.Fatalf("n=%d fanout=%d round: %v", n, fanout, err)
			}
			bitsEqual(t, e.Global(), flat, "tree vs flat")
			if stats.TotalWeight != flatW {
				t.Fatalf("n=%d fanout=%d: weight %d vs flat %d", n, fanout, stats.TotalWeight, flatW)
			}
			if stats.Survivors+stats.Dropped != n {
				t.Fatalf("n=%d: survivors %d + dropped %d != clients", n, stats.Survivors, stats.Dropped)
			}
		}
	}
}

// TestMillionClientRound is the scale acceptance check: one virtual-time
// round over 1M simulated clients completes, the committed root is
// bit-identical to the flat fold, and the accumulator working set is the
// O(depth·params) spine — not O(clients) — of memory.
func TestMillionClientRound(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-client round skipped in -short")
	}
	const n, dim, fanout = 1_000_000, 8, 64
	e, err := New(Config{Clients: n, Dim: dim, Fanout: fanout, Jobs: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if e.Depth() != 3 { // 64^4 ≥ 1M > 64^3
		t.Fatalf("depth = %d, want 3", e.Depth())
	}
	perVec := exact.VecBytes(dim)
	wantSpine := int64(e.Depth()+2) * perVec // tiers 0..depth plus the root
	if e.SpineBytes() != wantSpine {
		t.Fatalf("spine = %d bytes, want %d (depth %d)", e.SpineBytes(), wantSpine, e.Depth())
	}
	// The whole accumulator working set must be a few hundred KB, regardless
	// of the million clients below it.
	if e.SpineBytes() > 1<<20 {
		t.Fatalf("spine %d bytes is not bounded", e.SpineBytes())
	}

	flat, flatW, err := e.FlatRound()
	if err != nil {
		t.Fatal(err)
	}
	stats, err := e.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, e.Global(), flat, "1M tree vs flat")
	if stats.TotalWeight != flatW {
		t.Fatalf("weight %d vs flat %d", stats.TotalWeight, flatW)
	}
	if stats.Survivors == 0 || stats.Survivors > n {
		t.Fatalf("implausible survivors %d", stats.Survivors)
	}
	if stats.Partials < n/fanout {
		t.Fatalf("only %d partials for %d tier-0 groups", stats.Partials, n/fanout)
	}
	if stats.VirtualSeconds <= 0 || stats.EnergyJ <= 0 {
		t.Fatalf("degenerate round: virtual %vs energy %vJ", stats.VirtualSeconds, stats.EnergyJ)
	}
	t.Logf("1M round: survivors=%d partials=%d wire=%dMiB virtual=%.0fs energy=%.0fkJ spine=%dKiB",
		stats.Survivors, stats.Partials, stats.WireBytes>>20,
		stats.VirtualSeconds, stats.EnergyJ/1e3, stats.SpineBytes>>10)
}

// TestScriptedSubtreeDropRenormalizes: killing 2 of 4 children of one tier-0
// node under TierQuorum 0.75 discards the whole subtree — including its
// healthy leaves — and the commit is bit-identical to the batch exact fold
// over the surviving 60 clients. Replaying the identical config reproduces
// the identical bytes.
func TestScriptedSubtreeDropRenormalizes(t *testing.T) {
	const n, dim, fanout = 64, 16, 4
	script := faultinject.Scripted{}
	for _, leaf := range []int{16, 17} { // node 4 spans [16,19]: 2/4 < 0.75
		script[faultinject.Point{
			Layer: faultinject.LayerFleet, Client: device.ClientID(leaf),
			Round: 1, Attempt: drawChaos,
		}] = faultinject.Decision{Drop: true}
	}
	cs := chaosSeed(t)
	mk := func() *Engine {
		lg := ledger.New(0)
		e, err := New(Config{
			Clients: n, Dim: dim, Fanout: fanout, Jobs: 1,
			Seed: 11, ChaosSeed: cs, TierQuorum: 0.75,
			Population: uniformPopulation(t, 11),
			Fault:      script, Ledger: lg,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	e := mk()
	init := e.Global()
	stats, err := e.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if stats.SubtreeDrops != 1 || stats.SubtreeDropLeaves != 2 {
		t.Fatalf("subtree drops = %d (healthy leaves lost %d), want 1 (2)", stats.SubtreeDrops, stats.SubtreeDropLeaves)
	}
	if stats.Survivors != n-4 || stats.Dropped != 4 {
		t.Fatalf("survivors %d dropped %d, want 60/4", stats.Survivors, stats.Dropped)
	}

	// Batch reference over the survivors: everyone outside the dropped span.
	acc := exact.NewVec(dim)
	out := make([]float64, dim)
	var w int64
	for i := 0; i < n; i++ {
		if i >= 16 && i <= 19 {
			continue
		}
		ww := DefaultUpdate(i, init, out)
		acc.AddScaled(float64(ww), out)
		w += int64(ww)
	}
	want := make([]float64, dim)
	acc.RoundTo(want)
	for j := range want {
		want[j] /= float64(w)
	}
	bitsEqual(t, e.Global(), want, "subtree drop vs batch over survivors")
	if stats.TotalWeight != w {
		t.Fatalf("weight %d, want %d", stats.TotalWeight, w)
	}

	// The ledger names the dropped node.
	var drops, partials int
	for _, ev := range e.cfg.Ledger.Events() {
		switch ev.Kind {
		case ledger.KindSubtreeDrop:
			drops++
			if ev.Tier != 0 || ev.Node != 4 || ev.Survivors != 2 || ev.Selected != 4 {
				t.Fatalf("subtree_drop event = %+v", ev)
			}
		case ledger.KindPartial:
			partials++
			if ev.Weight <= 0 || ev.WireTxBytes <= 0 {
				t.Fatalf("partial event missing accounting: %+v", ev)
			}
		}
	}
	if drops != 1 || partials != stats.Partials {
		t.Fatalf("ledger: %d drops, %d partials (stats %d)", drops, partials, stats.Partials)
	}

	// Same config, same seeds → identical bytes and identical stats.
	e2 := mk()
	stats2, err := e2.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, e2.Global(), e.Global(), "replay")
	if stats2 != stats {
		t.Fatalf("replay stats diverge:\n%+v\n%+v", stats2, stats)
	}
}

// TestChaosSeedReplayAndDivergence: a probabilistic fault plan replays
// identically under the same chaos seed and diverges under a different one.
func TestChaosSeedReplayAndDivergence(t *testing.T) {
	plan := &faultinject.Plan{
		Seed:    4242,
		Default: faultinject.Profile{Drop: 0.05, Crash: 0.05, Straggle: 0.2, StraggleMin: time.Second, StraggleMax: 5 * time.Second},
	}
	run := func(chaos int64) ([]float64, []RoundStats) {
		e, err := New(Config{
			Clients: 500, Dim: 8, Fanout: 8, Jobs: 2,
			Seed: 5, ChaosSeed: chaos, Fault: plan,
		})
		if err != nil {
			t.Fatal(err)
		}
		var all []RoundStats
		for r := 0; r < 3; r++ {
			st, err := e.RunRound()
			if err != nil {
				t.Fatalf("chaos=%d round %d: %v", chaos, r, err)
			}
			all = append(all, st)
		}
		return e.Global(), all
	}
	cs := chaosSeed(t)
	gA, sA := run(cs)
	gB, sB := run(cs)
	bitsEqual(t, gA, gB, "same chaos seed")
	for r := range sA {
		if sA[r] != sB[r] {
			t.Fatalf("round %d stats diverge under same seed:\n%+v\n%+v", r, sA[r], sB[r])
		}
	}
	gC, _ := run(cs + 7919)
	same := true
	for j := range gA {
		if math.Float64bits(gA[j]) != math.Float64bits(gC[j]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different chaos seeds produced identical models")
	}
}

// TestVirtualTime: the round advances the virtual clock by exactly its
// simulated duration, and per-tier hop latency is charged per level.
func TestVirtualTime(t *testing.T) {
	clock := simclock.NewSim(time.Unix(0, 0).UTC())
	e, err := New(Config{
		Clients: 100, Dim: 4, Fanout: 10, Jobs: 3,
		Seed: 3, Population: uniformPopulation(t, 3),
		TierLatencySeconds: 0.5, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := clock.Now()
	stats, err := e.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if got := clock.Now().Sub(start); got != time.Duration(stats.VirtualSeconds*float64(time.Second)) {
		t.Fatalf("clock advanced %v, stats say %vs", got, stats.VirtualSeconds)
	}
	// uniform class: compute = 3·0.1s, downlink (160B/4MBps) + uplink
	// (160B/1MBps) are sub-millisecond; two tiers + root commit hop charge
	// 3×0.5s. Duration must sit just above 1.8s.
	if stats.VirtualSeconds < 1.8 || stats.VirtualSeconds > 1.9 {
		t.Fatalf("virtual duration %vs outside expected envelope", stats.VirtualSeconds)
	}
	if stats.DeadlineSeconds != e.Deadline() {
		t.Fatalf("deadline mismatch: %v vs %v", stats.DeadlineSeconds, e.Deadline())
	}
}

// TestQuorumAbort: a round whose survivors fall below the round-level quorum
// aborts without touching the model.
func TestQuorumAbort(t *testing.T) {
	script := faultinject.Scripted{}
	for i := 0; i < 10; i++ {
		script[faultinject.Point{
			Layer: faultinject.LayerFleet, Client: device.ClientID(i),
			Round: 1, Attempt: drawChaos,
		}] = faultinject.Decision{Drop: true}
	}
	e, err := New(Config{
		Clients: 16, Dim: 4, Fanout: 4, Jobs: 1,
		Seed: 8, Population: uniformPopulation(t, 8),
		Fault: script, Quorum: 0.75,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := e.Global()
	if _, err := e.RunRound(); err == nil {
		t.Fatal("expected quorum abort")
	}
	bitsEqual(t, e.Global(), before, "model after abort")
}

// TestConfigValidation rejects malformed configs.
func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Clients: 0, Dim: 4, Fanout: 2, Jobs: 1},
		{Clients: 10, Dim: 0, Fanout: 2, Jobs: 1},
		{Clients: 10, Dim: 4, Fanout: 1, Jobs: 1},
		{Clients: 10, Dim: 4, Fanout: 2, Jobs: 0},
		{Clients: 10, Dim: 4, Fanout: 2, Jobs: 1, TierQuorum: 1.5},
		{Clients: 10, Dim: 4, Fanout: 2, Jobs: 1, Quorum: -0.1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestPopulationDeterminism: client specs are pure functions of (seed, idx)
// and the class mix covers every archetype at modest fleet sizes.
func TestPopulationDeterminism(t *testing.T) {
	classes, err := device.StandardFleetClasses(device.ViT)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := device.NewPopulation(77, classes)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := device.NewPopulation(77, classes)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for i := 0; i < 5000; i++ {
		a, b := p1.Client(i), p2.Client(i)
		if a.Class.Name != b.Class.Name || a.SecPerJob != b.SecPerJob ||
			a.PowerBusyW != b.PowerBusyW || a.Availability != b.Availability {
			t.Fatalf("client %d diverges across identical populations", i)
		}
		if a.SecPerJob <= 0 || a.SecPerJob > p1.SlowestSecPerJob() {
			t.Fatalf("client %d SecPerJob %v outside (0, %v]", i, a.SecPerJob, p1.SlowestSecPerJob())
		}
		seen[a.Class.Name]++
	}
	for _, c := range classes {
		if seen[c.Name] == 0 {
			t.Fatalf("class %s never sampled in 5000 clients (mix %v)", c.Name, seen)
		}
	}
}

// TestSpanPow checks the saturating power helper the tree layout hangs on.
func TestSpanPow(t *testing.T) {
	cases := []struct{ fanout, exp, n, want int }{
		{2, 0, 100, 1}, {2, 3, 100, 8}, {2, 10, 100, 100},
		{64, 2, 1_000_000, 4096}, {64, 4, 1_000_000, 1_000_000},
		{3, 40, 1 << 30, 1 << 30}, // would overflow without saturation
	}
	for _, c := range cases {
		if got := spanPow(c.fanout, c.exp, c.n); got != c.want {
			t.Fatalf("spanPow(%d,%d,%d) = %d, want %d", c.fanout, c.exp, c.n, got, c.want)
		}
	}
}

// TestShardPermutationDeterminism is the scheduling-independence property
// test: shards may complete in ANY order on ANY number of workers, and the
// committed model bits, the round stats and the ledger JSONL bytes must all
// be identical to the serial natural-order walk. Completion order is forced
// via seeded permutations injected through the shardRunner seam, executed on
// genuinely concurrent workers (meaningful under -race).
func TestShardPermutationDeterminism(t *testing.T) {
	const n, dim, fanout, rounds = 20_000, 16, 8, 2
	plan := &faultinject.Plan{
		Seed:    99,
		Default: faultinject.Profile{Drop: 0.04, Crash: 0.03},
	}
	cs := chaosSeed(t)

	run := func(workers int, permSeed int64) (model []float64, stats []RoundStats, jsonl []byte) {
		lg := ledger.New(0)
		e, err := New(Config{
			Clients: n, Dim: dim, Fanout: fanout, Jobs: 1,
			Seed: 13, ChaosSeed: cs, Fault: plan,
			TierQuorum: 0.5, Workers: workers, Ledger: lg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if permSeed != 0 {
			rng := rand.New(rand.NewSource(permSeed))
			e.shardRunner = func(ns int, runShard func(s int)) {
				order := rng.Perm(ns)
				feed := make(chan int)
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for s := range feed {
							runShard(s)
						}
					}()
				}
				for _, s := range order {
					feed <- s
				}
				close(feed)
				wg.Wait()
			}
		}
		for r := 0; r < rounds; r++ {
			st, err := e.RunRound()
			if err != nil {
				t.Fatalf("workers=%d perm=%d round %d: %v", workers, permSeed, r, err)
			}
			stats = append(stats, st)
		}
		var buf bytes.Buffer
		if err := lg.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return e.Global(), stats, buf.Bytes()
	}

	wantModel, wantStats, wantJSONL := run(1, 0) // serial natural order
	if sc, _ := func() (int, int) {
		e, _ := New(Config{Clients: n, Dim: dim, Fanout: fanout, Jobs: 1, Seed: 13})
		return e.Shards()
	}(); sc < 2 {
		t.Fatalf("layout degenerate: %d shards", sc)
	}
	for _, workers := range []int{1, 2, 4} {
		for _, permSeed := range []int64{1, 20260807, 424242} {
			model, stats, jsonl := run(workers, permSeed)
			label := fmt.Sprintf("workers=%d perm=%d", workers, permSeed)
			bitsEqual(t, model, wantModel, label+" model")
			for r := range stats {
				if stats[r] != wantStats[r] {
					t.Fatalf("%s round %d stats diverge:\n%+v\n%+v", label, r, stats[r], wantStats[r])
				}
			}
			if !bytes.Equal(jsonl, wantJSONL) {
				t.Fatalf("%s: ledger JSONL diverges from serial walk (%d vs %d bytes)",
					label, len(jsonl), len(wantJSONL))
			}
		}
	}
}

// TestRoundAllocsPerClient pins the zero-alloc leaf path: a steady-state
// 10k-client round (pools warm) must average far under one allocation per
// client. The budget leaves headroom for pool churn under GC pressure while
// still catching any per-client or per-partial allocation regression.
func TestRoundAllocsPerClient(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector's sync.Pool drops Puts; alloc counts are meaningless")
	}
	const n = 10_000
	e, err := New(Config{Clients: n, Dim: 32, Fanout: 8, Jobs: 1, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ { // warm the pools
		if _, err := e.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(5, func() {
		if _, err := e.RunRound(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("steady-state: %.0f allocs/round (%.5f per client)", avg, avg/n)
	if avg > 0.02*n {
		t.Fatalf("round allocates %.0f times (%.4f per client), budget %.0f",
			avg, avg/n, 0.02*n)
	}
}
