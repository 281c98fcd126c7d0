// Package fleet is a discrete-event simulator for million-client federated
// rounds. It drives a generated heterogeneous device population
// (device.Population) through the hierarchical aggregation tree in *virtual*
// time (simclock.Sim): every client's round — downlink, local training,
// uplink — is priced from its sampled fleet profile, partial sums climb the
// tree by exact merges, each hop counted as the BFL1 partial-aggregate frame
// it would ship, and the round's wall time is the slowest surviving path to
// the root, not the machine the simulator runs on.
//
// The tree is the serving plane's: every tier fold runs through fl.TreeFold,
// the streaming spine fl.Server's tree rounds use, so tier quorum, partial
// frames and their ledger events have one implementation. Leaves fold into
// the spine in index order, so at any moment exactly one aggregator per tier
// is open per worker: O(depth·params) accumulator state plus one scratch
// update vector, regardless of fleet size. No slice anywhere is proportional
// to the number of clients — a client's spec, availability and update are
// all recomputed on demand as pure functions of (seed, index, round), the
// same order-independent hash construction the chaos plane uses
// (Falafels-style discrete events over a BouquetFL-style heterogeneous
// population).
//
// A round is sharded at a fixed tier of the tree into independent subtrees,
// simulated concurrently on the internal/parallel pool: each worker owns a
// pooled spine (leaves up to the shard tier) and scratch arena, so the leaf
// fold path allocates nothing per client, and each shard leaves its top
// partial in its indexed result slot. The shard layout is a pure
// function of (Clients, Fanout) — never of the worker count — and every
// per-shard draw is a pure function of (seed, index, round), so the committed
// model, the stats and the ledger are byte-identical at any GOMAXPROCS or
// -workers setting. A single-threaded merge then feeds the shard partials, in
// shard index order, into a second spine that starts at the tier above the
// shards and closes up to the root; it replays each shard's buffered ledger
// events as it goes, which keeps the journal byte-identical to a serial walk
// too.
//
// Because the fold arithmetic is exact (internal/exact), arrival order is
// immaterial: folding children in index order is bit-identical to folding
// them in completion-time order, and the committed root model is
// bit-identical to a flat fold over the same survivors — the property
// FlatRound exposes and the tests enforce.
package fleet

import (
	"fmt"
	"math"
	"sync"
	"time"

	"bofl/internal/device"
	"bofl/internal/exact"
	"bofl/internal/faultinject"
	"bofl/internal/fl"
	"bofl/internal/obs"
	"bofl/internal/obs/ledger"
	"bofl/internal/parallel"
	"bofl/internal/simclock"
)

// Per-round draw attempts in the LayerFleet hash stream. Population sampling
// uses round 0; the engine draws at rounds ≥ 1, so the streams never collide.
const (
	drawChaos = iota // scripted/policy fault decision
	drawAvailability
)

// wireOverheadBytes approximates per-transfer framing cost (headers, meta)
// added to the 8·dim model payload when pricing link time.
const wireOverheadBytes = 128

// minShards is the smallest subtree count worth sharding at: the engine picks
// the highest tier whose node count reaches it, so shards stay coarse enough
// to amortize dispatch but numerous enough to load-balance any plausible
// worker count. Layout depends only on (Clients, Fanout).
const minShards = 32

// UpdateFn computes client i's local update from the global model into out
// (len(out) == len(global)) and returns its integer example count (≥ 1).
// It MUST be a pure function of (i, global) — the simulator recomputes it at
// will and replays depend on it. It may be called concurrently from several
// workers (with distinct out buffers).
type UpdateFn func(i int, global, out []float64) int

// DefaultUpdate is a deterministic synthetic workload: an affine map whose
// scale and shift vary per client, matching the in-process scale harness.
func DefaultUpdate(i int, global, out []float64) int {
	scale, shift := 1+float64(i%7)/8, float64(i%5)/16
	for j, v := range global {
		out[j] = v*scale + shift
	}
	return 1 + i%29
}

// Config shapes one simulated fleet.
type Config struct {
	// Clients is the fleet size; every round selects the whole fleet.
	Clients int
	// Dim is the model dimension.
	Dim int
	// Fanout is the aggregation-tree fanout (≥ 2).
	Fanout int
	// Jobs is the local minibatch count per client per round.
	Jobs int
	// Seed fixes population sampling and trace minting.
	Seed int64
	// ChaosSeed fixes availability and fault draws; replays with the same
	// value are byte-identical. Defaults to Seed when zero.
	ChaosSeed int64
	// Workers caps how many subtree shards simulate concurrently; 0 uses the
	// parallel pool width (GOMAXPROCS unless overridden). The committed
	// model, stats and ledger are byte-identical at every setting — Workers
	// only changes scheduling, never the shard layout.
	Workers int
	// TierQuorum is the per-aggregator child quorum (see fl.TreeConfig).
	TierQuorum float64
	// Quorum is the round-level survivor fraction required to commit.
	Quorum float64
	// DeadlineSeconds fixes the per-round client deadline. Zero derives it:
	// DeadlineRatio × Jobs × the population's slowest per-job latency.
	DeadlineSeconds float64
	// DeadlineRatio scales the derived deadline (default 1.25).
	DeadlineRatio float64
	// TierLatencySeconds charges a fixed aggregation hop cost per tier when
	// pricing the round's virtual duration (default 0).
	TierLatencySeconds float64
	// Population supplies per-client device specs; nil builds the standard
	// heterogeneous mix (device.StandardFleetClasses, ViT anchors) on Seed.
	Population *device.Population
	// Fault injects scripted or probabilistic chaos at LayerFleet points
	// (nil injects nothing).
	Fault faultinject.Policy
	// Clock is the virtual clock to advance per round (nil creates one at
	// the zero epoch).
	Clock *simclock.Sim
	// Ledger, when set, journals round/partial/subtree-drop/commit events.
	Sink   obs.Sink
	Ledger *ledger.Ledger
	// Update is the local training function (nil selects DefaultUpdate).
	Update UpdateFn
}

func (c *Config) normalize() error {
	switch {
	case c.Clients < 1:
		return fmt.Errorf("fleet: Clients %d must be ≥ 1", c.Clients)
	case c.Dim < 1:
		return fmt.Errorf("fleet: Dim %d must be ≥ 1", c.Dim)
	case c.Fanout < 2:
		return fmt.Errorf("fleet: Fanout %d must be ≥ 2", c.Fanout)
	case c.Jobs < 1:
		return fmt.Errorf("fleet: Jobs %d must be ≥ 1", c.Jobs)
	case c.Workers < 0:
		return fmt.Errorf("fleet: Workers %d must be ≥ 0", c.Workers)
	case c.TierQuorum < 0 || c.TierQuorum > 1:
		return fmt.Errorf("fleet: TierQuorum %v must be in [0, 1]", c.TierQuorum)
	case c.Quorum < 0 || c.Quorum > 1:
		return fmt.Errorf("fleet: Quorum %v must be in [0, 1]", c.Quorum)
	case c.DeadlineSeconds < 0 || c.DeadlineRatio < 0 || c.TierLatencySeconds < 0:
		return fmt.Errorf("fleet: negative deadline/tier latency")
	}
	if c.ChaosSeed == 0 {
		c.ChaosSeed = c.Seed
	}
	if c.DeadlineRatio == 0 {
		c.DeadlineRatio = 1.25
	}
	if c.Population == nil {
		classes, err := device.StandardFleetClasses(device.ViT)
		if err != nil {
			return err
		}
		c.Population, err = device.NewPopulation(c.Seed, classes)
		if err != nil {
			return err
		}
	}
	if c.Clock == nil {
		c.Clock = simclock.NewSim(time.Unix(0, 0).UTC())
	}
	c.Sink = obs.OrNop(c.Sink)
	c.Fault = faultinject.OrNop(c.Fault)
	if c.Update == nil {
		c.Update = DefaultUpdate
	}
	return nil
}

// RoundStats summarizes one simulated round.
type RoundStats struct {
	Round   int
	Clients int
	// Survivors is the number of leaf updates in the committed aggregate;
	// Dropped is everything else (unavailable + faults + misses + leaves
	// lost to subtree drops).
	Survivors int
	Dropped   int
	// Loss taxonomy. SubtreeDropLeaves counts healthy leaves discarded
	// because their aggregator missed its tier quorum.
	Unavailable       int
	Crashed           int
	DeadlineMisses    int
	SubtreeDrops      int
	SubtreeDropLeaves int
	// Tree traffic: partial frames shipped tier-to-tier and their bytes.
	Partials  int
	WireBytes int64
	// TotalWeight is the committed integer example weight.
	TotalWeight int64
	// EnergyJ is the fleet's summed round energy (training + radio), summed
	// per shard and merged in shard order — workers-independent.
	EnergyJ float64
	// VirtualSeconds is the round's simulated duration (slowest surviving
	// path to the root); DeadlineSeconds is the per-client deadline used.
	VirtualSeconds  float64
	DeadlineSeconds float64
	// SpineBytes is one full spine's accumulator working set (worker tiers +
	// merge tiers + root) — O(depth·params), independent of Clients. Each
	// concurrent worker holds its own copy of the tiers-below-the-shard
	// slice, so total memory scales with min(Workers, shards), never fleet
	// size.
	SpineBytes int64
}

// accumulate folds o's additive counters into s — the shard-merge reduction,
// applied in shard index order so float sums stay workers-independent.
func (s *RoundStats) accumulate(o *RoundStats) {
	s.Unavailable += o.Unavailable
	s.Crashed += o.Crashed
	s.DeadlineMisses += o.DeadlineMisses
	s.SubtreeDrops += o.SubtreeDrops
	s.SubtreeDropLeaves += o.SubtreeDropLeaves
	s.Partials += o.Partials
	s.WireBytes += o.WireBytes
	s.EnergyJ += o.EnergyJ
}

// addTree folds a spine run's tier traffic and quorum losses into s.
func (s *RoundStats) addTree(t fl.TreeStats) {
	s.Partials += t.Partials
	s.WireBytes += t.WireBytes
	s.SubtreeDrops += t.SubtreeDrops
	s.SubtreeDropLeaves += t.DropLeaves
}

// Engine simulates rounds over one fleet. Not safe for concurrent use (one
// RunRound at a time; the engine parallelizes internally).
type Engine struct {
	cfg      Config
	depth    int // root aggregator tier; the root accumulator sits above it
	deadline float64
	hasFault bool // false when cfg.Fault is the NopPolicy: skip Decide entirely
	// chaosMid caches the availability draws' hash prefix for ChaosSeed.
	chaosMid faultinject.FleetSeedMid

	global []float64
	sum    []float64

	// Shard layout — a pure function of (Clients, Fanout). Tier shardTier
	// subtrees (shardSpan leaves each) are the unit of parallel work.
	shardTier int
	shardSpan int
	numShards int
	shardOuts []shardOut

	// merge folds the shard partials from tier shardTier+1 up to the root,
	// single-threaded; worker contexts (pooled in ctxFree) each fold one
	// shard's leaves up to tier shardTier.
	merge   *fl.TreeFold
	ctxMu   sync.Mutex
	ctxFree []*simCtx

	// shardRunner overrides shard dispatch; tests inject seeded permutations
	// of shard completion order here. nil dispatches on the parallel pool.
	shardRunner func(n int, run func(s int))

	round int
	tc    obs.TraceContext
	stats RoundStats
	err   error
}

// New validates the config and builds an engine with a deterministic initial
// model.
func New(cfg Config) (*Engine, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	depth := fl.TreeDepth(cfg.Fanout, cfg.Clients)
	e := &Engine{
		cfg:    cfg,
		depth:  depth,
		global: make([]float64, cfg.Dim),
		sum:    make([]float64, cfg.Dim),
	}
	_, nop := cfg.Fault.(faultinject.NopPolicy)
	e.hasFault = !nop
	e.chaosMid = faultinject.NewFleetSeedMid(cfg.ChaosSeed)
	for j := range e.global {
		e.global[j] = float64(j%17)/16 + 0.5
	}
	e.deadline = cfg.DeadlineSeconds
	if e.deadline == 0 {
		e.deadline = cfg.DeadlineRatio * float64(cfg.Jobs) * cfg.Population.SlowestSecPerJob()
	}

	// Shard at the highest tier with at least minShards subtrees, falling
	// back to tier 0 (≥ 2 nodes whenever depth ≥ 1). Workers never enter
	// this choice: the same fleet always shards the same way.
	e.shardTier = 0
	if depth > 0 {
		for t := depth - 1; t > 0; t-- {
			span := spanPow(cfg.Fanout, t+1, cfg.Clients)
			if (cfg.Clients+span-1)/span >= minShards {
				e.shardTier = t
				break
			}
		}
	}
	e.shardSpan = spanPow(cfg.Fanout, e.shardTier+1, cfg.Clients)
	e.numShards = (cfg.Clients + e.shardSpan - 1) / e.shardSpan
	e.shardOuts = make([]shardOut, e.numShards)

	// The merge runs single-threaded in shard index order, so it journals
	// straight into the ledger.
	var journal func(ledger.Event)
	if cfg.Ledger != nil {
		journal = cfg.Ledger.Append
	}
	e.merge = e.newSpine(journal)
	return e, nil
}

// newSpine builds a tier spine over the fleet's model. Its sink is obs.Nop:
// the engine reports whole-round metrics, not per-close ones.
func (e *Engine) newSpine(journal func(ledger.Event)) *fl.TreeFold {
	return fl.NewTreeFold(fl.TreeConfig{Fanout: e.cfg.Fanout, TierQuorum: e.cfg.TierQuorum},
		e.cfg.Dim, e.cfg.TierLatencySeconds, obs.Nop, journal)
}

// Depth returns the root aggregator tier (leaves fold into tier 0).
func (e *Engine) Depth() int { return e.depth }

// Deadline returns the per-client round deadline in seconds.
func (e *Engine) Deadline() float64 { return e.deadline }

// Shards returns the parallel shard layout: how many tier-shardTier subtrees
// a round fans out, and how many leaves each covers.
func (e *Engine) Shards() (count, span int) { return e.numShards, e.shardSpan }

// Global returns a copy of the current global model.
func (e *Engine) Global() []float64 { return append([]float64(nil), e.global...) }

// SetGlobal replaces the global model (length must equal Dim).
func (e *Engine) SetGlobal(g []float64) error {
	if len(g) != e.cfg.Dim {
		return fmt.Errorf("fleet: model length %d, want %d", len(g), e.cfg.Dim)
	}
	copy(e.global, g)
	return nil
}

// SpineBytes reports one full spine's accumulator working set: the worker
// tiers 0..shardTier, the merge tiers shardTier+1..depth and the root — the
// quantity that must stay O(depth · params). See RoundStats.SpineBytes for
// how per-worker copies scale.
func (e *Engine) SpineBytes() int64 {
	return exact.VecBytes(e.cfg.Dim) * int64(e.depth+2)
}

// spanPow returns min(fanout^exp, n) without overflow.
func spanPow(fanout, exp, n int) int {
	s := 1
	for k := 0; k < exp; k++ {
		if s > n/fanout {
			return n
		}
		s *= fanout
	}
	if s > n {
		return n
	}
	return s
}

// leafResult is one simulated client's round outcome.
type leafResult struct {
	ok         bool
	completeAt float64 // seconds after round start the update arrives
}

// shardOut is one shard's slot in the indexed result array: the partial its
// subtree shipped (copied out by the worker, so the serial merge only absorbs),
// when that result reached the shard tier's parent, its stats partial and its
// buffered ledger events. Slots are reused across rounds, so steady-state
// shard dispatch allocates nothing.
type shardOut struct {
	partial fl.PartialAggregate
	shipped bool
	at      float64
	stats   RoundStats
	events  []ledger.Event
	err     error
}

// simCtx is one shard worker: a tier spine over leaves up to the shard tier,
// a scratch update arena, and the shard slot it is filling.
type simCtx struct {
	e       *Engine
	spine   *fl.TreeFold
	scratch []float64
	stats   *RoundStats
	out     *shardOut
}

// newWorkerCtx builds a context able to simulate one shard. Its spine
// buffers ledger events in the shard slot; the merge replays them in shard
// index order, so the journal is byte-identical to a serial walk at any
// worker count.
func (e *Engine) newWorkerCtx() *simCtx {
	c := &simCtx{e: e, scratch: make([]float64, e.cfg.Dim)}
	var journal func(ledger.Event)
	if e.cfg.Ledger != nil {
		journal = func(ev ledger.Event) { c.out.events = append(c.out.events, ev) }
	}
	c.spine = e.newSpine(journal)
	return c
}

func (e *Engine) getCtx() *simCtx {
	e.ctxMu.Lock()
	if k := len(e.ctxFree); k > 0 {
		c := e.ctxFree[k-1]
		e.ctxFree = e.ctxFree[:k-1]
		e.ctxMu.Unlock()
		return c
	}
	e.ctxMu.Unlock()
	return e.newWorkerCtx()
}

func (e *Engine) putCtx(c *simCtx) {
	e.ctxMu.Lock()
	e.ctxFree = append(e.ctxFree, c)
	e.ctxMu.Unlock()
}

// simulateLeaf prices client i's round: availability and chaos draws, then
// downlink + Jobs·SecPerJob + uplink against the deadline. Energy is charged
// for every phase the device actually ran, even when the update is lost.
// Every draw is a pure function of (seed, i, round) — scheduling-independent.
func (c *simCtx) simulateLeaf(i int) leafResult {
	e := c.e
	spec := e.cfg.Population.Client(i)
	var dec faultinject.Decision
	if e.hasFault {
		dec = e.cfg.Fault.Decide(faultinject.Point{
			Layer: faultinject.LayerFleet, Client: device.ClientID(i),
			Round: e.round, Attempt: drawChaos,
		})
	}
	if dec.Drop {
		c.stats.Unavailable++
		return leafResult{}
	}
	if e.chaosMid.Client(i).Unit(e.round, drawAvailability) >= spec.Availability {
		c.stats.Unavailable++
		return leafResult{}
	}

	frame := float64(8*e.cfg.Dim + wireOverheadBytes)
	down := frame / spec.DownlinkBps
	compute := float64(e.cfg.Jobs)*spec.SecPerJob + dec.Delay.Seconds()
	up := frame / spec.UplinkBps

	if dec.Crash {
		// Trained, died before reporting: compute energy spent, no uplink.
		c.stats.Crashed++
		c.stats.EnergyJ += compute*spec.PowerBusyW + down*spec.PowerIdleW
		return leafResult{}
	}
	total := down + compute + up
	c.stats.EnergyJ += compute*spec.PowerBusyW + (down+up)*spec.PowerIdleW
	if dec.Timeout || total > e.deadline {
		c.stats.DeadlineMisses++
		return leafResult{}
	}
	return leafResult{ok: true, completeAt: total}
}

// foldLeaf simulates client i and folds its update into the spine's tier 0.
func (c *simCtx) foldLeaf(i int) {
	lr := c.simulateLeaf(i)
	if !lr.ok {
		return
	}
	e := c.e
	w := e.cfg.Update(i, e.global, c.scratch)
	if w < 1 {
		if c.out.err == nil {
			c.out.err = fmt.Errorf("fleet: client %d returned weight %d < 1", i, w)
		}
		return
	}
	c.spine.Leaf(float64(w), c.scratch, int64(w), lr.completeAt)
}

// runShard simulates shard s — its leaves in index order, folded up to the
// shard tier — into the shard's result slot.
func (c *simCtx) runShard(s int) {
	e := c.e
	out := &e.shardOuts[s]
	out.stats, out.events, out.err = RoundStats{}, out.events[:0], nil
	c.stats, c.out = &out.stats, out
	lo := s * e.shardSpan
	hi := min(lo+e.shardSpan, e.cfg.Clients)
	c.spine.Reset(e.round, e.tc, e.cfg.Clients, lo, 0, e.shardTier)
	for i := lo; i < hi; i++ {
		c.foldLeaf(i)
		c.spine.Advance(i)
	}
	out.shipped = c.spine.Partial(&out.partial)
	out.at = c.spine.CompleteAt()
	out.stats.addTree(c.spine.Stats())
	if out.err == nil {
		out.err = c.spine.Err()
	}
	c.stats, c.out = nil, nil
}

func (e *Engine) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

func (e *Engine) ledgerAppend(ev ledger.Event) {
	if e.cfg.Ledger != nil {
		e.cfg.Ledger.Append(ev)
	}
}

// runShards simulates every shard subtree, filling e.shardOuts. Execution
// order is arbitrary (pool scheduling, or a test-injected permutation); the
// indexed slots make the merge phase deterministic regardless.
func (e *Engine) runShards() {
	run := func(s int) {
		ctx := e.getCtx()
		ctx.runShard(s)
		e.putCtx(ctx)
	}
	if e.shardRunner != nil {
		e.shardRunner(e.numShards, run)
		return
	}
	parallel.ForChunkMax(e.numShards, e.cfg.Workers, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			run(s)
		}
	})
}

// mergeShards is the deterministic sequencer: in shard index order — whatever
// order the shards completed in — it surfaces each shard's first error, folds
// its stats into the round stats, replays its buffered ledger events and
// feeds its partial to the merge spine, which closes the tiers above the
// shards up to the root.
func (e *Engine) mergeShards() {
	n := e.cfg.Clients
	m := e.merge
	m.Reset(e.round, e.tc, n, 0, e.shardTier+1, e.depth)
	for s := range e.shardOuts {
		out := &e.shardOuts[s]
		if out.err != nil {
			e.fail(out.err)
		}
		e.stats.accumulate(&out.stats)
		for _, ev := range out.events {
			e.ledgerAppend(ev)
		}
		var child *fl.PartialAggregate
		if out.shipped {
			child = &out.partial
		}
		m.Child(child, out.at)
		m.Advance(min((s+1)*e.shardSpan, n) - 1)
	}
}

// RunRound simulates one virtual-time round over the whole fleet, commits the
// new global model, and advances the virtual clock by the round's duration.
// Shards run concurrently on the parallel pool (bounded by Config.Workers);
// everything committed — model bits, stats, ledger bytes — is identical at
// any width.
func (e *Engine) RunRound() (RoundStats, error) {
	e.round++
	e.err = nil
	n := e.cfg.Clients
	e.tc = obs.MintTrace(e.cfg.Seed, e.round)
	e.stats = RoundStats{
		Round: e.round, Clients: n,
		DeadlineSeconds: e.deadline, SpineBytes: e.SpineBytes(),
	}
	e.ledgerAppend(ledger.Event{
		Kind: ledger.KindRoundBegin, Round: e.round, TraceID: e.tc.TraceID,
		Selected: n, Deadline: e.deadline,
	})

	e.runShards()
	e.mergeShards()
	root, weight, survivors := e.merge.Root()
	e.stats.addTree(e.merge.Stats())
	if e.err == nil {
		e.err = e.merge.Err()
	}
	if e.err != nil {
		e.abort(e.err.Error())
		return e.stats, e.err
	}
	required := int(math.Ceil(e.cfg.Quorum * float64(n)))
	switch {
	case weight == 0:
		err := fmt.Errorf("fleet: round %d: no surviving aggregate", e.round)
		e.abort(err.Error())
		return e.stats, err
	case survivors < required:
		err := fmt.Errorf("fleet: round %d: %d survivors below quorum %d", e.round, survivors, required)
		e.abort(err.Error())
		return e.stats, err
	}

	root.RoundTo(e.sum)
	tw := float64(weight)
	for j := range e.global {
		e.global[j] = e.sum[j] / tw
	}

	e.stats.Survivors = survivors
	e.stats.Dropped = n - survivors
	e.stats.TotalWeight = weight
	e.stats.VirtualSeconds = e.merge.CompleteAt() + e.cfg.TierLatencySeconds
	e.cfg.Clock.Advance(time.Duration(e.stats.VirtualSeconds * float64(time.Second)))

	e.cfg.Sink.Count(obs.MetricFleetClients, float64(n))
	e.cfg.Sink.Count(obs.MetricFleetVirtualS, e.stats.VirtualSeconds)
	e.cfg.Sink.Count(obs.MetricFleetEnergy, e.stats.EnergyJ)
	e.cfg.Sink.Count(obs.MetricFleetMisses, float64(e.stats.DeadlineMisses))
	e.cfg.Sink.Count(obs.MetricFleetDropped, float64(e.stats.Dropped))
	e.ledgerAppend(ledger.Event{
		Kind: ledger.KindCommit, Round: e.round, TraceID: e.tc.TraceID,
		Selected: n, Survivors: survivors, Weight: weight,
		LatencySeconds: e.stats.VirtualSeconds, EnergyJoules: e.stats.EnergyJ,
	})
	return e.stats, nil
}

func (e *Engine) abort(detail string) {
	e.ledgerAppend(ledger.Event{
		Kind: ledger.KindAbort, Round: e.round, TraceID: e.tc.TraceID,
		Detail: detail,
	})
}

// FlatRound is the reference oracle: it simulates the *next* round's leaves
// with draws identical to what RunRound will use, folds every survivor into a
// single flat exact accumulator in index order — no tree, no partial frames,
// no shards — and returns the model that fold would commit plus its total
// weight. It does not mutate engine state. With TierQuorum 0 (no subtree
// drops) the subsequently committed RunRound model must be bit-identical.
func (e *Engine) FlatRound() ([]float64, int64, error) {
	savedStats, savedRound, savedErr := e.stats, e.round, e.err
	defer func() { e.stats, e.round, e.err = savedStats, savedRound, savedErr }()
	e.round++
	e.stats = RoundStats{}
	e.err = nil
	ctx := &simCtx{e: e, scratch: make([]float64, e.cfg.Dim), stats: &e.stats}

	acc := exact.NewVec(e.cfg.Dim)
	var weight int64
	for i := 0; i < e.cfg.Clients; i++ {
		lr := ctx.simulateLeaf(i)
		if !lr.ok {
			continue
		}
		w := int64(e.cfg.Update(i, e.global, ctx.scratch))
		if w < 1 {
			return nil, 0, fmt.Errorf("fleet: client %d returned weight %d < 1", i, w)
		}
		acc.AddScaled(float64(w), ctx.scratch)
		weight += w
	}
	if weight == 0 {
		return nil, 0, fmt.Errorf("fleet: flat round %d: no survivors", e.round)
	}
	out := make([]float64, e.cfg.Dim)
	acc.RoundTo(out)
	tw := float64(weight)
	for j := range out {
		out[j] /= tw
	}
	return out, weight, nil
}
