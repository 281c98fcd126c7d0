package fl

// Hierarchical aggregation. TreeFold is the one streaming tier spine: the
// serving plane's tree rounds (Server.RunRound) and the fleet simulator's
// shard workers and shard merge (internal/fleet) all fold tiers through it.
// Contiguous spans of Fanout leaves fold into a tier-0 group, every Fanout
// tier-0 partials merge into a tier-1 group, and so on until one group spans
// the whole tree — the root. Because callers feed the spine in leaf index
// order and the fold arithmetic is exact (internal/exact), only the
// *rightmost* group of every tier can be open at any moment. That spine is
// the whole working set: O(depth · params) accumulator memory regardless of
// how many leaves the tree covers, and the root sum is bit-identical to the
// flat fold for any fanout.
//
// Every group close merges the group's accumulator into its parent's open
// group with exact.Vec.AddVec, carrying its weight and leaf survivors along.
// Exact addition makes that merge bit-identical to what a distributed tier
// does — ship the group as a BFL1 partial-aggregate frame and absorb the
// decoded frame — and the codec tests and FuzzPartialAggregate hold that
// decode(encode(x)) == x. Each close encodes its frame all the same, into a
// writer that keeps only its length: the frame's size is the wire traffic
// the ledger journals per tier, and running the one encoder is what keeps
// that count equal to the bytes a distributed tier would ship. Nothing
// parses the bytes back. A large window packs at memory speed
// (codec_partial.go), and the close runs on pooled state (the serialize
// target and the encoder's scratch buffers), so in steady state it
// allocates nothing, raw or packed.
//
// A spine may cover part of a tree: it starts at an absolute leaf, takes its
// inputs at a base tier — leaves at tier 0, or child partials above it — and
// closes groups up to a top tier, whose group merges into the spine's root
// tier like any other. The caller reads the result from there: the root
// accumulator itself (Root), or the top group's partial for another spine's
// base tier (Partial).
//
// Per-tier quorum composes with the round-level machinery: a group whose
// delivering children fall below ⌈TierQuorum · children⌉ is discarded whole
// (KindSubtreeDrop), its leaves join the round's Dropped list, and — because
// normalization is deferred to the root commit — the parent renormalizes
// over the surviving siblings by doing nothing at all.

import (
	"fmt"
	"math"

	"bofl/internal/exact"
	"bofl/internal/obs"
	"bofl/internal/obs/ledger"
)

// TreeConfig shapes the aggregation tree.
type TreeConfig struct {
	// Fanout is the maximum children per aggregator node; must be ≥ 2. The
	// rightmost node of every tier may be ragged (fewer children).
	Fanout int
	// TierQuorum is the fraction of an aggregator's children that must
	// deliver for the node to forward a partial: required = ⌈q·children⌉.
	// 0 disables per-tier quorum. Any positive value implies dropout
	// tolerance, like ServerConfig.Quorum.
	TierQuorum float64
}

func (c *TreeConfig) validate() error {
	if c == nil {
		return nil
	}
	if c.Fanout < 2 {
		return fmt.Errorf("fl: tree fanout %d must be ≥ 2", c.Fanout)
	}
	if c.TierQuorum < 0 || c.TierQuorum > 1 {
		return fmt.Errorf("fl: tier quorum %v must be in [0, 1]", c.TierQuorum)
	}
	return nil
}

// TreeDepth returns the root group's tier in a tree of n leaves: the lowest
// tier whose group span, fanout^(tier+1), covers every leaf.
func TreeDepth(fanout, n int) int {
	depth := 0
	for span := fanout; span < n; span *= fanout {
		depth++
		if span > n/fanout {
			break // the next span covers n
		}
	}
	return depth
}

// partialCodecLabel labels the partial frames' wire-byte counter; shared so a
// close passes no freshly allocated label slice to the sink.
var partialCodecLabel = []obs.Label{obs.L("codec", "partial")}

// treeTier is one tier's live (rightmost) aggregator group.
type treeTier struct {
	vec       *exact.Vec
	weight    int64   // integer example-count weight folded so far
	arrived   int     // children that delivered into the open group
	attempted int     // children closed under the open group, delivered or not
	survivors int     // leaves folded into the open group, across every tier below
	latest    float64 // latest child completion time, delivered or not
	leafLo    int     // first leaf index of the open group's span
	span      int     // leaves per group at this tier, saturated at the tree size
}

// TreeStats counts one spine run's tier traffic and quorum losses.
type TreeStats struct {
	Partials     int   // partial frames shipped
	WireBytes    int64 // encoded bytes of those frames
	SubtreeDrops int   // groups discarded by tier quorum
	DropLeaves   int   // surviving leaves inside the discarded groups
}

// TreeFold is the streaming tier spine. It is reused across runs (the tier
// accumulators are the dominant allocation) and rewound by Reset. Not safe
// for concurrent use; concurrent callers each hold their own spine.
type TreeFold struct {
	cfg TreeConfig
	dim int
	// hop is the latency a shipped group adds to its completion time on the
	// way to its parent (0 on the serving plane, where nothing is priced).
	hop  float64
	sink obs.Sink
	// journal appends a ledger event; nil journals nothing.
	journal func(ledger.Event)

	// tiers is indexed by absolute tier; base..top+1 are live in a run, and
	// the top group merges into tier top+1, the spine's root tier (see Root).
	tiers []*treeTier

	// Per-run state.
	round     int
	tc        obs.TraceContext
	labels    []obs.Label // tc's child-span labels, kept while tc repeats
	n         int         // leaves in the whole tree
	base, top int
	dropped   [][2]int // leaf spans discarded by per-tier quorum, inclusive
	stats     TreeStats
	err       error // first wire/merge failure; aborts the round

	// Pooled frame state: the last shipped partial (the top group's, once
	// the run's last Advance has returned) and the writer its frame's bytes
	// are counted in.
	last  PartialAggregate
	count byteCounter
}

// byteCounter is an io.Writer that keeps only the length of what it is
// given: the wire size of a frame nobody reads back.
type byteCounter int64

func (c *byteCounter) Write(p []byte) (int, error) {
	*c += byteCounter(len(p))
	return len(p), nil
}

// NewTreeFold builds a spine over dim-wide fold vectors. Closes report to
// sink (SpanFLTierFold, partial and subtree-drop counters) and journal their
// partial and subtree_drop events through journal (nil journals nothing).
func NewTreeFold(cfg TreeConfig, dim int, hop float64, sink obs.Sink, journal func(ledger.Event)) *TreeFold {
	return &TreeFold{cfg: cfg, dim: dim, hop: hop, sink: obs.OrNop(sink), journal: journal}
}

// Reset rewinds the spine for one run over a tree of n leaves: inputs enter
// tier base starting at absolute leaf lo, and groups close up to tier top
// (at most TreeDepth(fanout, n)).
func (f *TreeFold) Reset(round int, tc obs.TraceContext, n, lo, base, top int) {
	f.round, f.n, f.base, f.top = round, n, base, top
	if f.labels == nil || tc != f.tc {
		f.labels = tc.ChildLabels()
	}
	f.tc = tc
	f.dropped = f.dropped[:0]
	f.stats, f.err = TreeStats{}, nil
	for len(f.tiers) <= top+1 {
		f.tiers = append(f.tiers, &treeTier{vec: exact.NewVec(f.dim)})
	}
	span := f.cfg.Fanout
	for t, tier := range f.tiers[:top+2] {
		if t >= base {
			tier.vec.Reset()
			tier.weight, tier.arrived, tier.attempted, tier.survivors = 0, 0, 0, 0
			tier.latest, tier.leafLo = 0, lo
		}
		tier.span = min(span, n)
		if span <= n/f.cfg.Fanout {
			span *= f.cfg.Fanout
		} else {
			span = n
		}
	}
}

// Leaf folds one surviving leaf into the open tier-0 group: scale·x, added
// exactly, with integer example weight w, arriving at time at. Callers pass
// scale 1 for a contribution that is already weighted.
func (f *TreeFold) Leaf(scale float64, x []float64, w int64, at float64) {
	t0 := f.tiers[0]
	t0.vec.AddScaled(scale, x)
	t0.weight += w
	t0.arrived++
	t0.survivors++
	if at > t0.latest {
		t0.latest = at
	}
}

// Child absorbs one child partial into the open base-tier group, taking the
// child's weight and leaf survivors from the partial; nil is a child that
// shipped nothing (dropped or vacuous) but still completed at at.
func (f *TreeFold) Child(pa *PartialAggregate, at float64) {
	tier := f.tiers[f.base]
	if at > tier.latest {
		tier.latest = at
	}
	if pa == nil {
		return
	}
	if err := tier.vec.Absorb(pa.Sum); err != nil {
		f.fail(fmt.Errorf("fl: tier %d node %d: absorb partial: %w", pa.Tier, pa.Node, err))
		return
	}
	tier.weight += pa.Weight
	tier.survivors += pa.Survivors
	tier.arrived++
}

// Advance closes every group whose span ends at leaf i, from the base tier
// up to the top. Callers advance past every leaf (or every base-tier child's
// last leaf) in index order — survivors and dropouts alike.
func (f *TreeFold) Advance(i int) {
	f.tiers[f.base].attempted++
	for t := f.base; t <= f.top; t++ {
		if (i+1)%f.tiers[t].span != 0 && i+1 != f.n {
			return
		}
		f.closeGroup(t, i)
	}
}

// closeGroup finalizes tier t's open group ending at leaf i: quorum-check it,
// then either ship it into the parent's open group or discard the subtree.
func (f *TreeFold) closeGroup(t, i int) {
	endSpan := f.sink.Span(obs.SpanFLTierFold, f.labels...)
	defer endSpan()
	tier, parent := f.tiers[t], f.tiers[t+1]
	node := tier.leafLo / tier.span
	at := tier.latest
	required := 0
	if f.cfg.TierQuorum > 0 {
		required = int(math.Ceil(f.cfg.TierQuorum * float64(tier.attempted)))
	}
	switch {
	case tier.arrived < required:
		// Subtree drop: the partial never leaves this node. Deferred
		// normalization means the parent renormalizes over its surviving
		// children implicitly — the dropped weight simply never reaches the
		// root divisor.
		f.dropped = append(f.dropped, [2]int{tier.leafLo, i})
		f.stats.SubtreeDrops++
		f.stats.DropLeaves += tier.survivors
		f.sink.Count(obs.MetricFLSubtreeDrops, 1)
		f.record(ledger.Event{
			Kind: ledger.KindSubtreeDrop, Round: f.round, TraceID: f.tc.TraceID,
			Tier: t, Node: node, Survivors: tier.arrived, Selected: tier.attempted,
			Detail: fmt.Sprintf("quorum %d/%d", tier.arrived, required),
		})
	case tier.arrived == 0:
		// Vacuous group (every leaf below already dropped individually, no
		// tier quorum configured): nothing to forward, nothing to journal.
	case f.ship(t, node, i):
		at += f.hop
		f.merge(tier, parent)
	}
	parent.attempted++
	if at > parent.latest {
		parent.latest = at
	}
	tier.vec.Reset()
	tier.weight, tier.arrived, tier.attempted, tier.survivors = 0, 0, 0, 0
	tier.latest, tier.leafLo = 0, i+1
}

// ship encodes tier t's open group (node, ending at leaf i) as a partial
// frame, counting its bytes, and journals it. It reports whether a frame was
// produced.
func (f *TreeFold) ship(t, node, i int) bool {
	tier := f.tiers[t]
	sum := f.last.Sum
	tier.vec.SerializeInto(&sum)
	f.last = PartialAggregate{
		Round: f.round, Tier: t, Node: node,
		LeafLo: tier.leafLo, LeafHi: i,
		Survivors: tier.survivors, Weight: tier.weight,
		Sum: sum, Trace: f.tc,
	}
	f.count = 0
	if err := EncodePartialAggregate(&f.count, f.last); err != nil {
		f.fail(fmt.Errorf("fl: tier %d node %d: encode partial: %w", t, node, err))
		return false
	}
	wire := int64(f.count)
	f.stats.Partials++
	f.stats.WireBytes += wire
	f.sink.Count(obs.MetricFLPartials, 1)
	f.sink.Count(obs.MetricFLWireTx, float64(wire), partialCodecLabel...)
	f.record(ledger.Event{
		Kind: ledger.KindPartial, Round: f.round, TraceID: f.tc.TraceID,
		Tier: t, Node: node, Survivors: tier.arrived, Selected: tier.attempted,
		Weight: tier.weight, WireTxBytes: wire,
	})
	return true
}

// merge folds a shipped group into its parent's open group, carrying its
// weight and leaf survivors. AddVec is exact, so the parent ends up
// bit-identical to absorbing the group's decoded frame.
func (f *TreeFold) merge(group, parent *treeTier) {
	if err := parent.vec.AddVec(group.vec); err != nil {
		f.fail(fmt.Errorf("fl: merge partial: %w", err))
		return
	}
	parent.weight += group.weight
	parent.survivors += group.survivors
	parent.arrived++
}

func (f *TreeFold) record(ev ledger.Event) {
	if f.journal != nil {
		f.journal(ev)
	}
}

func (f *TreeFold) fail(err error) {
	if f.err == nil {
		f.err = err
	}
}

// Partial fills pa with the top group's partial — the frame's metadata and
// a copy of its serialized window, reusing pa.Sum.Limbs when it has capacity
// — and reports whether the top group shipped one: for a caller that
// forwards the partial to another spine's Child. The top group is the root
// tier's only arrival. Valid only after the run's last Advance.
func (f *TreeFold) Partial(pa *PartialAggregate) bool {
	if f.top < f.base || f.tiers[f.top+1].arrived == 0 {
		return false
	}
	limbs := append(pa.Sum.Limbs[:0], f.last.Sum.Limbs...)
	*pa = f.last
	pa.Sum.Limbs = limbs
	return true
}

// Root returns the root accumulator (tier top+1), into which the top group
// merged if it shipped, with its total weight and leaf survivors. Valid only
// after the run's last Advance.
func (f *TreeFold) Root() (vec *exact.Vec, weight int64, survivors int) {
	root := f.tiers[f.top+1]
	return root.vec, root.weight, root.survivors
}

// CompleteAt returns when the top group's result reached its parent: the
// latest child completion time below it, plus the hop when it shipped.
func (f *TreeFold) CompleteAt() float64 { return f.tiers[f.top+1].latest }

// Stats returns the run's tier traffic and quorum losses.
func (f *TreeFold) Stats() TreeStats { return f.stats }

// Err returns the run's first wire or merge failure.
func (f *TreeFold) Err() error { return f.err }

// treeDropped reports whether leaf i fell inside a discarded subtree.
func (f *TreeFold) treeDropped(i int) bool {
	for _, s := range f.dropped {
		if i >= s[0] && i <= s[1] {
			return true
		}
	}
	return false
}

// MemoryBytes reports the spine's accumulator footprint — O(depth · params).
func (f *TreeFold) MemoryBytes() int64 {
	var total int64
	for _, t := range f.tiers {
		total += t.vec.MemoryBytes()
	}
	return total
}
