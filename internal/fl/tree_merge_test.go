package fl

// The in-memory tier merge against the wire path it stands in for. A close
// merges its group into the parent with exact.Vec.AddVec and only counts the
// bytes of the partial frame it encodes; a distributed tier would decode
// that frame and Absorb it instead. These tests rebuild the wire path beside
// a live spine and require the two to agree bit for bit.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"bofl/internal/exact"
	"bofl/internal/obs"
	"bofl/internal/obs/ledger"
)

// shadowTier is one tier's open group as the wire path would hold it: the
// decoded children absorbed into an accumulator, plus their weight and leaf
// survivors.
type shadowTier struct {
	vec       *exact.Vec
	weight    int64
	survivors int
}

// requireSameSum fails unless two serialized windows match exactly.
func requireSameSum(t *testing.T, label string, got, want exact.Serialized) {
	t.Helper()
	if got.Dim != want.Dim || got.Lo != want.Lo || got.Hi != want.Hi || got.Adds != want.Adds {
		t.Fatalf("%s: window dim %d [%d,%d) adds %d, want dim %d [%d,%d) adds %d", label,
			got.Dim, got.Lo, got.Hi, got.Adds, want.Dim, want.Lo, want.Hi, want.Adds)
	}
	if !slices.Equal(got.Limbs, want.Limbs) {
		t.Fatalf("%s: limbs differ", label)
	}
	if !slices.Equal(got.Specials, want.Specials) {
		t.Fatalf("%s: special flags differ", label)
	}
}

// TestTreeMergeMatchesDecodedFrames installs a journal on a TreeFold and, at
// every partial event, re-encodes the closing group into a real buffer: the
// frame's length must equal the event's WireTxBytes, and the decoded frame
// must equal the group's state as the wire path builds it — leaves folded
// at tier 0, decoded child frames absorbed above. The decoded frames then
// feed the wire path's parent, so a merge that drops weight, survivors or
// limbs shows up at the parent's close; Root must equal the wire path's
// root, and Partial the decoded top frame. Fanouts 2, 3 and 64, tier quorum
// 0 and 0.5, dims below and above packThreshold (raw and packed limb
// payloads), dropouts, specials and an all-zero group, over two rounds on
// one reused spine.
func TestTreeMergeMatchesDecodedFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(20261018))
	// Dim 3,000 makes a three-plane window 72 kB, past packThreshold, so
	// those frames ship packed.
	for _, dim := range []int{96, 3_000} {
		for _, fanout := range []int{2, 3, 64} {
			for _, quorum := range []float64{0, 0.5} {
				t.Run(fmt.Sprintf("dim%d/fanout%d/quorum%v", dim, fanout, quorum), func(t *testing.T) {
					n := 30
					if fanout == 64 {
						n = 150
					}
					checkTreeMerge(t, rng, dim, n, fanout, quorum)
				})
			}
		}
	}
}

func checkTreeMerge(t *testing.T, rng *rand.Rand, dim, n, fanout int, quorum float64) {
	top := TreeDepth(fanout, n)
	shadow := make([]shadowTier, top+2)
	resetShadow := func(s *shadowTier) {
		if s.vec == nil {
			s.vec = exact.NewVec(dim)
		}
		s.vec.Reset()
		s.weight, s.survivors = 0, 0
	}
	var (
		f        *TreeFold
		round    int
		tc       obs.TraceContext
		topFrame PartialAggregate
		partials int
		packed   bool
	)
	journal := func(ev ledger.Event) {
		switch ev.Kind {
		case ledger.KindSubtreeDrop:
			resetShadow(&shadow[ev.Tier])
		case ledger.KindPartial:
			partials++
			label := fmt.Sprintf("round %d tier %d node %d", round, ev.Tier, ev.Node)
			// Re-encode the closing group from the spine's own state.
			tier := f.tiers[ev.Tier]
			sent := PartialAggregate{
				Round: round, Tier: ev.Tier, Node: ev.Node,
				LeafLo: tier.leafLo, LeafHi: min(tier.leafLo+tier.span, n) - 1,
				Survivors: tier.survivors, Weight: tier.weight,
				Sum: tier.vec.Serialize(), Trace: tc,
			}
			if ev.Weight != tier.weight {
				t.Fatalf("%s: event weight %d, group weight %d", label, ev.Weight, tier.weight)
			}
			var buf bytes.Buffer
			if err := EncodePartialAggregate(&buf, sent); err != nil {
				t.Fatal(err)
			}
			if int64(buf.Len()) != ev.WireTxBytes {
				t.Fatalf("%s: frame is %d bytes, event reports %d", label, buf.Len(), ev.WireTxBytes)
			}
			isPacked := buf.Bytes()[4]&flagPacked != 0
			if wantPacked := len(sent.Sum.Limbs)*8 >= packThreshold; isPacked != wantPacked {
				t.Fatalf("%s: packed flag %v for a %d-limb window, want %v", label, isPacked, len(sent.Sum.Limbs), wantPacked)
			}
			packed = packed || isPacked
			dec, err := DecodePartialAggregate(&buf)
			if err != nil {
				t.Fatal(err)
			}
			// The wire path's view of the same group.
			want := &shadow[ev.Tier]
			requireSameSum(t, label, dec.Sum, want.vec.Serialize())
			if dec.Weight != want.weight || dec.Survivors != want.survivors {
				t.Fatalf("%s: frame weight %d survivors %d, want %d and %d",
					label, dec.Weight, dec.Survivors, want.weight, want.survivors)
			}
			parent := &shadow[ev.Tier+1]
			if err := parent.vec.Absorb(dec.Sum); err != nil {
				t.Fatal(err)
			}
			parent.weight += dec.Weight
			parent.survivors += dec.Survivors
			resetShadow(want)
			if ev.Tier == top {
				topFrame = dec
			}
		}
	}
	f = NewTreeFold(TreeConfig{Fanout: fanout, TierQuorum: quorum}, dim, 0, nil, journal)

	x := make([]float64, dim)
	for round = 1; round <= 2; round++ {
		tc = obs.MintTrace(7, round)
		for i := range shadow {
			resetShadow(&shadow[i])
		}
		topFrame = PartialAggregate{}
		f.Reset(round, tc, n, 0, 0, top)
		for i := 0; i < n; i++ {
			if rng.Intn(5) > 0 { // one leaf in five drops out
				for j := range x {
					x[j] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(24)-12)
				}
				switch {
				case i < fanout:
					clear(x) // an all-zero first group: an empty window
				case i == n/2:
					x[rng.Intn(dim)] = math.Inf(1 - 2*rng.Intn(2))
				}
				w := int64(1 + rng.Intn(50))
				scale := float64(w)
				f.Leaf(scale, x, w, 0)
				shadow[0].vec.AddScaled(scale, x)
				shadow[0].weight += w
				shadow[0].survivors++
			}
			f.Advance(i)
		}
		if err := f.Err(); err != nil {
			t.Fatal(err)
		}

		vec, weight, survivors := f.Root()
		want := shadow[top+1]
		requireSameSum(t, fmt.Sprintf("round %d root", round), vec.Serialize(), want.vec.Serialize())
		if weight != want.weight || survivors != want.survivors {
			t.Fatalf("round %d root: weight %d survivors %d, want %d and %d",
				round, weight, survivors, want.weight, want.survivors)
		}

		var pa PartialAggregate
		shipped := f.Partial(&pa)
		if shipped != (topFrame.Weight > 0) {
			t.Fatalf("round %d: Partial reports %v, top frame weight %d", round, shipped, topFrame.Weight)
		}
		if shipped {
			requireSameSum(t, fmt.Sprintf("round %d partial", round), pa.Sum, topFrame.Sum)
			meta := func(p PartialAggregate) [7]int64 {
				return [7]int64{int64(p.Round), int64(p.Tier), int64(p.Node),
					int64(p.LeafLo), int64(p.LeafHi), int64(p.Survivors), p.Weight}
			}
			if meta(pa) != meta(topFrame) || pa.Trace != topFrame.Trace {
				t.Fatalf("round %d: Partial %v %+v, decoded top frame %v %+v",
					round, meta(pa), pa.Trace, meta(topFrame), topFrame.Trace)
			}
		}
	}
	if partials == 0 {
		t.Fatal("no partial frames shipped")
	}
	if wantPacked := dim*8*3 >= packThreshold; packed != wantPacked {
		t.Fatalf("packed frames %v, want %v", packed, wantPacked)
	}
}
