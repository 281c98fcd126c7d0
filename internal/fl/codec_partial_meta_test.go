package fl

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"bofl/internal/exact"
	"bofl/internal/obs"
)

// TestPartialMetaFastCodecMatchesJSON pins the hand-rolled metadata codec to
// encoding/json: for a spread of metas the fast marshaller must emit the
// exact bytes json.Marshal produces, and the fast parser must round-trip them
// to the same struct. This is what keeps the wire format stable while the
// fleet hot path skips reflection.
func TestPartialMetaFastCodecMatchesJSON(t *testing.T) {
	metas := []partialMeta{
		{},
		{Round: 1, Tier: 2, Node: 3, LeafLo: 0, LeafHi: 63, Survivors: 60, Weight: 900,
			Dim: 256, WindowLo: 31, WindowHi: 36, Adds: 61},
		{Round: -7, Tier: 0, Node: 1 << 30, LeafLo: -1, LeafHi: 1<<62 - 1,
			Survivors: 999999, Weight: -1 << 62, Dim: 1, WindowLo: 0, WindowHi: 66, Adds: 1},
		{Round: 12, Weight: 5, Dim: 4, Adds: 2, TraceID: "0123456789abcdef", SpanID: "fedcba98"},
		{Round: 3, Dim: 2, Adds: 1, Specials: []uint8{0, 3}},
		{Round: 3, Dim: 2, Adds: 1, Specials: []uint8{1, 0, 255}, TraceID: "t1", SpanID: "s2"},
	}
	for i, m := range metas {
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("meta %d: marshal: %v", i, err)
		}
		got, fast := appendPartialMeta(nil, &m)
		if !fast {
			t.Fatalf("meta %d: fast marshal refused", i)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("meta %d: fast marshal\n got %s\nwant %s", i, got, want)
		}
		var back partialMeta
		if !parsePartialMeta(got, &back) {
			t.Fatalf("meta %d: fast parse refused canonical bytes %s", i, got)
		}
		var ref partialMeta
		if err := json.Unmarshal(want, &ref); err != nil {
			t.Fatalf("meta %d: reference unmarshal: %v", i, err)
		}
		if !metaEqual(back, ref) {
			t.Fatalf("meta %d: fast parse %+v, reference %+v", i, back, ref)
		}
	}
}

// TestPartialMetaFastCodecFallbacks checks the guardrails: strings that need
// JSON escaping refuse the fast marshal, and non-canonical (but potentially
// valid) JSON refuses the fast parse — both land on encoding/json.
func TestPartialMetaFastCodecFallbacks(t *testing.T) {
	for _, id := range []string{"a\"b", "a\\b", "<tag>", "a&b", "snowman☃", "ctl\x01"} {
		m := partialMeta{TraceID: id}
		if _, fast := appendPartialMeta(nil, &m); fast {
			t.Fatalf("fast marshal accepted escape-needing trace id %q", id)
		}
	}
	bad := []string{
		``,
		`{}`,
		` {"round":1,"tier":0,"node":0,"leafLo":0,"leafHi":0,"survivors":0,"weight":0,"dim":1,"windowLo":0,"windowHi":0,"adds":1}`,
		`{"tier":0,"round":1,"node":0,"leafLo":0,"leafHi":0,"survivors":0,"weight":0,"dim":1,"windowLo":0,"windowHi":0,"adds":1}`,
		`{"round":1,"tier":0,"node":0,"leafLo":0,"leafHi":0,"survivors":0,"weight":0,"dim":1,"windowLo":0,"windowHi":0,"adds":1,"extra":2}`,
		`{"round":99999999999999999999,"tier":0,"node":0,"leafLo":0,"leafHi":0,"survivors":0,"weight":0,"dim":1,"windowLo":0,"windowHi":0,"adds":1}`,
		`{"round":1,"tier":0,"node":0,"leafLo":0,"leafHi":0,"survivors":0,"weight":0,"dim":1,"windowLo":0,"windowHi":0,"adds":1,"specials":"!!"}`,
	}
	var m partialMeta
	for _, b := range bad {
		if parsePartialMeta([]byte(b), &m) {
			t.Fatalf("fast parse accepted non-canonical %q", b)
		}
	}
	// The fallback still decodes reordered-but-valid JSON via the frame path:
	// canonical round-trips are covered by the partial-aggregate codec tests.
}

func metaEqual(a, b partialMeta) bool {
	if len(a.Specials) != len(b.Specials) {
		return false
	}
	for i := range a.Specials {
		if a.Specials[i] != b.Specials[i] {
			return false
		}
	}
	return a.Round == b.Round && a.Tier == b.Tier && a.Node == b.Node &&
		a.LeafLo == b.LeafLo && a.LeafHi == b.LeafHi &&
		a.Survivors == b.Survivors && a.Weight == b.Weight &&
		a.Dim == b.Dim && a.WindowLo == b.WindowLo && a.WindowHi == b.WindowHi &&
		a.Adds == b.Adds && a.TraceID == b.TraceID && a.SpanID == b.SpanID
}

// TestPartialFrameCycleAllocs pins the pooled tier-to-tier wire path: once
// the codec pools are warm, a full SerializeInto → Encode → DecodeInto →
// Absorb cycle — what a tier aggregator in another process would run per
// node close; the in-process spine only encodes, to count the bytes — must
// stay on pooled state, raw or packed: at dim 256 (a fleet close, below
// compressThreshold) and at the round-http model's dim, whose window is
// packed. It allocates at most a handful of objects; the budget tolerates
// pool churn under GC pressure while catching any per-frame regression
// (escaping headers, metadata structs, trace strings, a frame-sized buffer
// escaping its pool).
func TestPartialFrameCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector's sync.Pool drops Puts; alloc counts are meaningless")
	}
	for _, tc := range []struct {
		dim    int
		packed bool // the limb window reaches compressThreshold
		runs   int
	}{
		{dim: 256, runs: 10},
		{dim: 16_672, packed: true, runs: 100},
	} {
		x := make([]float64, tc.dim)
		for i := range x {
			x[i] = float64(i%17)/16 + 0.5
		}
		v := exact.NewVec(tc.dim)
		v.AddScaled(3, x)
		parent := exact.NewVec(tc.dim)

		var (
			ser      exact.Serialized
			buf      bytes.Buffer
			dec      PartialAggregate
			flags    byte
			frameLen int
		)
		cycle := func() {
			v.SerializeInto(&ser)
			pa := PartialAggregate{
				Round: 1, Tier: 2, Node: 3, LeafLo: 0, LeafHi: 63,
				Survivors: 60, Weight: 120, Sum: ser,
				Trace: obs.TraceContext{TraceID: "0123456789abcdef0123456789abcdef", SpanID: "0123456789abcdef"},
			}
			buf.Reset()
			if err := EncodePartialAggregate(&buf, pa); err != nil {
				t.Fatal(err)
			}
			flags, frameLen = buf.Bytes()[4], buf.Len()
			if err := DecodePartialAggregateInto(&buf, &dec); err != nil {
				t.Fatal(err)
			}
			parent.Reset()
			if err := parent.Absorb(dec.Sum); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ { // warm the byte and meta pools
			cycle()
		}
		if got := flags&flagPacked != 0; got != tc.packed {
			t.Fatalf("dim %d: packed flag %v, want %v", tc.dim, got, tc.packed)
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		avg := testing.AllocsPerRun(tc.runs, cycle)
		runtime.ReadMemStats(&after)
		// AllocsPerRun makes one warm-up call before its runs.
		perCycle := float64(after.TotalAlloc-before.TotalAlloc) / float64(tc.runs+1)
		t.Logf("dim %d partial frame cycle: %.1f allocs, %.0f B (limb window %d B, frame %d B)",
			tc.dim, avg, perCycle, len(ser.Limbs)*8, frameLen)
		if avg > 4 {
			t.Fatalf("dim %d: pooled partial frame cycle allocates %.1f times, budget 4", tc.dim, avg)
		}
	}
}
