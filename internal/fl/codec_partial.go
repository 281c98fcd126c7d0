package fl

// Partial-aggregate frames: the tier-to-tier wire format of hierarchical
// aggregation. A tier aggregator folds its children exactly (internal/exact)
// and ships the accumulator window — not a rounded float64 vector — to its
// parent, so the root commit is bit-identical to the flat fold no matter how
// the tree is shaped. The frame reuses the BFL1 layout with a new flag bit
// (flagLimbs): the payload section carries little-endian uint64 limbs instead
// of IEEE-754 parameters, and the metadata section carries the tier topology
// plus the exact-accumulator window descriptor. Round request/response
// decoders keep rejecting the bit — a partial frame can never be smuggled
// into the client data plane.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"bofl/internal/exact"
	"bofl/internal/obs"
)

// flagLimbs marks a partial-aggregate frame: payload is uint64 limbs of an
// exact accumulator window, not float64 parameters.
const flagLimbs byte = 1 << 2

// metaPool recycles decode-side metadata structs; a local would escape into
// the encoding/json fallback path and allocate per frame.
var metaPool = sync.Pool{New: func() any { return new(partialMeta) }}

// PartialAggregate is one tier aggregator's weighted partial sum plus the
// topology needed to audit it: which tier and node produced it, which leaf
// span it covers, how many leaves survived into it and their total integer
// weight. Sum is the exact accumulator window; the parent absorbs it without
// rounding.
type PartialAggregate struct {
	Round     int
	Tier      int // tier of the producing aggregator (leaves fold into tier 0)
	Node      int // tier-local node ordinal, left to right
	LeafLo    int // first leaf index of the node's span (inclusive)
	LeafHi    int // last leaf index of the node's span (inclusive)
	Survivors int // leaves folded into the partial
	Weight    int64
	Sum       exact.Serialized
	Trace     obs.TraceContext
}

// partialMeta is the frame metadata section of a partial-aggregate frame.
type partialMeta struct {
	Round     int     `json:"round"`
	Tier      int     `json:"tier"`
	Node      int     `json:"node"`
	LeafLo    int     `json:"leafLo"`
	LeafHi    int     `json:"leafHi"`
	Survivors int     `json:"survivors"`
	Weight    int64   `json:"weight"`
	Dim       int     `json:"dim"`
	WindowLo  int     `json:"windowLo"`
	WindowHi  int     `json:"windowHi"`
	Adds      int64   `json:"adds"`
	Specials  []uint8 `json:"specials,omitempty"` // JSON base64
	TraceID   string  `json:"traceId,omitempty"`
	SpanID    string  `json:"spanId,omitempty"`
}

// EncodePartialAggregate writes pa to w as one BFL1 frame with the limbs flag
// set. Large windows gzip like any other payload.
func EncodePartialAggregate(w io.Writer, pa PartialAggregate) error {
	meta := partialMeta{
		Round: pa.Round, Tier: pa.Tier, Node: pa.Node,
		LeafLo: pa.LeafLo, LeafHi: pa.LeafHi,
		Survivors: pa.Survivors, Weight: pa.Weight,
		Dim: pa.Sum.Dim, WindowLo: pa.Sum.Lo, WindowHi: pa.Sum.Hi, Adds: pa.Sum.Adds,
		Specials: pa.Sum.Specials,
		TraceID:  pa.Trace.TraceID, SpanID: pa.Trace.SpanID,
	}
	mbp := getBytes(64)
	defer putBytes(mbp)
	mb, fast := appendPartialMeta((*mbp)[:0], &meta)
	if !fast {
		var err error
		if mb, err = jsonMarshalMeta(meta); err != nil {
			return err
		}
	} else if len(mb) > maxMetaBytes {
		return fmt.Errorf("fl: frame meta %d bytes exceeds %d", len(mb), maxMetaBytes)
	} else {
		*mbp = mb // keep any growth when the buffer returns to the pool
	}
	if len(pa.Sum.Limbs) > maxFrameParams {
		return fmt.Errorf("fl: %d limbs exceed frame limit %d", len(pa.Sum.Limbs), maxFrameParams)
	}
	flags := flagLimbs
	raw := getBytes(len(pa.Sum.Limbs) * 8)
	defer putBytes(raw)
	for i, l := range pa.Sum.Limbs {
		binary.LittleEndian.PutUint64((*raw)[i*8:], l)
	}
	payload := *raw
	if len(payload) >= gzipThreshold {
		comp, err := deflate(payload)
		if err != nil {
			return fmt.Errorf("fl: gzip partial payload: %w", err)
		}
		defer putBuf(comp)
		flags |= flagGzip
		payload = comp.Bytes()
	}

	// Pooled header scratch: a stack array would escape through the io.Writer
	// interface and cost one heap allocation per frame.
	hp := getBytes(17)
	defer putBytes(hp)
	hdr := *hp
	copy(hdr[:4], frameMagic[:])
	hdr[4] = flags
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(len(mb)))
	if _, err := w.Write(hdr[:9]); err != nil {
		return fmt.Errorf("fl: write partial header: %w", err)
	}
	if _, err := w.Write(mb); err != nil {
		return fmt.Errorf("fl: write partial meta: %w", err)
	}
	binary.LittleEndian.PutUint32(hdr[9:13], uint32(len(pa.Sum.Limbs)))
	binary.LittleEndian.PutUint32(hdr[13:17], uint32(len(payload)))
	if _, err := w.Write(hdr[9:17]); err != nil {
		return fmt.Errorf("fl: write partial header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("fl: write partial payload: %w", err)
	}
	return nil
}

// DecodePartialAggregate reads one partial-aggregate frame. Structural damage
// returns ErrCorruptFrame exactly like the round codecs; a decoded frame still
// has to pass exact.Vec.Absorb's window validation before it can touch an
// accumulator.
func DecodePartialAggregate(r io.Reader) (PartialAggregate, error) {
	var pa PartialAggregate
	if err := DecodePartialAggregateInto(r, &pa); err != nil {
		return PartialAggregate{}, err
	}
	return pa, nil
}

// DecodePartialAggregateInto is DecodePartialAggregate decoding into a
// caller-owned frame, reusing pa.Sum.Limbs when it has capacity — the
// zero-allocation path for aggregators that decode one frame per tier close.
// On error *pa is left zeroed (its limb capacity is kept for reuse).
func DecodePartialAggregateInto(r io.Reader, pa *PartialAggregate) error {
	limbs := pa.Sum.Limbs[:0]
	prevTrace := pa.Trace // reuse hint: same-round frames repeat their ids
	*pa = PartialAggregate{Sum: exact.Serialized{Limbs: limbs}}
	// Pooled header/trailer scratch: stack arrays would escape through the
	// io.Reader interface and cost two heap allocations per frame.
	hp := getBytes(17)
	defer putBytes(hp)
	hdr := (*hp)[:9]
	tail := (*hp)[9:17]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return fmt.Errorf("%w: read header: %w", ErrCorruptFrame, err)
	}
	if !bytes.Equal(hdr[:4], frameMagic[:]) {
		return fmt.Errorf("%w: bad magic %q", ErrCorruptFrame, hdr[:4])
	}
	flags := hdr[4]
	if flags&flagLimbs == 0 || flags&^(flagGzip|flagLimbs) != 0 {
		return fmt.Errorf("%w: not a partial-aggregate frame (flags %#x)", ErrCorruptFrame, flags)
	}
	metaLen := binary.LittleEndian.Uint32(hdr[5:9])
	if metaLen > maxMetaBytes {
		return fmt.Errorf("%w: meta %d bytes exceeds %d", ErrCorruptFrame, metaLen, maxMetaBytes)
	}
	mbp := bytesPool.Get().(*[]byte)
	defer putBytes(mbp)
	mb, err := readGrow(r, mbp, int(metaLen))
	if err != nil {
		return fmt.Errorf("%w: read meta: %w", ErrCorruptFrame, err)
	}
	meta := metaPool.Get().(*partialMeta)
	defer metaPool.Put(meta)
	*meta = partialMeta{TraceID: prevTrace.TraceID, SpanID: prevTrace.SpanID}
	if !parsePartialMeta(mb, meta) {
		// Non-canonical but possibly valid JSON (reordered fields, escapes,
		// whitespace): let encoding/json be the arbiter.
		*meta = partialMeta{}
		if err := jsonUnmarshalMeta(mb, meta); err != nil {
			return err
		}
	}

	if _, err := io.ReadFull(r, tail); err != nil {
		return fmt.Errorf("%w: read header: %w", ErrCorruptFrame, err)
	}
	count := binary.LittleEndian.Uint32(tail[:4])
	payloadLen := binary.LittleEndian.Uint32(tail[4:8])
	if count > maxFrameParams {
		return fmt.Errorf("%w: claims %d limbs, limit %d", ErrCorruptFrame, count, maxFrameParams)
	}
	wire, inflated := bytesPool.Get().(*[]byte), bytesPool.Get().(*[]byte)
	defer putBytes(wire)
	defer putBytes(inflated)
	raw, err := readPayload(r, flags&flagGzip != 0, payloadLen, int(count)*8, wire, inflated)
	if err != nil {
		return err
	}

	if cap(limbs) < int(count) {
		limbs = make([]uint64, count)
	}
	limbs = limbs[:count]
	for i := range limbs {
		limbs[i] = binary.LittleEndian.Uint64(raw[i*8:])
	}
	*pa = PartialAggregate{
		Round: meta.Round, Tier: meta.Tier, Node: meta.Node,
		LeafLo: meta.LeafLo, LeafHi: meta.LeafHi,
		Survivors: meta.Survivors, Weight: meta.Weight,
		Sum: exact.Serialized{
			Dim: meta.Dim, Lo: meta.WindowLo, Hi: meta.WindowHi,
			Adds: meta.Adds, Limbs: limbs, Specials: meta.Specials,
		},
		Trace: obs.TraceContext{TraceID: meta.TraceID, SpanID: meta.SpanID},
	}
	return nil
}
