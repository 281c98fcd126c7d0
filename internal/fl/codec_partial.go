package fl

// Partial-aggregate frames: the tier-to-tier wire format of hierarchical
// aggregation. A tier aggregator folds its children exactly (internal/exact)
// and ships the accumulator window — not a rounded float64 vector — to its
// parent, so the root commit is bit-identical to the flat fold no matter how
// the tree is shaped. The frame reuses the BFL1 layout with a new flag bit
// (flagLimbs): the payload section carries the limbs of the window instead
// of IEEE-754 parameters, and the metadata section carries the tier topology
// plus the exact-accumulator window descriptor. Round request/response
// decoders keep rejecting the bit — a partial frame can never be smuggled
// into the client data plane.
//
// The limb payload takes one of two forms, told apart by flagPacked:
//
//   - raw: count little-endian uint64 limbs, for windows whose raw size is
//     below packThreshold (every fleet close);
//   - packed (flagPacked): each non-zero limb as the uvarint of its zigzag
//     image, each run of k zero limbs as a 0x00 byte and uvarint(k−1), then
//     a 4-byte LE CRC-32 (IEEE) of those bytes. No non-zero limb's uvarint
//     starts with 0x00, so the marker is unambiguous. The limbs are small
//     signed digits in 8-byte words; packing strips that redundancy at
//     memory speed, where deflate has to find it again by LZ matching: on
//     round-http's windows a packed frame is about 5% larger than a
//     deflated one for a thirteenth of the CPU (DESIGN §7).
//
// Partial frames carry no frame CRC (a packed payload has its own), and the
// decoder rejects every other flag bit.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"bofl/internal/exact"
	"bofl/internal/obs"
)

const (
	// flagLimbs marks a partial-aggregate frame: payload is the limbs of an
	// exact accumulator window, not float64 parameters.
	flagLimbs byte = 1 << 2
	// flagPacked marks a packed limb payload (zigzag uvarints, zero runs,
	// CRC-32); valid only beside flagLimbs.
	flagPacked byte = 1 << 4

	// packThreshold is the raw limb window size in bytes at which the
	// encoder packs. Smaller windows, every fleet close (8.2 kB at dim 256)
	// among them, ship raw.
	packThreshold = 64 << 10

	// maxPackedLimb is the most bytes one packed limb costs: a non-zero
	// limb's uvarint takes at most 10, a run of k zero limbs 1+uvarint(k−1)
	// ≤ 2k, so a packed payload of count limbs never exceeds
	// maxPackedLimb·count+4.
	maxPackedLimb = binary.MaxVarintLen64
)

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
// set. A window whose raw limbs reach packThreshold is packed.
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
	var payload []byte
	if n := len(pa.Sum.Limbs); n*8 >= packThreshold {
		flags |= flagPacked
		pp := getBytes(maxPackedLimb*n + 4)
		defer putBytes(pp)
		payload = packLimbs(*pp, pa.Sum.Limbs)
	} else {
		raw := getBytes(n * 8)
		defer putBytes(raw)
		for i, l := range pa.Sum.Limbs {
			binary.LittleEndian.PutUint64((*raw)[i*8:], l)
		}
		payload = *raw
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
	if flags&flagLimbs == 0 || flags&^(flagLimbs|flagPacked) != 0 {
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
	packed := flags&flagPacked != 0
	if !packed && payloadLen != count*8 {
		return fmt.Errorf("%w: payload %d bytes, want %d", ErrCorruptFrame, payloadLen, count*8)
	}
	if packed && uint64(payloadLen) > maxPackedLimb*uint64(count)+4 {
		return fmt.Errorf("%w: packed payload %d bytes for %d limbs", ErrCorruptFrame, payloadLen, count)
	}
	wire := bytesPool.Get().(*[]byte)
	defer putBytes(wire)
	payload, err := readGrow(r, wire, int(payloadLen))
	if err != nil {
		return fmt.Errorf("%w: read payload: %w", ErrCorruptFrame, err)
	}
	if packed {
		// Walk the whole stream before sizing the limb buffer: a few bytes
		// of zero runs can claim any count up to maxFrameParams.
		if payload, err = packedStream(payload); err != nil {
			return err
		}
		if err := unpackLimbs(nil, payload, int(count)); err != nil {
			return err
		}
	}

	if cap(limbs) < int(count) {
		limbs = make([]uint64, count)
	}
	limbs = limbs[:count]
	if packed {
		unpackLimbs(limbs, payload, int(count)) // walked above, so it cannot fail
	} else {
		for i := range limbs {
			limbs[i] = binary.LittleEndian.Uint64(payload[i*8:])
		}
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

// packLimbs writes limbs into dst in the packed form and returns the payload
// dst[:n]: the limb stream, then its CRC-32. dst must hold
// maxPackedLimb·len(limbs)+4 bytes.
func packLimbs(dst []byte, limbs []uint64) []byte {
	n := 0
	for i := 0; i < len(limbs); {
		if l := int64(limbs[i]); l != 0 {
			n += binary.PutUvarint(dst[n:], uint64(l<<1)^uint64(l>>63))
			i++
			continue
		}
		j := i + 1
		for j < len(limbs) && limbs[j] == 0 {
			j++
		}
		dst[n] = 0
		n += 1 + binary.PutUvarint(dst[n+1:], uint64(j-i-1))
		i = j
	}
	binary.LittleEndian.PutUint32(dst[n:], crc32.ChecksumIEEE(dst[:n]))
	return dst[:n+4]
}

// packedStream checks a packed payload's CRC and returns the limb stream
// before it.
func packedStream(payload []byte) ([]byte, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("%w: packed payload %d bytes, no room for its CRC", ErrCorruptFrame, len(payload))
	}
	stream := payload[:len(payload)-4]
	if crc32.ChecksumIEEE(stream) != binary.LittleEndian.Uint32(payload[len(stream):]) {
		return nil, fmt.Errorf("%w: packed payload CRC mismatch", ErrCorruptFrame)
	}
	return stream, nil
}

// unpackLimbs walks a packed limb stream, writing its limbs into dst unless
// dst is nil, and fails unless the stream holds exactly count limbs with no
// byte left over; dst, when given, has length count. A walk with dst nil
// allocates nothing, so the decoder rejects a hostile stream before it
// sizes the limb buffer.
func unpackLimbs(dst []uint64, stream []byte, count int) error {
	n := 0
	for i := 0; i < len(stream); {
		if n == count {
			return fmt.Errorf("%w: %d bytes past the last of %d limbs", ErrCorruptFrame, len(stream)-i, count)
		}
		run := stream[i] == 0
		if run {
			i++
		}
		v, m := binary.Uvarint(stream[i:])
		if m <= 0 {
			return fmt.Errorf("%w: unterminated or over-long uvarint at byte %d", ErrCorruptFrame, i)
		}
		i += m
		if !run {
			if dst != nil {
				dst[n] = uint64(int64(v>>1) ^ -int64(v&1))
			}
			n++
			continue
		}
		if v >= uint64(count-n) {
			return fmt.Errorf("%w: zero run of %d+1 limbs past the %d left", ErrCorruptFrame, v, count-n)
		}
		if dst != nil {
			clear(dst[n : n+int(v)+1])
		}
		n += int(v) + 1
	}
	if n != count {
		return fmt.Errorf("%w: packed payload holds %d of %d limbs", ErrCorruptFrame, n, count)
	}
	return nil
}
