package fl

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"runtime"
	"testing"

	"bofl/internal/exact"
	"bofl/internal/obs"
)

// bigPartial is a tier partial whose limb window is above compressThreshold,
// so it ships packed, and whose sum holds specials (NaN, ±Inf) next to
// finite values spread over several limb planes.
func bigPartial() PartialAggregate {
	const dim = 4096
	x := make([]float64, dim)
	y := make([]float64, dim)
	for i := range x {
		x[i] = float64(i%17)/16 + 0.5
		y[i] = math.Ldexp(float64(i%5)-2, i%7-3)
	}
	x[1], x[2], x[3] = math.NaN(), math.Inf(1), math.Inf(-1)
	v := exact.NewVec(dim)
	v.AddScaled(3, x)
	v.AddScaled(2, y)
	return PartialAggregate{
		Round: 4, Tier: 1, Node: 2, LeafLo: 8, LeafHi: 15,
		Survivors: 7, Weight: 35, Sum: v.Serialize(),
		Trace: obs.TraceContext{TraceID: "0123456789abcdef0123456789abcdef", SpanID: "0123456789abcdef"},
	}
}

// partialFrame builds a partial frame with the given flags that declares
// count limbs and payloadLen payload bytes and carries payload. Its
// metadata is canonical, so decoding it takes the allocation-free meta path.
func partialFrame(tb testing.TB, flags byte, count, payloadLen uint32, payload []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := EncodePartialAggregate(&buf, PartialAggregate{Round: 1, Weight: 1, Survivors: 1}); err != nil {
		tb.Fatal(err)
	}
	return reframe(buf.Bytes(), flags, count, payloadLen, payload)
}

// reframe returns frame's header and metadata under new flags, followed by
// one vector section that declares count values and payloadLen bytes and
// carries payload.
func reframe(frame []byte, flags byte, count, payloadLen uint32, payload []byte) []byte {
	out := bytes.Clone(frame[:9+binary.LittleEndian.Uint32(frame[5:9])])
	out[4] = flags
	out = binary.LittleEndian.AppendUint32(out, count)
	out = binary.LittleEndian.AppendUint32(out, payloadLen)
	return append(out, payload...)
}

// packedRejects are packed partial frames that each break one rule of the
// packed payload, plus a gzipped partial. Each declares maxFrameParams limbs
// (512 MiB) behind a prefix of 256 literal limbs, so a decoder that sized
// its limb buffer before checking the stream would show it.
func packedRejects(tb testing.TB) []packedReject {
	tb.Helper()
	const count = maxFrameParams
	prefix := bytes.Repeat([]byte{0x02}, 256) // 256 limbs of value 1
	stream := func(tail ...byte) []byte { return append(bytes.Clone(prefix), tail...) }
	run := func(k int) []byte { return binary.AppendUvarint([]byte{0}, uint64(k-1)) }
	withCRC := func(s []byte) []byte { return binary.LittleEndian.AppendUint32(s, crc32.ChecksumIEEE(s)) }
	packed := func(payload []byte) []byte {
		return partialFrame(tb, flagLimbs|flagPacked, count, uint32(len(payload)), payload)
	}
	full := stream(run(count - len(prefix))...) // a valid stream of count limbs
	badCRC := withCRC(bytes.Clone(full))
	badCRC[len(badCRC)-1] ^= 0x01
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prefix)
	zw.Close()

	return []packedReject{
		{name: "declared length above 10·count+4", unread: len(full) + 4,
			frame: partialFrame(tb, flagLimbs|flagPacked, count, maxPackedLimb*count+5, withCRC(full))},
		{name: "payload ends inside a uvarint", frame: packed(withCRC(stream(0x80, 0x80)))},
		{name: "11-byte uvarint", frame: packed(withCRC(stream(append(bytes.Repeat([]byte{0x80}, 10), 0x01)...)))},
		{name: "zero run past the limb count", frame: packed(withCRC(stream(run(count - len(prefix) + 1)...)))},
		{name: "zero-run marker with no length", frame: packed(withCRC(stream(0x00)))},
		{name: "byte after the last limb", frame: packed(withCRC(append(bytes.Clone(full), 0x02)))},
		{name: "stream short of the limb count", frame: packed(withCRC(stream()))},
		{name: "wrong CRC", frame: packed(badCRC)},
		{name: "no room for the CRC", frame: packed([]byte{0, 0, 0})},
		{name: "gzip on a partial frame",
			frame: partialFrame(tb, flagLimbs|flagGzip, count, uint32(gz.Len()), gz.Bytes())},
		{name: "gzip beside packed",
			frame: partialFrame(tb, flagLimbs|flagPacked|flagGzip, count, uint32(len(full)+4), withCRC(full))},
		{name: "packed without limbs",
			frame: partialFrame(tb, flagPacked, count, uint32(len(full)+4), withCRC(full))},
	}
}

// packedReject is one frame the partial decoder must refuse; unread, when
// positive, is how many trailing bytes it must refuse without reading.
type packedReject struct {
	name   string
	frame  []byte
	unread int
}

// TestPartialPackedRejects sends the decoder packed payloads that break each
// rule of the format, and gzip on a partial frame. Each must fail
// ErrCorruptFrame having allocated no more than the bytes sent, plus
// errAlloc for the error value it returns; a length above the packed bound
// must fail before the payload is read.
func TestPartialPackedRejects(t *testing.T) {
	const errAlloc = 256
	for _, tc := range packedRejects(t) {
		r := bytes.NewReader(tc.frame)
		var pa PartialAggregate
		err := DecodePartialAggregateInto(r, &pa)
		if !errors.Is(err, ErrCorruptFrame) {
			t.Errorf("%s: err %v, want ErrCorruptFrame", tc.name, err)
			continue
		}
		if tc.unread > 0 && r.Len() != tc.unread {
			t.Errorf("%s: decoder read %d payload bytes, want none", tc.name, tc.unread-r.Len())
		}
		if raceEnabled {
			continue // the race detector's sync.Pool drops Puts
		}
		// Warm decodes fill the pooled scratch, then a decode averages only
		// what the frame makes it hold. Each decodes into a fresh frame, so
		// no limb capacity carries over from an earlier decode.
		const warm, runs = 3, 8
		var before, after runtime.MemStats
		for i := 0; i < warm+runs; i++ {
			if i == warm {
				runtime.ReadMemStats(&before)
			}
			var fresh PartialAggregate
			DecodePartialAggregateInto(bytes.NewReader(tc.frame), &fresh)
		}
		runtime.ReadMemStats(&after)
		if alloc := (after.TotalAlloc - before.TotalAlloc) / runs; alloc > uint64(len(tc.frame)+errAlloc) {
			t.Errorf("%s: %d-byte frame allocated %d bytes per decode", tc.name, len(tc.frame), alloc)
		}
	}
}

// absorbed folds s into a fresh accumulator of its own dim and returns the
// accumulator's serialization, or false when Absorb rejects the window. The
// dim is capped like a real tier's, whose accumulator has the model's dim and
// so at most maxFrameParams slots.
func absorbed(s exact.Serialized) (exact.Serialized, bool) {
	if s.Dim < 0 || s.Dim > maxFrameParams {
		return exact.Serialized{}, false
	}
	v := exact.NewVec(s.Dim)
	if v.Absorb(s) != nil {
		return exact.Serialized{}, false
	}
	return v.Serialize(), true
}

// FuzzPartialAggregate feeds arbitrary bytes to the partial-frame decoder, the
// tier-to-tier wire path. It must never panic, and any frame that decodes and
// that Absorb accepts must re-encode, decode and absorb into a bit-identical
// accumulator.
func FuzzPartialAggregate(f *testing.F) {
	small := exact.NewVec(3)
	small.AddScaled(2, []float64{1.5, -0.25, 1e-300})
	specials := exact.NewVec(4)
	specials.AddScaled(3, []float64{math.NaN(), 2, math.Inf(1), -5e200})

	var frames [][]byte
	for _, pa := range []PartialAggregate{
		{Round: 1, Weight: 2, Survivors: 1, Sum: small.Serialize()},
		{Round: 2, Tier: 1, Weight: 6, Survivors: 3, Sum: specials.Serialize()},
		bigPartial(), // packed
	} {
		var buf bytes.Buffer
		if err := EncodePartialAggregate(&buf, pa); err != nil {
			f.Fatal(err)
		}
		frames = append(frames, buf.Bytes())
	}
	if frames[2][4]&flagPacked == 0 {
		f.Fatal("big partial did not take the packed path")
	}
	// Packed payloads on windows below compressThreshold, which no encoder
	// emits and the decoder accepts.
	frames = append(frames, repackFrame(f, frames[0]), repackFrame(f, frames[1]))
	frames = append(frames, gzipPartialFrame(f, bigPartial(), gzip.DefaultCompression))
	for _, tc := range packedRejects(f) {
		f.Add(tc.frame)
	}
	for _, frame := range frames {
		f.Add(frame)
		f.Add(frame[:9])            // cut inside the meta section
		f.Add(frame[:len(frame)/2]) // cut inside the payload
		f.Add(frame[:len(frame)-1]) // one byte short
		for _, off := range []int{4, 5, 9, len(frame) / 2, len(frame) - 1} {
			flipped := bytes.Clone(frame)
			flipped[off] ^= 0x01
			f.Add(flipped)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		checkPartialRoundTrip(t, data)
		// A mutation almost never keeps the packed payload's CRC, so also
		// decode a copy whose CRC is recomputed: that copy reaches the stream
		// parser behind the checksum.
		if fixed, ok := fixPackedCRC(data); ok {
			checkPartialRoundTrip(t, fixed)
		}
	})
}

// fuzzMaxLimbs caps the limb count of a CRC-fixed fuzz input: a few bytes of
// zero runs can declare up to maxFrameParams limbs, and a decode that holds
// 512 MiB per run would stall the fuzzer.
const fuzzMaxLimbs = 1 << 20

// fixPackedCRC returns a copy of a packed partial frame with its payload's
// CRC recomputed, or false when data is not one (or declares more than
// fuzzMaxLimbs limbs).
func fixPackedCRC(data []byte) ([]byte, bool) {
	if len(data) < 9 || data[4]&flagPacked == 0 {
		return nil, false
	}
	at := 9 + uint64(binary.LittleEndian.Uint32(data[5:9]))
	if uint64(len(data)) < at+8 {
		return nil, false
	}
	count := binary.LittleEndian.Uint32(data[at:])
	end := at + 8 + uint64(binary.LittleEndian.Uint32(data[at+4:]))
	if count > fuzzMaxLimbs || end > uint64(len(data)) || end < at+12 {
		return nil, false
	}
	fixed := bytes.Clone(data)
	stream := fixed[at+8 : end-4]
	binary.LittleEndian.PutUint32(fixed[end-4:], crc32.ChecksumIEEE(stream))
	return fixed, true
}

// repackFrame rewrites a raw partial frame with its limbs packed.
func repackFrame(tb testing.TB, frame []byte) []byte {
	tb.Helper()
	pa, err := DecodePartialAggregate(bytes.NewReader(frame))
	if err != nil {
		tb.Fatal(err)
	}
	n := len(pa.Sum.Limbs)
	payload := packLimbs(make([]byte, maxPackedLimb*n+4), pa.Sum.Limbs)
	return reframe(frame, frame[4]|flagPacked, uint32(n), uint32(len(payload)), payload)
}

// checkPartialRoundTrip decodes data as a partial frame and, when it decodes
// and Absorb accepts its window, requires re-encode, decode and absorb to
// give a bit-identical accumulator and the same metadata.
func checkPartialRoundTrip(t *testing.T, data []byte) {
	t.Helper()
	var pa PartialAggregate
	if err := DecodePartialAggregateInto(bytes.NewReader(data), &pa); err != nil {
		return
	}
	want, ok := absorbed(pa.Sum)
	if !ok {
		return
	}
	var buf bytes.Buffer
	if err := EncodePartialAggregate(&buf, pa); err != nil {
		t.Fatalf("re-encode of decoded frame failed: %v", err)
	}
	var again PartialAggregate
	if err := DecodePartialAggregateInto(&buf, &again); err != nil {
		t.Fatalf("re-decode failed: %v", err)
	}
	got, ok := absorbed(again.Sum)
	if !ok {
		t.Fatalf("re-decoded window rejected by Absorb")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("accumulator drift after round trip: window [%d, %d) adds %d vs [%d, %d) adds %d",
			got.Lo, got.Hi, got.Adds, want.Lo, want.Hi, want.Adds)
	}
	again.Sum, pa.Sum = exact.Serialized{}, exact.Serialized{}
	if !reflect.DeepEqual(again, pa) {
		t.Fatalf("meta drift: %+v vs %+v", again, pa)
	}
}
