package fl

import (
	"bytes"
	"compress/gzip"
	"math"
	"reflect"
	"testing"

	"bofl/internal/exact"
	"bofl/internal/obs"
)

// bigPartial is a tier partial whose limb window is above gzipThreshold and
// whose sum holds specials (NaN, ±Inf) next to finite values spread over
// several limb planes.
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
		bigPartial(), // BestSpeed gzip
	} {
		var buf bytes.Buffer
		if err := EncodePartialAggregate(&buf, pa); err != nil {
			f.Fatal(err)
		}
		frames = append(frames, buf.Bytes())
	}
	if frames[2][4]&flagGzip == 0 {
		f.Fatal("big partial did not take the gzip path")
	}
	frames = append(frames, regzipFrame(f, frames[2], gzip.DefaultCompression))
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
	})
}
