package fl

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"bofl/internal/core"
	"bofl/internal/obs"
)

func sampleRequest(params []float64) RoundRequest {
	return RoundRequest{
		Round: 7, Params: params, Jobs: 40, Deadline: 61.5,
		Trace: obs.MintTrace(11, 7),
	}
}

func sampleResponse(params []float64) RoundResponse {
	return RoundResponse{
		ClientID:    "client-3",
		Params:      params,
		NumExamples: 128,
		Report: core.RoundReport{
			Round:       7,
			Energy:      12.5,
			Duration:    3.25,
			DeadlineMet: true,
			Phase:       2,
			FrontSize:   5,
		},
		Spans: []obs.SpanSummary{
			{Name: obs.SpanClientRound, StartNs: 0, DurNs: 3_250_000_000},
			{Name: obs.SpanClientWindow, StartNs: 3_250_000_000, DurNs: 1_000},
		},
	}
}

// bit0 is the frame flag that once marked a gzipped payload. Every decoder
// now rejects it like any other unknown bit.
const bit0 byte = 1 << 0

// inexact returns n values none of which narrows to float32, so a frame
// carries them in the 8-byte form and their payload is exactly 8·n bytes.
func inexact(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 0.1 + float64(i)
	}
	return out
}

// appendCRC appends the CRC-32 (IEEE) of b to it, as a round frame's
// trailer or a packed payload's checksum.
func appendCRC(b []byte) []byte {
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

func paramsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestCodecRoundTrip(t *testing.T) {
	cases := map[string][]float64{
		"empty":    nil,
		"single":   {1.25},
		"f64":      {1.0 / 3.0, math.Pi, -2.7e-300, 1e300},
		"f32exact": {0.5, -1.25, 3, 0, 65504},
		"specials": {math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 42},
	}
	// Payloads one value below, at and above 64 KiB, the size at which they
	// used to deflate, ship raw like any other.
	for _, n := range []int{64<<10/8 - 1, 64 << 10 / 8, 64<<10/8 + 1} {
		cases[fmt.Sprintf("n%d", n)] = inexact(n)
	}
	for name, params := range cases {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			req := sampleRequest(params)
			if err := EncodeRoundRequest(&buf, req); err != nil {
				t.Fatal(err)
			}
			got, err := DecodeRoundRequest(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if got.Round != req.Round || got.Jobs != req.Jobs || got.Deadline != req.Deadline {
				t.Errorf("meta mismatch: %+v vs %+v", got, req)
			}
			if got.Trace != req.Trace {
				t.Errorf("trace context mismatch: %+v vs %+v", got.Trace, req.Trace)
			}
			if !paramsEqual(got.Params, req.Params) {
				t.Errorf("params mismatch: %v vs %v", got.Params, req.Params)
			}

			buf.Reset()
			resp := sampleResponse(params)
			if err := EncodeRoundResponse(&buf, resp); err != nil {
				t.Fatal(err)
			}
			gotR, err := DecodeRoundResponse(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if gotR.ClientID != resp.ClientID || gotR.NumExamples != resp.NumExamples ||
				gotR.Report.Round != resp.Report.Round || gotR.Report.Energy != resp.Report.Energy ||
				gotR.Report.DeadlineMet != resp.Report.DeadlineMet || gotR.Report.Phase != resp.Report.Phase {
				t.Errorf("meta mismatch: %+v vs %+v", gotR, resp)
			}
			if !paramsEqual(gotR.Params, resp.Params) {
				t.Errorf("params mismatch")
			}
			if len(gotR.Spans) != len(resp.Spans) {
				t.Fatalf("span summaries lost: %+v vs %+v", gotR.Spans, resp.Spans)
			}
			for i := range resp.Spans {
				if gotR.Spans[i] != resp.Spans[i] {
					t.Errorf("span %d mismatch: %+v vs %+v", i, gotR.Spans[i], resp.Spans[i])
				}
			}
		})
	}
}

// TestCodecF32Narrowing pins the flag choice: exactly-representable vectors
// take the 4-byte path, anything else (including NaN) the 8-byte path.
func TestCodecF32Narrowing(t *testing.T) {
	cases := []struct {
		name   string
		params []float64
		f32    bool
	}{
		{"exact", []float64{0.5, -1.25, float64(float32(0.1))}, true},
		{"inexact", []float64{0.1}, false},
		{"nan", []float64{math.NaN()}, false},
		{"empty", nil, false},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		if err := EncodeRoundRequest(&buf, sampleRequest(tc.params)); err != nil {
			t.Fatal(err)
		}
		flags := buf.Bytes()[4]
		if got := flags&flagF32 != 0; got != tc.f32 {
			t.Errorf("%s: f32 flag = %v, want %v", tc.name, got, tc.f32)
		}
	}
}

// TestCodecTruncatedFrames cuts valid frames short: a small one at every
// byte offset, and one above 64 KiB at every 97th offset and inside its CRC
// trailer. Each prefix must produce an error, never a panic or a silent
// short decode.
func TestCodecTruncatedFrames(t *testing.T) {
	for _, tc := range []struct {
		params []float64
		stride int
	}{
		{[]float64{1.5, 2.5, 0.1}, 1},
		{inexact(64<<10/8 + 64), 97},
	} {
		var buf bytes.Buffer
		if err := EncodeRoundRequest(&buf, sampleRequest(tc.params)); err != nil {
			t.Fatal(err)
		}
		frame := buf.Bytes()
		check := func(cut int) {
			_, err := DecodeRoundRequest(bytes.NewReader(frame[:cut]))
			if err == nil {
				t.Fatalf("truncation at %d/%d bytes decoded without error", cut, len(frame))
			}
			if !errors.Is(err, ErrCorruptFrame) {
				t.Fatalf("truncation at %d/%d bytes: error %v does not wrap ErrCorruptFrame", cut, len(frame), err)
			}
		}
		for cut := 0; cut < len(frame); cut += tc.stride {
			check(cut)
		}
		for cut := len(frame) - 4; cut < len(frame); cut++ {
			check(cut)
		}
		// The full frame still decodes.
		if _, err := DecodeRoundRequest(bytes.NewReader(frame)); err != nil {
			t.Fatal(err)
		}
	}
}

// wantCorruptFrame asserts a decode failed with the typed corruption error,
// so callers (retry classification, quarantine) can rely on errors.Is.
func wantCorruptFrame(t *testing.T, err error, what string) {
	t.Helper()
	if err == nil {
		t.Errorf("%s accepted", what)
		return
	}
	if !errors.Is(err, ErrCorruptFrame) {
		t.Errorf("%s: error %v does not wrap ErrCorruptFrame", what, err)
	}
}

func TestCodecMalformedFrames(t *testing.T) {
	valid := func() []byte {
		var buf bytes.Buffer
		if err := EncodeRoundRequest(&buf, sampleRequest([]float64{1, 2})); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	t.Run("bad magic", func(t *testing.T) {
		f := valid()
		f[0] = 'X'
		_, err := DecodeRoundRequest(bytes.NewReader(f))
		wantCorruptFrame(t, err, "bad magic")
	})
	t.Run("unknown flags", func(t *testing.T) {
		f := valid()
		f[4] |= 0x80
		_, err := DecodeRoundRequest(bytes.NewReader(f))
		wantCorruptFrame(t, err, "unknown flag bits")
	})
	t.Run("oversized meta claim", func(t *testing.T) {
		f := valid()
		binary.LittleEndian.PutUint32(f[5:9], maxMetaBytes+1)
		_, err := DecodeRoundRequest(bytes.NewReader(f))
		wantCorruptFrame(t, err, "oversized meta length")
	})
	t.Run("oversized param claim", func(t *testing.T) {
		f := valid()
		metaLen := binary.LittleEndian.Uint32(f[5:9])
		binary.LittleEndian.PutUint32(f[9+metaLen:], maxFrameParams+1)
		_, err := DecodeRoundRequest(bytes.NewReader(f))
		wantCorruptFrame(t, err, "oversized param count")
	})
	t.Run("payload length mismatch", func(t *testing.T) {
		f := valid()
		metaLen := binary.LittleEndian.Uint32(f[5:9])
		binary.LittleEndian.PutUint32(f[13+metaLen:], 1)
		_, err := DecodeRoundRequest(bytes.NewReader(f))
		wantCorruptFrame(t, err, "payload/count mismatch")
	})
	t.Run("non-json meta", func(t *testing.T) {
		var buf bytes.Buffer
		buf.Write(frameMagic[:])
		buf.WriteByte(0)
		var lb [4]byte
		binary.LittleEndian.PutUint32(lb[:], 3)
		buf.Write(lb[:])
		buf.WriteString("{{{")
		binary.LittleEndian.PutUint32(lb[:], 0)
		buf.Write(lb[:]) // count 0
		buf.Write(lb[:]) // payload 0
		_, err := DecodeRoundRequest(bytes.NewReader(appendCRC(buf.Bytes())))
		wantCorruptFrame(t, err, "garbage meta")
	})
}

// TestCodecGzipChecksum flips single bits across whole frames, and every
// flip must fail ErrCorruptFrame, never decode to different values. (The
// name dates from when gzip's CRC-32 guarded only payloads of 64 KiB and
// up; the frame CRC now guards every byte of every round frame.) Round
// frames, each with and without an aux section: every bit of a small
// request, and all eight bits of every 331st byte of a 16,672-parameter
// model frame, the round-http MLP, so flips land in the header, the
// metadata, the payloads and the trailer. Partial frames: every bit of a packed payload, its limb
// stream and its own CRC. Under the race detector, which slows each decode
// about 25-fold, the round frames flip only every 7th of those bytes and
// the partial every 97th payload byte. The last 12 bytes of each frame, the
// payload's tail and the CRC, always get all eight flips.
func TestCodecGzipChecksum(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	params := make([]float64, 16_672)
	for i := range params {
		params[i] = rng.NormFloat64() * 0.05
	}
	aux := []float64{0.25, -0.5, 3}
	for _, tc := range []struct {
		req    RoundRequest
		stride int
	}{
		{sampleRequest([]float64{1.5, 0.1}), 1},
		{auxRequest([]float64{1.5, 0.1}, aux), 1},
		{sampleRequest(params), 331},
		{auxRequest(params, aux), 331},
	} {
		var buf bytes.Buffer
		if err := EncodeRoundRequest(&buf, tc.req); err != nil {
			t.Fatal(err)
		}
		frame, stride := buf.Bytes(), tc.stride
		if raceEnabled && stride > 1 {
			stride *= 7
		}
		for off := range frame {
			if off%stride != 0 && off < len(frame)-12 {
				continue
			}
			for bit := byte(1); bit != 0; bit <<= 1 {
				frame[off] ^= bit
				_, err := DecodeRoundRequest(bytes.NewReader(frame))
				frame[off] ^= bit
				if !errors.Is(err, ErrCorruptFrame) {
					t.Fatalf("round bit %#x flipped at %d/%d: err %v, want ErrCorruptFrame", bit, off, len(frame), err)
				}
			}
		}
		if got, err := DecodeRoundRequest(bytes.NewReader(frame)); err != nil || len(got.Params) == 0 {
			t.Fatalf("unflipped frame: %d params, err %v", len(got.Params), err)
		}
	}

	var buf bytes.Buffer
	if err := EncodePartialAggregate(&buf, bigPartial()); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	if frame[4]&flagPacked == 0 {
		t.Fatal("big partial did not take the packed path")
	}
	payload := 17 + int(binary.LittleEndian.Uint32(frame[5:9]))
	var dec PartialAggregate
	for off := payload; off < len(frame); off++ {
		if raceEnabled && (off-payload)%97 != 0 && off < len(frame)-12 {
			continue
		}
		for bit := byte(1); bit != 0; bit <<= 1 {
			frame[off] ^= bit
			err := DecodePartialAggregateInto(bytes.NewReader(frame), &dec)
			frame[off] ^= bit
			if !errors.Is(err, ErrCorruptFrame) {
				t.Fatalf("partial bit %#x flipped at %d/%d: err %v, want ErrCorruptFrame", bit, off, len(frame), err)
			}
		}
	}
}

// TestCodecWireSavings pins the acceptance bar: on a CNN-sized vector of
// float32-valued weights, as a model trained in single precision ships
// them, the frame must be at least 4× smaller than the JSON encoding. (It
// is 5.23× smaller; internal/ml's models train in float64 and ship in the
// 8-byte form.)
func TestCodecWireSavings(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	params := make([]float64, 100_000)
	for i := range params {
		params[i] = float64(float32(rng.NormFloat64() * 0.05))
	}
	req := sampleRequest(params)

	var bin bytes.Buffer
	if err := EncodeRoundRequest(&bin, req); err != nil {
		t.Fatal(err)
	}
	jsonBytes := encodeJSONLen(t, req)
	ratio := float64(jsonBytes) / float64(bin.Len())
	if ratio < 4 {
		t.Errorf("binary frame only %.2fx smaller than JSON (%d vs %d bytes), want ≥4x",
			ratio, bin.Len(), jsonBytes)
	}
	got, err := DecodeRoundRequest(&bin)
	if err != nil {
		t.Fatal(err)
	}
	if !paramsEqual(got.Params, params) {
		t.Error("narrowed payload not lossless")
	}
}

func encodeJSONLen(t *testing.T, v any) int {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Len()
}

// FuzzCodec feeds arbitrary bytes to the frame decoder: it must never panic,
// and whenever it does decode, a re-encode/re-decode cycle must reproduce the
// decoded value exactly (the codec is its own inverse on its image).
func FuzzCodec(f *testing.F) {
	seedVectors := [][]float64{
		nil,
		{1.5},
		{0.1, 0.2, 0.3},
		{math.NaN(), math.Inf(1)},
		make([]float64, 64<<10/8+4), // zeros narrow to a 32 kB f32 payload
	}
	for _, params := range seedVectors {
		var buf bytes.Buffer
		if err := EncodeRoundRequest(&buf, sampleRequest(params)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("BFL1"))
	f.Add([]byte{})
	// Damaged-wire seeds: truncations and single bit flips of an otherwise
	// valid frame above 64 KiB, steering the fuzzer toward the
	// corruption-detection paths the chaos harness depends on.
	{
		var buf bytes.Buffer
		if err := EncodeRoundRequest(&buf, sampleRequest(inexact(64<<10/8+16))); err != nil {
			f.Fatal(err)
		}
		frame := buf.Bytes()
		f.Add(frame[:len(frame)/2]) // cut inside the payload
		f.Add(frame[:9])            // cut inside the meta section
		f.Add(frame[:len(frame)-1]) // one byte short
		for _, off := range []int{0, 4, 9, len(frame) / 2, len(frame) - 1} {
			flipped := bytes.Clone(frame)
			flipped[off] ^= 0x01
			f.Add(flipped)
		}
	}
	// Aux-section seeds: SCAFFOLD control-variate frames (f64, f32, above
	// 64 KiB) plus truncations and bit flips landing inside the aux section,
	// steering the fuzzer at the second vector section's structural checks.
	{
		for _, aux := range [][]float64{{0.25, -0.5}, {0.5, 1.25, -3}, inexact(64<<10/8 + 16)} {
			var buf bytes.Buffer
			if err := EncodeRoundRequest(&buf, auxRequest([]float64{1.5, 0.1}, aux)); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
		var buf bytes.Buffer
		if err := EncodeRoundRequest(&buf, auxRequest([]float64{1, 2}, []float64{0.1, -0.2, 0.3})); err != nil {
			f.Fatal(err)
		}
		frame := buf.Bytes()
		off := auxSectionOffset(frame)
		f.Add(frame[:off+1])        // cut after the aux flags byte
		f.Add(frame[:off+5])        // cut inside the aux count
		f.Add(frame[:len(frame)-1]) // aux payload one byte short
		for _, at := range []int{4, off, off + 1, off + 9, len(frame) - 1} {
			flipped := bytes.Clone(frame)
			flipped[at] ^= 0x01
			f.Add(flipped)
		}
	}
	// Frames each decoder must refuse although their CRC holds: bit 0, once
	// gzip, on a frame and on an aux section. Then a frame with no trailer at
	// all, as encoders wrote them before the CRC.
	{
		frame, aux := bit0Frames(f)
		f.Add(frame)
		f.Add(aux)
		var buf bytes.Buffer
		if err := EncodeRoundRequest(&buf, sampleRequest([]float64{1.5, 0.1})); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes()[:buf.Len()-4])
	}
	// Hostile trace-context seeds: the codec is deliberately faithful to
	// whatever trace strings were framed (sanitization is the HTTP handler's
	// job), so an oversized or injection-laden trace must still round-trip
	// byte-exactly without panicking or corrupting the frame.
	for _, hostile := range []obs.TraceContext{
		{TraceID: strings.Repeat("a", 4096), SpanID: strings.Repeat("f", 4096)},
		{TraceID: "\"}\n# HELP evil 1\nBFL1\x00\x01", SpanID: "-"},
	} {
		req := sampleRequest([]float64{1.5})
		req.Trace = hostile
		var buf bytes.Buffer
		if err := EncodeRoundRequest(&buf, req); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		checkRequestRoundTrip(t, data)
		// A mutation almost never keeps the frame CRC, so also decode a copy
		// whose last four bytes are the CRC of the rest: that copy reaches
		// the section parser and the metadata behind the checksum.
		if len(data) >= 4 {
			checkRequestRoundTrip(t, appendCRC(bytes.Clone(data[:len(data)-4])))
		}
	})
}

// checkRequestRoundTrip decodes data as a round request and, when it
// decodes, requires a re-encode/re-decode cycle to reproduce it exactly.
func checkRequestRoundTrip(t *testing.T, data []byte) {
	t.Helper()
	req, err := DecodeRoundRequest(bytes.NewReader(data))
	if err != nil {
		return
	}
	var buf bytes.Buffer
	if err := EncodeRoundRequest(&buf, req); err != nil {
		t.Fatalf("re-encode of decoded frame failed: %v", err)
	}
	again, err := DecodeRoundRequest(&buf)
	if err != nil {
		t.Fatalf("re-decode failed: %v", err)
	}
	if again.Round != req.Round || again.Jobs != req.Jobs || again.Deadline != req.Deadline {
		t.Fatalf("meta drift: %+v vs %+v", again, req)
	}
	if again.Trace != req.Trace {
		t.Fatalf("trace drift: %+v vs %+v", again.Trace, req.Trace)
	}
	if !paramsEqual(again.Params, req.Params) {
		t.Fatalf("param drift after round trip")
	}
	if again.Alg != req.Alg || again.Prox != req.Prox {
		t.Fatalf("alg meta drift: %q/%v vs %q/%v", again.Alg, again.Prox, req.Alg, req.Prox)
	}
	if !paramsEqual(again.Aux, req.Aux) {
		t.Fatalf("aux drift after round trip")
	}
}

// auxRequest is sampleRequest carrying the SCAFFOLD protocol fields.
func auxRequest(params, aux []float64) RoundRequest {
	req := sampleRequest(params)
	req.Alg = AlgScaffold
	req.Prox = 0.25
	req.Aux = aux
	return req
}

// TestCodecAuxRoundTrip drives the control-variate payload section through
// every encoder path — f64, f32-narrowed, specials, and above 64 KiB (the
// case named "gzip", after the size at which payloads used to deflate) —
// and checks the aux vector and the new meta fields survive bit for bit.
func TestCodecAuxRoundTrip(t *testing.T) {
	cases := map[string][]float64{
		"f64":      {1.0 / 3.0, -math.Pi, 2.5e-310},
		"f32exact": {0.5, -1.25, 3, 0},
		"specials": {math.NaN(), math.Inf(-1), math.Copysign(0, -1)},
		"gzip":     inexact(64<<10/8 + 32),
	}
	for name, aux := range cases {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			req := auxRequest([]float64{1.5, 0.1}, aux)
			if err := EncodeRoundRequest(&buf, req); err != nil {
				t.Fatal(err)
			}
			if buf.Bytes()[4]&flagAux == 0 {
				t.Fatal("aux-carrying frame did not set flagAux")
			}
			got, err := DecodeRoundRequest(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if got.Alg != req.Alg || got.Prox != req.Prox {
				t.Errorf("alg meta mismatch: %q/%v vs %q/%v", got.Alg, got.Prox, req.Alg, req.Prox)
			}
			if !paramsEqual(got.Params, req.Params) || !paramsEqual(got.Aux, req.Aux) {
				t.Error("vector sections corrupted")
			}

			buf.Reset()
			resp := sampleResponse([]float64{2.5})
			resp.Steps = 13
			resp.Aux = aux
			if err := EncodeRoundResponse(&buf, resp); err != nil {
				t.Fatal(err)
			}
			gotR, err := DecodeRoundResponse(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if gotR.Steps != resp.Steps {
				t.Errorf("steps = %d, want %d", gotR.Steps, resp.Steps)
			}
			if !paramsEqual(gotR.Aux, resp.Aux) {
				t.Error("response aux corrupted")
			}
		})
	}
}

// TestCodecAuxlessFrameUnchanged pins the aux-less layout: a frame with no
// aux vector must not set flagAux, and its parameter payload must be
// followed only by the 4-byte trailer, the CRC-32 of every byte before it.
func TestCodecAuxlessFrameUnchanged(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeRoundRequest(&buf, sampleRequest([]float64{1.5, 0.1})); err != nil {
		t.Fatal(err)
	}
	f := buf.Bytes()
	if f[4]&flagAux != 0 {
		t.Fatal("aux-less frame set flagAux")
	}
	metaLen := binary.LittleEndian.Uint32(f[5:9])
	payloadLen := binary.LittleEndian.Uint32(f[13+metaLen:])
	if want := int(17 + metaLen + payloadLen + 4); len(f) != want {
		t.Fatalf("aux-less frame is %d bytes, want %d", len(f), want)
	}
	if got, want := binary.LittleEndian.Uint32(f[len(f)-4:]), crc32.ChecksumIEEE(f[:len(f)-4]); got != want {
		t.Fatalf("trailer %#08x, want the CRC-32 of the rest, %#08x", got, want)
	}
}

// auxSectionOffset locates the aux section flag byte of an encoded frame.
func auxSectionOffset(f []byte) int {
	metaLen := binary.LittleEndian.Uint32(f[5:9])
	payloadLen := binary.LittleEndian.Uint32(f[13+metaLen:])
	return int(17 + metaLen + payloadLen)
}

// TestCodecAuxMalformed damages the aux section specifically — truncation at
// every offset, unknown section flags, count/length lies — and requires the
// typed corruption error every time.
func TestCodecAuxMalformed(t *testing.T) {
	valid := func() []byte {
		var buf bytes.Buffer
		if err := EncodeRoundRequest(&buf, auxRequest([]float64{1, 2}, []float64{0.1, -0.2, 0.3})); err != nil {
			t.Fatal(err)
		}
		return bytes.Clone(buf.Bytes())
	}
	full := valid()
	off := auxSectionOffset(full)

	t.Run("truncated", func(t *testing.T) {
		for cut := off; cut < len(full); cut++ {
			_, err := DecodeRoundRequest(bytes.NewReader(full[:cut]))
			wantCorruptFrame(t, err, fmt.Sprintf("aux truncation at %d/%d", cut, len(full)))
		}
	})
	t.Run("unknown section flags", func(t *testing.T) {
		f := valid()
		f[auxSectionOffset(f)] |= flagAux // aux flags allow only f32
		_, err := DecodeRoundRequest(bytes.NewReader(f))
		wantCorruptFrame(t, err, "reserved aux section flag")
	})
	t.Run("oversized count claim", func(t *testing.T) {
		f := valid()
		binary.LittleEndian.PutUint32(f[auxSectionOffset(f)+1:], maxFrameParams+1)
		_, err := DecodeRoundRequest(bytes.NewReader(f))
		wantCorruptFrame(t, err, "oversized aux count")
	})
	t.Run("length mismatch", func(t *testing.T) {
		f := valid()
		binary.LittleEndian.PutUint32(f[auxSectionOffset(f)+5:], 7)
		_, err := DecodeRoundRequest(bytes.NewReader(f))
		wantCorruptFrame(t, err, "aux payload length lie")
	})
	t.Run("payload bit flip", func(t *testing.T) {
		// No structural check can see a flipped payload bit (the values are
		// arbitrary floats); the frame CRC must.
		f := valid()
		f[auxSectionOffset(f)+9] ^= 0x40
		_, err := DecodeRoundRequest(bytes.NewReader(f))
		wantCorruptFrame(t, err, "aux payload bit flip")
	})
}

// bit0Frames returns two small round requests whose CRC trailer holds but
// which set bit 0: one in the frame's flags, one in its aux section's.
func bit0Frames(tb testing.TB) (frame, aux []byte) {
	tb.Helper()
	var plain, withAux bytes.Buffer
	if err := EncodeRoundRequest(&plain, sampleRequest([]float64{1.5, 0.1})); err != nil {
		tb.Fatal(err)
	}
	if err := EncodeRoundRequest(&withAux, auxRequest([]float64{1.5, 0.1}, []float64{0.25, -0.5})); err != nil {
		tb.Fatal(err)
	}
	return setBit0(plain.Bytes(), 4), setBit0(withAux.Bytes(), auxSectionOffset(withAux.Bytes()))
}

// setBit0 returns a copy of a round frame with bit 0 set in the flag byte
// at, and its CRC trailer recomputed so that only the flag is wrong.
func setBit0(frame []byte, at int) []byte {
	f := bytes.Clone(frame[:len(frame)-4])
	f[at] |= bit0
	return appendCRC(f)
}

// TestCodecRejectsBit0 pins the retired gzip flag: bit 0 set on a request,
// a response, an aux section's flag byte or a partial frame fails
// ErrCorruptFrame at the flag check, though the rest of the frame, CRC
// trailer included, is valid.
func TestCodecRejectsBit0(t *testing.T) {
	decodeRequest := func(f []byte) error { _, err := DecodeRoundRequest(bytes.NewReader(f)); return err }
	decodeResponse := func(f []byte) error { _, err := DecodeRoundResponse(bytes.NewReader(f)); return err }
	decodePartial := func(f []byte) error { _, err := DecodePartialAggregate(bytes.NewReader(f)); return err }
	var resp, partial bytes.Buffer
	if err := EncodeRoundResponse(&resp, sampleResponse(inexact(64<<10/8+32))); err != nil {
		t.Fatal(err)
	}
	if err := EncodePartialAggregate(&partial, bigPartial()); err != nil {
		t.Fatal(err)
	}
	frame, aux := bit0Frames(t)
	bit0Partial := bytes.Clone(partial.Bytes())
	bit0Partial[4] |= bit0
	for _, tc := range []struct {
		name   string
		decode func([]byte) error
		frame  []byte
	}{
		{"request", decodeRequest, frame},
		{"response", decodeResponse, setBit0(resp.Bytes(), 4)},
		{"aux section", decodeRequest, aux},
		{"partial", decodePartial, bit0Partial},
	} {
		err := tc.decode(tc.frame)
		if !errors.Is(err, ErrCorruptFrame) || !strings.Contains(err.Error(), "flags") {
			t.Errorf("%s with bit 0: err %v, want ErrCorruptFrame at the flag check", tc.name, err)
		}
	}
	// The same frames decode once bit 0 is clear again.
	if err := decodeResponse(resp.Bytes()); err != nil {
		t.Errorf("response: %v", err)
	}
	if err := decodePartial(partial.Bytes()); err != nil {
		t.Errorf("partial: %v", err)
	}
}

// hostileFrame builds a BFL1 frame with meta "{}" and one vector section that
// declares count values and payloadLen bytes but carries only payload.
func hostileFrame(flags byte, count, payloadLen uint32, payload []byte) []byte {
	f := append(frameMagic[:4:4], flags)
	f = binary.LittleEndian.AppendUint32(f, 2)
	f = append(f, "{}"...)
	f = binary.LittleEndian.AppendUint32(f, count)
	f = binary.LittleEndian.AppendUint32(f, payloadLen)
	return append(f, payload...)
}

// TestCodecHostileLengthAllocs sends each decoder short frames whose length
// fields claim 2^26 float64 params (512 MiB): the decoders must grow their
// buffers only as bytes arrive, so each frame fails ErrCorruptFrame having
// allocated under 1 MB. One more case is a decompression bomb: a valid gzip
// stream of 64 MiB of zeros under bit 0, 65,309 bytes in all, which decoded
// into 8,388,608 params and allocated 233.7 MB while bit 0 meant gzip. It
// must now fail before its payload is read.
func TestCodecHostileLengthAllocs(t *testing.T) {
	const count = maxFrameParams
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(make([]byte, 16))
	zw.Close()
	short := gz.Bytes() // a sound gzip stream of 16 bytes

	var bombPayload bytes.Buffer
	zw = gzip.NewWriter(&bombPayload)
	zeros := make([]byte, 1<<20)
	for range 64 {
		zw.Write(zeros)
	}
	zw.Close()
	const bombMeta = `{"round":1,"jobs":1,"deadlineSeconds":1}`
	bomb := append(frameMagic[:4:4], bit0)
	bomb = binary.LittleEndian.AppendUint32(bomb, uint32(len(bombMeta)))
	bomb = append(bomb, bombMeta...)
	bomb = binary.LittleEndian.AppendUint32(bomb, 64<<20/8)
	bomb = binary.LittleEndian.AppendUint32(bomb, uint32(bombPayload.Len()))
	bomb = append(bomb, bombPayload.Bytes()...)

	decodeRequest := func(r *bytes.Reader) error { _, err := DecodeRoundRequest(r); return err }
	decodeResponse := func(r *bytes.Reader) error { _, err := DecodeRoundResponse(r); return err }
	decodePartial := func(r *bytes.Reader) error { _, err := DecodePartialAggregate(r); return err }
	metaLie := hostileFrame(0, 0, 0, nil)
	binary.LittleEndian.PutUint32(metaLie[5:9], maxMetaBytes)
	auxLie := hostileFrame(flagAux, 1, 8, make([]byte, 8))
	auxLie = append(auxLie, 0)
	auxLie = binary.LittleEndian.AppendUint32(auxLie, count)
	auxLie = binary.LittleEndian.AppendUint32(auxLie, count*8)
	auxLie = append(auxLie, make([]byte, 9)...)

	cases := []struct {
		name   string
		decode func(*bytes.Reader) error
		frame  []byte
		unread int // trailing bytes the decoder must leave unread
	}{
		{"request", decodeRequest, hostileFrame(0, count, count*8, make([]byte, 9)), 0},
		{"request bit 0", decodeRequest, hostileFrame(bit0, count, uint32(len(short)), short), len(short)},
		{"request bit 0 length", decodeRequest, hostileFrame(bit0, count, count*8, short), len(short)},
		{"request aux", decodeRequest, auxLie, 0},
		{"request meta", decodeRequest, metaLie, 0},
		{"request bomb", decodeRequest, bomb, bombPayload.Len()},
		{"response", decodeResponse, hostileFrame(0, count, count*8, make([]byte, 9)), 0},
		{"response bit 0", decodeResponse, hostileFrame(bit0, count, uint32(len(short)), short), len(short)},
		{"partial", decodePartial, hostileFrame(flagLimbs, count, count*8, make([]byte, 9)), 0},
		{"partial bit 0", decodePartial, hostileFrame(flagLimbs|bit0, count, uint32(len(short)), short), len(short)},
	}
	for _, tc := range cases {
		r := bytes.NewReader(tc.frame)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.decode(r)
		runtime.ReadMemStats(&after)
		wantCorruptFrame(t, err, tc.name)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1e6 {
			t.Errorf("%s: %d-byte frame allocated %d bytes, want < 1 MB", tc.name, len(tc.frame), alloc)
		}
		if r.Len() < tc.unread {
			t.Errorf("%s: decoder read %d of the %d payload bytes it must leave unread", tc.name, tc.unread-r.Len(), tc.unread)
		}
	}
	if n := len(cases[0].frame); n != 28 {
		t.Errorf("plain hostile frame is %d bytes, want 28", n)
	}
}
