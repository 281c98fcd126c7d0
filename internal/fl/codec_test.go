package fl

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
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

// TestCodecGzipThreshold drives payload sizes straddling compressThreshold and
// checks the flag byte plus lossless decode on both sides of the boundary.
func TestCodecGzipThreshold(t *testing.T) {
	// Inexact values force the 8-byte element path, making the raw payload
	// size exactly 8·n.
	mk := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = 0.1 + float64(i)
		}
		return out
	}
	cases := []struct {
		n    int
		gzip bool
	}{
		{compressThreshold/8 - 1, false}, // one element below
		{compressThreshold / 8, true},    // exactly at the threshold
		{compressThreshold/8 + 1, true},  // one above
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		req := sampleRequest(mk(tc.n))
		if err := EncodeRoundRequest(&buf, req); err != nil {
			t.Fatal(err)
		}
		flags := buf.Bytes()[4]
		if got := flags&flagGzip != 0; got != tc.gzip {
			t.Errorf("n=%d: gzip flag = %v, want %v", tc.n, got, tc.gzip)
		}
		got, err := DecodeRoundRequest(&buf)
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		if !paramsEqual(got.Params, req.Params) {
			t.Errorf("n=%d: params corrupted through gzip boundary", tc.n)
		}
	}
}

// TestCodecTruncatedFrames cuts a valid frame at every byte offset; each
// prefix must produce an error, never a panic or a silent short decode.
func TestCodecTruncatedFrames(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeRoundRequest(&buf, sampleRequest([]float64{1.5, 2.5, 0.1})); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	for cut := 0; cut < len(frame); cut++ {
		_, err := DecodeRoundRequest(bytes.NewReader(frame[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded without error", cut, len(frame))
		}
		if !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("truncation at %d/%d bytes: error %v does not wrap ErrCorruptFrame", cut, len(frame), err)
		}
	}
	// The full frame still decodes.
	if _, err := DecodeRoundRequest(bytes.NewReader(frame)); err != nil {
		t.Fatal(err)
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
		_, err := DecodeRoundRequest(&buf)
		wantCorruptFrame(t, err, "garbage meta")
	})
}

// TestCodecTruncatedGzip cuts a gzip-compressed frame inside the deflate
// stream at every offset past the header: the inflater must surface a typed
// corruption error, never a panic, hang, or silent short read.
func TestCodecTruncatedGzip(t *testing.T) {
	// Inexact values force the 8-byte element path so 8·n crosses the gzip
	// threshold.
	params := make([]float64, compressThreshold/8+64)
	for i := range params {
		params[i] = 0.1 + float64(i%7)
	}
	var buf bytes.Buffer
	if err := EncodeRoundRequest(&buf, sampleRequest(params)); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	if frame[4]&flagGzip == 0 {
		t.Fatalf("frame of %d params did not take the gzip path", len(params))
	}
	// Step through the compressed payload region in strides; every prefix
	// must fail typed.
	for cut := len(frame) / 2; cut < len(frame); cut += 97 {
		_, err := DecodeRoundRequest(bytes.NewReader(frame[:cut]))
		wantCorruptFrame(t, err, fmt.Sprintf("gzip truncation at %d/%d", cut, len(frame)))
	}
	// A bit flip inside the deflate stream must also surface typed: either
	// the checksum or the payload-length check catches it.
	flipped := bytes.Clone(frame)
	flipped[len(flipped)/2] ^= 0x10
	if _, err := DecodeRoundRequest(bytes.NewReader(flipped)); err != nil {
		wantCorruptFrame(t, err, "gzip bit flip")
	}
}

// TestCodecGzipChecksum flips single bits across compressed payloads: an
// f64 model, whose deflate stream is stored blocks (a flipped data bit
// leaves the stream well formed, so only gzip's CRC-32 can notice), and a
// partial frame's packed limb window. A model flip may land on a bit the
// gzip format ignores (header timestamp, block padding) and decode
// unchanged; otherwise it must fail ErrCorruptFrame, never decode to
// different values. The packed payload has no ignored bit: every flip,
// in its limb stream or its CRC, must fail ErrCorruptFrame. Under the race
// detector, which slows each decode about 25-fold, only every 97th payload
// byte and the last 12 (the stream's tail and the CRC) get all eight flips.
func TestCodecGzipChecksum(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	params := make([]float64, 16_672)
	for i := range params {
		params[i] = rng.NormFloat64() * 0.05
	}
	var buf bytes.Buffer
	if err := EncodeRoundRequest(&buf, sampleRequest(params)); err != nil {
		t.Fatal(err)
	}
	frame := bytes.Clone(buf.Bytes())
	if frame[4]&flagGzip == 0 {
		t.Fatal("model frame did not take the gzip path")
	}
	payload := 17 + int(binary.LittleEndian.Uint32(frame[5:9]))
	for off := payload; off < len(frame); off += 331 {
		flipped := bytes.Clone(frame)
		flipped[off] ^= 0x10
		got, err := DecodeRoundRequest(bytes.NewReader(flipped))
		if err != nil {
			wantCorruptFrame(t, err, fmt.Sprintf("model bit flip at %d", off))
		} else if !paramsEqual(got.Params, params) {
			t.Fatalf("model bit flip at %d/%d decoded to different params without error", off, len(frame))
		}
	}

	buf.Reset()
	if err := EncodePartialAggregate(&buf, bigPartial()); err != nil {
		t.Fatal(err)
	}
	frame = buf.Bytes()
	if frame[4]&flagPacked == 0 {
		t.Fatal("big partial did not take the packed path")
	}
	payload = 17 + int(binary.LittleEndian.Uint32(frame[5:9]))
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
// float32-valued weights (the realistic case — models train in single
// precision), the frame must be at least 4× smaller than the JSON encoding.
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
		make([]float64, compressThreshold/8+4), // gzip path
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
	// Damaged-wire seeds: truncations (including mid-gzip) and single bit
	// flips of otherwise valid frames, steering the fuzzer toward the
	// corruption-detection paths the chaos harness depends on.
	{
		big := make([]float64, compressThreshold/8+16)
		for i := range big {
			big[i] = 0.1 + float64(i%5) // inexact → 8-byte path → gzip frame
		}
		var buf bytes.Buffer
		if err := EncodeRoundRequest(&buf, sampleRequest(big)); err != nil {
			f.Fatal(err)
		}
		frame := buf.Bytes()
		f.Add(frame[:len(frame)/2]) // cut inside the deflate stream
		f.Add(frame[:9])            // cut inside the meta section
		f.Add(frame[:len(frame)-1]) // one byte short
		for _, off := range []int{0, 4, 9, len(frame) / 2, len(frame) - 1} {
			flipped := bytes.Clone(frame)
			flipped[off] ^= 0x01
			f.Add(flipped)
		}
	}
	// Aux-section seeds: SCAFFOLD control-variate frames (plain, f32, gzip)
	// plus truncations and bit flips landing inside the aux section, steering
	// the fuzzer at the second vector section's structural checks.
	{
		bigAux := make([]float64, compressThreshold/8+16)
		for i := range bigAux {
			bigAux[i] = 0.1 + float64(i%7)
		}
		for _, aux := range [][]float64{{0.25, -0.5}, {0.5, 1.25, -3}, bigAux} {
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
	// Frames deflated at gzip.DefaultCompression, as older peers send them:
	// dynamic-Huffman streams the BestSpeed encoder no longer produces for
	// these payloads.
	{
		_, _, _, frames := defaultLevelFrames(f)
		f.Add(frames[0]) // request with an aux section
		f.Add(frames[1]) // response, parsed as a request
		f.Add(frames[2]) // gzipped partial, which a round decoder rejects
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
	})
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
// every encoder path — f64, f32-narrowed, gzip-compressed, specials — and
// checks the aux vector and the new meta fields survive bit for bit.
func TestCodecAuxRoundTrip(t *testing.T) {
	big := make([]float64, compressThreshold/8+32)
	for i := range big {
		big[i] = 0.1 + float64(i%9)
	}
	cases := map[string][]float64{
		"f64":      {1.0 / 3.0, -math.Pi, 2.5e-310},
		"f32exact": {0.5, -1.25, 3, 0},
		"specials": {math.NaN(), math.Inf(-1), math.Copysign(0, -1)},
		"gzip":     big,
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

// TestCodecAuxlessFrameUnchanged pins backward compatibility: a frame with no
// aux vector must not set flagAux and must end exactly where the pre-aux
// format ended (no trailing section).
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
	if want := int(17 + metaLen + payloadLen); len(f) != want {
		t.Fatalf("aux-less frame is %d bytes, want %d", len(f), want)
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
		f[auxSectionOffset(f)] |= flagAux // aux flags allow only gzip|f32
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
		// A flipped payload bit is undetectable without a checksum (the values
		// are arbitrary floats) but must never panic, and structural bits
		// (count, flags) are covered above. Flip and require decode to either
		// fail typed or produce a same-shape vector.
		f := valid()
		f[auxSectionOffset(f)+9] ^= 0x40
		req, err := DecodeRoundRequest(bytes.NewReader(f))
		if err != nil {
			wantCorruptFrame(t, err, "aux payload bit flip")
		} else if len(req.Aux) != 3 {
			t.Fatalf("bit flip changed aux shape: %d values", len(req.Aux))
		}
	})
}

// gzipBytes deflates raw at the given level.
func gzipBytes(tb testing.TB, raw []byte, level int) []byte {
	tb.Helper()
	var comp bytes.Buffer
	zw, err := gzip.NewWriterLevel(&comp, level)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := zw.Write(raw); err != nil {
		tb.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		tb.Fatal(err)
	}
	return comp.Bytes()
}

// gzipPartialFrame is pa as a partial frame whose raw limbs are deflated at
// the given level under flagLimbs|flagGzip: the form a large window took
// before packing replaced deflate, which the decoder now rejects.
func gzipPartialFrame(tb testing.TB, pa PartialAggregate, level int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := EncodePartialAggregate(&buf, pa); err != nil {
		tb.Fatal(err)
	}
	raw := make([]byte, 0, 8*len(pa.Sum.Limbs))
	for _, l := range pa.Sum.Limbs {
		raw = binary.LittleEndian.AppendUint64(raw, l)
	}
	comp := gzipBytes(tb, raw, level)
	return reframe(buf.Bytes(), flagLimbs|flagGzip, uint32(len(pa.Sum.Limbs)), uint32(len(comp)), comp)
}

// regzipFrame re-deflates every gzip section of an encoded round frame at the
// given level and fixes up the section lengths: the frame a peer compressing
// at that level sends for the same values.
func regzipFrame(tb testing.TB, frame []byte, level int) []byte {
	tb.Helper()
	metaLen := int(binary.LittleEndian.Uint32(frame[5:9]))
	out := bytes.Clone(frame[:9+metaLen])
	rest := frame[9+metaLen:]
	section := func(flags byte) {
		n := int(binary.LittleEndian.Uint32(rest[4:8]))
		payload := rest[8 : 8+n]
		if flags&flagGzip != 0 {
			zr, err := gzip.NewReader(bytes.NewReader(payload))
			if err != nil {
				tb.Fatal(err)
			}
			raw, err := io.ReadAll(zr)
			if err != nil {
				tb.Fatal(err)
			}
			payload = gzipBytes(tb, raw, level)
		}
		out = append(out, rest[:4]...) // count
		out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
		out = append(out, payload...)
		rest = rest[8+n:]
	}
	section(frame[4])
	if frame[4]&flagAux != 0 {
		aflags := rest[0]
		out = append(out, aflags)
		rest = rest[1:]
		section(aflags)
	}
	return out
}

// defaultLevelFrames encodes a round request (f64 model plus a SCAFFOLD aux
// vector) and a round response (float32-valued weights), both above
// compressThreshold, and re-deflates each at gzip.DefaultCompression — the
// level the encoder used before it moved to BestSpeed, and the one older
// peers still send. The third frame is a partial (limb window with
// specials) with its raw limbs deflated at that level, as partial frames
// were before packing replaced deflate.
func defaultLevelFrames(tb testing.TB) (req RoundRequest, resp RoundResponse, pa PartialAggregate, frames [3][]byte) {
	tb.Helper()
	rng := rand.New(rand.NewSource(5))
	model := make([]float64, 16_672) // the round-http MLP
	for i := range model {
		model[i] = rng.NormFloat64() * 0.05
	}
	aux := make([]float64, compressThreshold/8+32)
	for i := range aux {
		aux[i] = 0.1 + float64(i%9)
	}
	weights := make([]float64, 20_000)
	for i := range weights {
		weights[i] = float64(float32(rng.NormFloat64() * 0.05))
	}
	req = auxRequest(model, aux)
	resp = sampleResponse(weights)
	resp.Steps = 13
	pa = bigPartial()

	var bufs [2]bytes.Buffer
	if err := EncodeRoundRequest(&bufs[0], req); err != nil {
		tb.Fatal(err)
	}
	if err := EncodeRoundResponse(&bufs[1], resp); err != nil {
		tb.Fatal(err)
	}
	for i := range bufs[:2] {
		frame := bufs[i].Bytes()
		if frame[4]&flagGzip == 0 {
			tb.Fatalf("frame %d did not take the gzip path", i)
		}
		frames[i] = regzipFrame(tb, frame, gzip.DefaultCompression)
		if bytes.Equal(frames[i], frame) {
			tb.Fatalf("frame %d: default-level stream equals the BestSpeed one", i)
		}
	}
	frames[2] = gzipPartialFrame(tb, pa, gzip.DefaultCompression)
	return req, resp, pa, frames
}

// TestCodecDecodesDefaultLevelFrames pins decoding of round frames deflated
// at gzip.DefaultCompression: the level is the encoder's choice alone, so the
// decoders must return params and meta bit-identical to what the older peer
// framed. A gzipped partial frame is refused: no encoder emits one, and a
// partial payload is raw or packed.
func TestCodecDecodesDefaultLevelFrames(t *testing.T) {
	req, resp, pa, frames := defaultLevelFrames(t)

	gotReq, err := DecodeRoundRequest(bytes.NewReader(frames[0]))
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	if !paramsEqual(gotReq.Params, req.Params) || !paramsEqual(gotReq.Aux, req.Aux) {
		t.Error("request: vector sections differ")
	}
	gotReq.Params, gotReq.Aux, req.Params, req.Aux = nil, nil, nil, nil
	if !reflect.DeepEqual(gotReq, req) {
		t.Errorf("request meta: %+v, want %+v", gotReq, req)
	}

	gotResp, err := DecodeRoundResponse(bytes.NewReader(frames[1]))
	if err != nil {
		t.Fatalf("response: %v", err)
	}
	if !paramsEqual(gotResp.Params, resp.Params) || gotResp.Aux != nil {
		t.Error("response: vector sections differ")
	}
	gotResp.Params, resp.Params = nil, nil
	if !reflect.DeepEqual(gotResp, resp) {
		t.Errorf("response meta: %+v, want %+v", gotResp, resp)
	}

	if _, err := DecodePartialAggregate(bytes.NewReader(frames[2])); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("gzipped partial of %d limbs: err %v, want ErrCorruptFrame", len(pa.Sum.Limbs), err)
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
// allocated under 1 MB.
func TestCodecHostileLengthAllocs(t *testing.T) {
	const count = maxFrameParams
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(make([]byte, 16))
	zw.Close()
	short := gz.Bytes() // a sound gzip stream of 16 bytes

	decodeRequest := func(f []byte) error { _, err := DecodeRoundRequest(bytes.NewReader(f)); return err }
	decodeResponse := func(f []byte) error { _, err := DecodeRoundResponse(bytes.NewReader(f)); return err }
	decodePartial := func(f []byte) error { _, err := DecodePartialAggregate(bytes.NewReader(f)); return err }
	metaLie := hostileFrame(0, 0, 0, nil)
	binary.LittleEndian.PutUint32(metaLie[5:9], maxMetaBytes)
	auxLie := hostileFrame(flagAux, 1, 8, make([]byte, 8))
	auxLie = append(auxLie, 0)
	auxLie = binary.LittleEndian.AppendUint32(auxLie, count)
	auxLie = binary.LittleEndian.AppendUint32(auxLie, count*8)
	auxLie = append(auxLie, make([]byte, 9)...)

	cases := []struct {
		name   string
		decode func([]byte) error
		frame  []byte
	}{
		{"request", decodeRequest, hostileFrame(0, count, count*8, make([]byte, 9))},
		{"request gzip", decodeRequest, hostileFrame(flagGzip, count, uint32(len(short)), short)},
		{"request gzip length", decodeRequest, hostileFrame(flagGzip, count, count*8, short)},
		{"request aux", decodeRequest, auxLie},
		{"request meta", decodeRequest, metaLie},
		{"response", decodeResponse, hostileFrame(0, count, count*8, make([]byte, 9))},
		{"response gzip", decodeResponse, hostileFrame(flagGzip, count, uint32(len(short)), short)},
		{"partial", decodePartial, hostileFrame(flagLimbs, count, count*8, make([]byte, 9))},
		{"partial gzip", decodePartial, hostileFrame(flagLimbs|flagGzip, count, uint32(len(short)), short)},
	}
	for _, tc := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.decode(tc.frame)
		runtime.ReadMemStats(&after)
		wantCorruptFrame(t, err, tc.name)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1e6 {
			t.Errorf("%s: %d-byte frame allocated %d bytes, want < 1 MB", tc.name, len(tc.frame), alloc)
		}
	}
	if n := len(cases[0].frame); n != 28 {
		t.Errorf("plain hostile frame is %d bytes, want 28", n)
	}
}
