package fl

// Wire codec for the FL data plane. The HTTP transport historically moved
// every model as a JSON array of float64s — ~19 bytes per parameter once a
// value needs its full shortest-round-trip decimal form. At fleet scale the
// round traffic is dominated by those arrays, so this file defines a
// versioned binary frame for RoundRequest/RoundResponse:
//
//	offset  size  field
//	0       4     magic "BFL1" (version is part of the magic)
//	4       1     flags: bit0 payload gzipped, bit1 float32-narrowed,
//	              bit3 aux vector section present (bits 2 and 4 mark
//	              partial-aggregate frames, codec_partial.go, which the
//	              round decoders reject)
//	5       4     uint32 LE: metadata length M
//	9       M     metadata (JSON: everything except Params)
//	9+M     4     uint32 LE: parameter count N
//	13+M    4     uint32 LE: payload length P in bytes
//	17+M    P     parameter payload, little-endian IEEE-754
//
// With flags bit3 set, a second self-describing vector section follows the
// parameter payload — the algorithm auxiliary vector (SCAFFOLD control
// variates): 1 byte of section flags (gzip/f32 only), then the same
// count/length/payload triplet. Aux-less frames are byte-identical to the
// pre-aux format.
//
// Two payload transforms, both lossless and both negotiated per frame by the
// encoder alone (the flags tell the decoder everything):
//
//   - float32 narrowing: when every parameter is exactly representable as a
//     float32 — the common case for models trained in single precision and
//     shipped through a float64 API — values are stored as 4-byte floats.
//     Widening on decode reproduces the input bit-for-bit.
//   - gzip: parameter payloads at or above compressThreshold are compressed at
//     gzip.BestSpeed (flate's fast encoder). Model deltas with structure
//     (zero runs, repeated exponents) shrink further; where entropy coding
//     saves too little — fully random mantissas — the encoder falls back to
//     stored blocks, which cost a few framing bytes and inflate as a plain
//     copy. The level is the encoder's choice alone: frames deflated at any
//     level, such as the default level older peers send, decode unchanged.
//
// Frames are self-describing, so any peer decodes any frame an encoder
// produces. They are the only encoding of /v1/round bodies (http.go).

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"bofl/internal/core"
	"bofl/internal/obs"
)

// Codec and content-type identifiers of the HTTP transport.
const (
	// CodecBinary names the binary frame codec; wire-byte counters carry it
	// as their codec label.
	CodecBinary = "bofl-frame-v1"
	// ContentTypeBinary is the Content-Type of a binary frame body.
	ContentTypeBinary = "application/x-bofl-frame"
	// ContentTypeJSON is the Content-Type of the JSON control plane:
	// check-in and /v1/info.
	ContentTypeJSON = "application/json"
)

var frameMagic = [4]byte{'B', 'F', 'L', '1'}

// ErrCorruptFrame tags every structural decode failure — truncation, bad
// magic, unknown flags, length-field lies, gzip or packed-payload damage,
// garbled metadata. The serving plane's quarantine path matches it with
// errors.Is to tell a client shipping damaged frames apart from a client
// that merely timed out, so the decoder must never surface a raw io or gzip
// error for hostile input.
var ErrCorruptFrame = errors.New("fl: corrupt frame")

const (
	flagGzip byte = 1 << 0 // payload section is gzip-compressed
	flagF32  byte = 1 << 1 // parameters stored as float32 (exact)
	// flagAux marks a frame carrying a second vector section after the
	// parameter payload — the algorithm auxiliary vector (SCAFFOLD control
	// variates). The section is self-describing: a 1-byte section flag
	// (gzip/f32, negotiated independently of the main payload) followed by
	// the same count/length/payload layout.
	flagAux byte = 1 << 3

	// compressThreshold is the raw payload size in bytes at which the
	// encoders compress: gzip for a parameter payload, packing for a partial
	// frame's limb window (codec_partial.go). Below it the framing and the
	// CPU cost outweigh any win on small vectors.
	compressThreshold = 64 << 10

	// Decoder sanity caps: a frame that claims more is rejected before any
	// allocation, so truncated or hostile inputs cannot balloon memory.
	maxMetaBytes   = 1 << 20
	maxFrameParams = 1 << 26
)

// roundRequestMeta is RoundRequest minus the parameter vector. The trace
// fields carry the server-minted round trace context in-band, so a round
// sent through a transport that strips custom headers still joins the
// stitched round trace.
type roundRequestMeta struct {
	Round    int     `json:"round"`
	Jobs     int     `json:"jobs"`
	Deadline float64 `json:"deadlineSeconds"`
	TraceID  string  `json:"traceId,omitempty"`
	SpanID   string  `json:"spanId,omitempty"`
	Alg      string  `json:"alg,omitempty"`
	Prox     float64 `json:"prox,omitempty"`
}

// roundResponseMeta is RoundResponse minus the parameter vector.
type roundResponseMeta struct {
	ClientID    string            `json:"clientId"`
	NumExamples int               `json:"numExamples"`
	Report      core.RoundReport  `json:"report"`
	Spans       []obs.SpanSummary `json:"spans,omitempty"`
	Steps       int               `json:"steps,omitempty"`
}

// Pooled scratch: frame assembly and payload staging reuse buffers across
// rounds so the steady-state encode path allocates only the caller-visible
// result. Buffers beyond maxPooledBytes are dropped instead of pinned.
const maxPooledBytes = 16 << 20

var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBuf() *bytes.Buffer {
	b := bufPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putBuf(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBytes {
		bufPool.Put(b)
	}
}

var bytesPool = sync.Pool{New: func() any { return new([]byte) }}

// getBytes returns a pooled scratch slice of length n.
func getBytes(n int) *[]byte {
	p := bytesPool.Get().(*[]byte)
	if cap(*p) < n {
		*p = make([]byte, n)
	}
	*p = (*p)[:n]
	return p
}

func putBytes(p *[]byte) {
	if cap(*p) <= maxPooledBytes {
		bytesPool.Put(p)
	}
}

// vecPool holds the vectors round frames decode into. The pool hands each
// vector to one decode, whose caller owns it; the round paths that are done
// with one hand it back: the daemon once BeginRound has copied a request's
// parameters, the server once Contribute has folded a response's. A pool, not
// a buffer per peer, so no vector outlives the rounds that use it.
var vecPool = sync.Pool{New: func() any { return new([]float64) }}

// getVec returns a vector of length n from vecPool, its contents undefined.
func getVec(n int) []float64 {
	p := vecPool.Get().(*[]float64)
	if cap(*p) < n {
		return make([]float64, n)
	}
	return (*p)[:n]
}

// putVec hands v back to vecPool; the caller must not touch it afterwards.
func putVec(v []float64) {
	if cap(v)*8 <= maxPooledBytes {
		vecPool.Put(&v)
	}
}

// gzipLevel is the deflate level of every frame payload. BestSpeed beats the
// default level on every payload the data plane ships: a sixth of the encode
// time for a few percent of bytes (DESIGN §7), so it is not a knob.
const gzipLevel = gzip.BestSpeed

var gzipWriterPool = sync.Pool{New: func() any {
	zw, _ := gzip.NewWriterLevel(io.Discard, gzipLevel) // a valid level never errors
	return zw
}}

var gzipReaderPool = sync.Pool{New: func() any { return new(gzip.Reader) }}

// f32Exact reports whether every parameter survives a round trip through
// float32 unchanged (NaNs never do, so they keep the 8-byte path and their
// payload bits).
func f32Exact(params []float64) bool {
	if len(params) == 0 {
		return false
	}
	for _, v := range params {
		if float64(float32(v)) != v {
			return false
		}
	}
	return true
}

// stageVec encodes one vector section into its wire form: the section flags
// (f32 narrowing, gzip) and the staged payload bytes. release returns the
// pooled scratch backing payload; callers must not touch payload after it.
func stageVec(vec []float64) (flags byte, payload []byte, release func(), err error) {
	elem := 8
	if f32Exact(vec) {
		flags |= flagF32
		elem = 4
	}
	raw := getBytes(len(vec) * elem)
	if elem == 4 {
		for i, v := range vec {
			binary.LittleEndian.PutUint32((*raw)[i*4:], math.Float32bits(float32(v)))
		}
	} else {
		for i, v := range vec {
			binary.LittleEndian.PutUint64((*raw)[i*8:], math.Float64bits(v))
		}
	}
	payload = *raw
	if len(payload) >= compressThreshold {
		comp, err := deflate(payload)
		if err != nil {
			putBytes(raw)
			return 0, nil, func() {}, fmt.Errorf("fl: gzip frame payload: %w", err)
		}
		flags |= flagGzip
		payload = comp.Bytes()
		return flags, payload, func() { putBuf(comp); putBytes(raw) }, nil
	}
	return flags, payload, func() { putBytes(raw) }, nil
}

// deflate gzips payload at gzipLevel into a pooled buffer the caller returns
// with putBuf.
func deflate(payload []byte) (*bytes.Buffer, error) {
	comp := getBuf()
	zw := gzipWriterPool.Get().(*gzip.Writer)
	zw.Reset(comp)
	_, werr := zw.Write(payload)
	cerr := zw.Close()
	gzipWriterPool.Put(zw)
	if err := firstErr(werr, cerr); err != nil {
		putBuf(comp)
		return nil, err
	}
	return comp, nil
}

// writeVecSection writes a staged vector section: count, payload length,
// payload. scratch must have ≥ 8 bytes for the two length fields.
func writeVecSection(w io.Writer, scratch []byte, count int, payload []byte) error {
	binary.LittleEndian.PutUint32(scratch[:4], uint32(count))
	binary.LittleEndian.PutUint32(scratch[4:8], uint32(len(payload)))
	if _, err := w.Write(scratch[:8]); err != nil {
		return fmt.Errorf("fl: write frame header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("fl: write frame payload: %w", err)
	}
	return nil
}

// encodeFrame writes one frame carrying meta, params and an optional aux
// vector to w. Aux-less frames are byte-identical to the pre-aux format.
func encodeFrame(w io.Writer, meta any, params, aux []float64) error {
	mb, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("fl: encode frame meta: %w", err)
	}
	if len(mb) > maxMetaBytes {
		return fmt.Errorf("fl: frame meta %d bytes exceeds %d", len(mb), maxMetaBytes)
	}
	if len(params) > maxFrameParams || len(aux) > maxFrameParams {
		return fmt.Errorf("fl: %d params exceed frame limit %d", max(len(params), len(aux)), maxFrameParams)
	}

	flags, payload, release, err := stageVec(params)
	defer release()
	if err != nil {
		return err
	}
	if len(aux) > 0 {
		flags |= flagAux
	}

	var hdr [17]byte
	copy(hdr[:4], frameMagic[:])
	hdr[4] = flags
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(len(mb)))
	if _, err := w.Write(hdr[:9]); err != nil {
		return fmt.Errorf("fl: write frame header: %w", err)
	}
	if _, err := w.Write(mb); err != nil {
		return fmt.Errorf("fl: write frame meta: %w", err)
	}
	if err := writeVecSection(w, hdr[9:17], len(params), payload); err != nil {
		return err
	}
	if flags&flagAux == 0 {
		return nil
	}
	aflags, apayload, arelease, err := stageVec(aux)
	defer arelease()
	if err != nil {
		return err
	}
	hdr[8] = aflags
	if _, err := w.Write(hdr[8:9]); err != nil {
		return fmt.Errorf("fl: write frame header: %w", err)
	}
	return writeVecSection(w, hdr[9:17], len(aux), apayload)
}

// jsonMarshalMeta marshals a frame metadata section with the size cap applied.
func jsonMarshalMeta(meta any) ([]byte, error) {
	mb, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("fl: encode frame meta: %w", err)
	}
	if len(mb) > maxMetaBytes {
		return nil, fmt.Errorf("fl: frame meta %d bytes exceeds %d", len(mb), maxMetaBytes)
	}
	return mb, nil
}

// jsonUnmarshalMeta decodes a frame metadata section, tagging damage corrupt.
func jsonUnmarshalMeta(b []byte, meta any) error {
	if err := json.Unmarshal(b, meta); err != nil {
		return fmt.Errorf("%w: decode meta: %w", ErrCorruptFrame, err)
	}
	return nil
}

// firstErr returns the first non-nil error (helper for the two-error gzip close).
func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// readGrow reads exactly n bytes from r into the pooled slice *p and returns
// them. It fills the slice's existing capacity first, so a warm pool reads a
// steady-state frame with no copy or allocation; past that capacity it grows
// only as bytes arrive, doubling, so a frame whose length field lies costs
// what its sender actually sent rather than what it claimed.
func readGrow(r io.Reader, p *[]byte, n int) ([]byte, error) {
	b := (*p)[:0]
	for len(b) < n {
		if len(b) == cap(b) {
			b = slices.Grow(b, min(n-len(b), max(len(b), minReadGrow)))
		}
		m, err := r.Read(b[len(b):min(cap(b), n)])
		b = b[:len(b)+m]
		if err != nil && len(b) < n {
			*p = b
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	*p = b
	return b, nil
}

// minReadGrow is the smallest step by which readGrow grows a full slice, and
// so its first allocation when the pooled slice is empty.
const minReadGrow = 32 << 10

// inflate gunzips src into the pooled slice *dst, which must come out at
// exactly n bytes, and returns the inflated bytes. Truncated or bit-flipped
// streams surface as gzip header, short-inflate or checksum errors, all
// wrapped in ErrCorruptFrame so the quarantine path can count them.
func inflate(src []byte, dst *[]byte, n int) ([]byte, error) {
	zr := gzipReaderPool.Get().(*gzip.Reader)
	defer gzipReaderPool.Put(zr)
	if err := zr.Reset(bytes.NewReader(src)); err != nil {
		return nil, fmt.Errorf("%w: gzip payload: %w", ErrCorruptFrame, err)
	}
	raw, err := readGrow(zr, dst, n)
	if err != nil {
		return nil, fmt.Errorf("%w: inflate payload: %w", ErrCorruptFrame, err)
	}
	// The stream must end here, and its checksum must hold. The reader's
	// error is sticky, so a checksum failure returned with the last bytes
	// surfaces again on this read.
	var one [1]byte
	if m, err := zr.Read(one[:]); m != 0 {
		return nil, fmt.Errorf("%w: payload inflates past %d declared bytes", ErrCorruptFrame, n)
	} else if err != io.EOF {
		return nil, fmt.Errorf("%w: inflate payload: %w", ErrCorruptFrame, err)
	}
	return raw, nil
}

// readPayload reads a vector section's payloadLen wire bytes into the pooled
// slice *wire and returns the rawLen raw bytes they carry: the wire bytes
// themselves, or for a gzip section their inflation into *inflated. The
// caller releases both slices once it is done with the result.
func readPayload(r io.Reader, gz bool, payloadLen uint32, rawLen int, wire, inflated *[]byte) ([]byte, error) {
	if !gz {
		if int(payloadLen) != rawLen {
			return nil, fmt.Errorf("%w: payload %d bytes, want %d", ErrCorruptFrame, payloadLen, rawLen)
		}
	} else if int64(payloadLen) > int64(rawLen)+(64<<10) {
		// gzip never expands beyond a small framing overhead; anything
		// bigger is a length-field lie.
		return nil, fmt.Errorf("%w: gzip payload %d bytes for %d raw", ErrCorruptFrame, payloadLen, rawLen)
	}
	raw, err := readGrow(r, wire, int(payloadLen))
	if err != nil {
		return nil, fmt.Errorf("%w: read payload: %w", ErrCorruptFrame, err)
	}
	if gz {
		return inflate(raw, inflated, rawLen)
	}
	return raw, nil
}

// readVec reads one vector section (count, payload length, payload) under
// the given section flags into a vector from vecPool, validating every
// declared length before any allocation.
func readVec(r io.Reader, flags byte) ([]float64, error) {
	var tail [8]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return nil, fmt.Errorf("%w: read header: %w", ErrCorruptFrame, err)
	}
	count := binary.LittleEndian.Uint32(tail[:4])
	payloadLen := binary.LittleEndian.Uint32(tail[4:8])
	if count > maxFrameParams {
		return nil, fmt.Errorf("%w: claims %d params, limit %d", ErrCorruptFrame, count, maxFrameParams)
	}
	elem := 8
	if flags&flagF32 != 0 {
		elem = 4
	}
	wire, inflated := bytesPool.Get().(*[]byte), bytesPool.Get().(*[]byte)
	defer putBytes(wire)
	defer putBytes(inflated)
	raw, err := readPayload(r, flags&flagGzip != 0, payloadLen, int(count)*elem, wire, inflated)
	if err != nil {
		return nil, err
	}

	out := getVec(int(count))
	if elem == 4 {
		for i := range out {
			out[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:])))
		}
	} else {
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
		}
	}
	return out, nil
}

// decodeFrame reads one frame from r, unmarshals the metadata into meta and
// returns the parameter vector plus the aux vector (nil unless the frame set
// flagAux). Truncated, oversized or malformed frames return an error
// wrapping ErrCorruptFrame; decodeFrame never panics on hostile input.
func decodeFrame(r io.Reader, meta any) ([]float64, []float64, error) {
	var hdr [9]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, nil, fmt.Errorf("%w: read header: %w", ErrCorruptFrame, err)
	}
	if !bytes.Equal(hdr[:4], frameMagic[:]) {
		return nil, nil, fmt.Errorf("%w: bad magic %q", ErrCorruptFrame, hdr[:4])
	}
	flags := hdr[4]
	if flags&^(flagGzip|flagF32|flagAux) != 0 {
		return nil, nil, fmt.Errorf("%w: unknown flags %#x", ErrCorruptFrame, flags)
	}
	metaLen := binary.LittleEndian.Uint32(hdr[5:9])
	if metaLen > maxMetaBytes {
		return nil, nil, fmt.Errorf("%w: meta %d bytes exceeds %d", ErrCorruptFrame, metaLen, maxMetaBytes)
	}
	mbp := bytesPool.Get().(*[]byte)
	defer putBytes(mbp)
	mb, err := readGrow(r, mbp, int(metaLen))
	if err != nil {
		return nil, nil, fmt.Errorf("%w: read meta: %w", ErrCorruptFrame, err)
	}
	if err := json.Unmarshal(mb, meta); err != nil {
		return nil, nil, fmt.Errorf("%w: decode meta: %w", ErrCorruptFrame, err)
	}

	params, err := readVec(r, flags)
	if err != nil {
		return nil, nil, err
	}
	var aux []float64
	if flags&flagAux != 0 {
		var ab [1]byte
		if _, err := io.ReadFull(r, ab[:]); err != nil {
			return nil, nil, fmt.Errorf("%w: read aux header: %w", ErrCorruptFrame, err)
		}
		if ab[0]&^(flagGzip|flagF32) != 0 {
			return nil, nil, fmt.Errorf("%w: unknown aux flags %#x", ErrCorruptFrame, ab[0])
		}
		if aux, err = readVec(r, ab[0]); err != nil {
			return nil, nil, err
		}
	}
	return params, aux, nil
}

// EncodeRoundRequest writes req to w as one binary frame.
func EncodeRoundRequest(w io.Writer, req RoundRequest) error {
	return encodeFrame(w, roundRequestMeta{
		Round: req.Round, Jobs: req.Jobs, Deadline: req.Deadline,
		TraceID: req.Trace.TraceID, SpanID: req.Trace.SpanID,
		Alg: req.Alg, Prox: req.Prox,
	}, req.Params, req.Aux)
}

// DecodeRoundRequest reads one binary frame from r. Trace fields are decoded
// faithfully (the codec roundtrips whatever was framed); ingress validation
// against hostile values is the handler's job via TraceContext.Sanitized.
func DecodeRoundRequest(r io.Reader) (RoundRequest, error) {
	var meta roundRequestMeta
	params, aux, err := decodeFrame(r, &meta)
	if err != nil {
		return RoundRequest{}, err
	}
	return RoundRequest{
		Round: meta.Round, Params: params, Jobs: meta.Jobs, Deadline: meta.Deadline,
		Trace: obs.TraceContext{TraceID: meta.TraceID, SpanID: meta.SpanID},
		Alg:   meta.Alg, Prox: meta.Prox, Aux: aux,
	}, nil
}

// EncodeRoundResponse writes resp to w as one binary frame.
func EncodeRoundResponse(w io.Writer, resp RoundResponse) error {
	return encodeFrame(w, roundResponseMeta{
		ClientID: resp.ClientID, NumExamples: resp.NumExamples,
		Report: resp.Report, Spans: resp.Spans, Steps: resp.Steps,
	}, resp.Params, resp.Aux)
}

// DecodeRoundResponse reads one binary frame from r.
func DecodeRoundResponse(r io.Reader) (RoundResponse, error) {
	var meta roundResponseMeta
	params, aux, err := decodeFrame(r, &meta)
	if err != nil {
		return RoundResponse{}, err
	}
	return RoundResponse{
		ClientID: meta.ClientID, Params: params, NumExamples: meta.NumExamples,
		Report: meta.Report, Spans: meta.Spans, Steps: meta.Steps, Aux: aux,
	}, nil
}
