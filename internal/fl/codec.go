package fl

// Wire codec for the FL data plane. The HTTP transport historically moved
// every model as a JSON array of float64s — ~19 bytes per parameter once a
// value needs its full shortest-round-trip decimal form. At fleet scale the
// round traffic is dominated by those arrays, so this file defines a
// versioned binary frame for RoundRequest/RoundResponse:
//
//	offset  size  field
//	0       4     magic "BFL1" (version is part of the magic)
//	4       1     flags: bit1 float32-narrowed, bit3 aux vector section
//	              present; any other bit fails the decode (bits 2 and 4
//	              mark partial-aggregate frames, codec_partial.go)
//	5       4     uint32 LE: metadata length M
//	9       M     metadata (JSON: everything except Params)
//	9+M     4     uint32 LE: parameter count N
//	13+M    4     uint32 LE: payload length P in bytes
//	17+M    P     parameter payload, little-endian IEEE-754
//	then    4     uint32 LE: CRC-32 (IEEE) of every byte before it
//
// With flags bit3 set, a second self-describing vector section follows the
// parameter payload, before the CRC — the algorithm auxiliary vector
// (SCAFFOLD control variates): 1 byte of section flags (f32 only), then the
// same count/length/payload triplet.
//
// Payloads are raw, with one lossless transform the encoder chooses per
// section and declares in its flags: float32 narrowing, when every value is
// exactly representable as a float32. Widening on decode reproduces the
// input bit for bit. Nothing is compressed: internal/ml trains in float64,
// and deflate shrinks such weights by nothing (DESIGN §7).
//
// The CRC trailer is the frame's one integrity check, at every size: the
// decoder checks it before it returns, so any single-bit flip anywhere in a
// frame, metadata and length fields included, fails ErrCorruptFrame instead
// of decoding to different values. Frames are self-describing, so any peer
// decodes any frame an encoder produces. They are the only encoding of
// /v1/round bodies (http.go), one frame per body.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
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
// magic, unknown flags, length-field lies, a CRC mismatch, packed-payload
// damage, garbled metadata, bytes after the frame. The serving plane's
// quarantine path matches it with errors.Is to tell a client shipping
// damaged frames apart from a client that merely timed out, so the decoder
// must never surface a raw io error for hostile input.
var ErrCorruptFrame = errors.New("fl: corrupt frame")

const (
	flagF32 byte = 1 << 1 // parameters stored as float32 (exact)
	// flagAux marks a frame carrying a second vector section after the
	// parameter payload — the algorithm auxiliary vector (SCAFFOLD control
	// variates). The section is self-describing: a 1-byte section flag
	// (f32, chosen independently of the main payload) followed by the same
	// count/length/payload layout.
	flagAux byte = 1 << 3

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

// stageVec encodes one vector section's payload into pooled scratch, which
// the caller hands back with putBytes once it is written, and returns the
// section flags: flagF32 when every value narrows to float32 exactly.
func stageVec(vec []float64) (flags byte, payload *[]byte) {
	elem := 8
	if f32Exact(vec) {
		flags = flagF32
		elem = 4
	}
	payload = getBytes(len(vec) * elem)
	if elem == 4 {
		for i, v := range vec {
			binary.LittleEndian.PutUint32((*payload)[i*4:], math.Float32bits(float32(v)))
		}
	} else {
		for i, v := range vec {
			binary.LittleEndian.PutUint64((*payload)[i*8:], math.Float64bits(v))
		}
	}
	return flags, payload
}

// frameWriter writes a round frame's pieces to w, folding each into the
// CRC-32 the frame ends with, and keeps the first write error.
type frameWriter struct {
	w   io.Writer
	crc uint32
	err error
}

func (f *frameWriter) write(b []byte) {
	if f.err == nil {
		f.crc = crc32.Update(f.crc, crc32.IEEETable, b)
		_, f.err = f.w.Write(b)
	}
}

// section writes a staged vector section: count, payload length, payload.
// scratch must have ≥ 8 bytes for the two length fields.
func (f *frameWriter) section(scratch []byte, count int, payload []byte) {
	binary.LittleEndian.PutUint32(scratch[:4], uint32(count))
	binary.LittleEndian.PutUint32(scratch[4:8], uint32(len(payload)))
	f.write(scratch[:8])
	f.write(payload)
}

// encodeFrame writes one frame carrying meta, params and an optional aux
// vector to w, then the CRC-32 of those bytes.
func encodeFrame(w io.Writer, meta any, params, aux []float64) error {
	mb, err := jsonMarshalMeta(meta)
	if err != nil {
		return err
	}
	if len(params) > maxFrameParams || len(aux) > maxFrameParams {
		return fmt.Errorf("fl: %d params exceed frame limit %d", max(len(params), len(aux)), maxFrameParams)
	}

	flags, payload := stageVec(params)
	defer putBytes(payload)
	if len(aux) > 0 {
		flags |= flagAux
	}
	var hdr [17]byte
	copy(hdr[:4], frameMagic[:])
	hdr[4] = flags
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(len(mb)))
	fw := frameWriter{w: w}
	fw.write(hdr[:9])
	fw.write(mb)
	fw.section(hdr[9:17], len(params), *payload)
	if len(aux) > 0 {
		aflags, apayload := stageVec(aux)
		defer putBytes(apayload)
		hdr[8] = aflags
		fw.write(hdr[8:9])
		fw.section(hdr[9:17], len(aux), *apayload)
	}
	binary.LittleEndian.PutUint32(hdr[:4], fw.crc) // the trailer
	fw.write(hdr[:4])
	if fw.err != nil {
		return fmt.Errorf("fl: write frame: %w", fw.err)
	}
	return nil
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

// crcReader folds every byte read through it into a running CRC-32 (IEEE),
// which decodeFrame checks against the frame's trailer.
type crcReader struct {
	r   io.Reader
	crc uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
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
	elem := uint32(8)
	if flags&flagF32 != 0 {
		elem = 4
	}
	if payloadLen != count*elem {
		return nil, fmt.Errorf("%w: payload %d bytes, want %d", ErrCorruptFrame, payloadLen, count*elem)
	}
	wire := bytesPool.Get().(*[]byte)
	defer putBytes(wire)
	raw, err := readGrow(r, wire, int(payloadLen))
	if err != nil {
		return nil, fmt.Errorf("%w: read payload: %w", ErrCorruptFrame, err)
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
// flagAux). It checks the CRC trailer before it parses the metadata or
// returns. Truncated, oversized, malformed or damaged frames return an error
// wrapping ErrCorruptFrame; decodeFrame never panics on hostile input.
func decodeFrame(r io.Reader, meta any) ([]float64, []float64, error) {
	cr := &crcReader{r: r}
	var hdr [9]byte
	if _, err := io.ReadFull(cr, hdr[:]); err != nil {
		return nil, nil, fmt.Errorf("%w: read header: %w", ErrCorruptFrame, err)
	}
	if !bytes.Equal(hdr[:4], frameMagic[:]) {
		return nil, nil, fmt.Errorf("%w: bad magic %q", ErrCorruptFrame, hdr[:4])
	}
	flags := hdr[4]
	if flags&^(flagF32|flagAux) != 0 {
		return nil, nil, fmt.Errorf("%w: unknown flags %#x", ErrCorruptFrame, flags)
	}
	metaLen := binary.LittleEndian.Uint32(hdr[5:9])
	if metaLen > maxMetaBytes {
		return nil, nil, fmt.Errorf("%w: meta %d bytes exceeds %d", ErrCorruptFrame, metaLen, maxMetaBytes)
	}
	mbp := bytesPool.Get().(*[]byte)
	defer putBytes(mbp)
	mb, err := readGrow(cr, mbp, int(metaLen))
	if err != nil {
		return nil, nil, fmt.Errorf("%w: read meta: %w", ErrCorruptFrame, err)
	}

	params, err := readVec(cr, flags)
	if err != nil {
		return nil, nil, err
	}
	var aux []float64
	if flags&flagAux != 0 {
		if _, err := io.ReadFull(cr, hdr[:1]); err != nil {
			return nil, nil, fmt.Errorf("%w: read aux header: %w", ErrCorruptFrame, err)
		}
		if hdr[0]&^flagF32 != 0 {
			return nil, nil, fmt.Errorf("%w: unknown aux flags %#x", ErrCorruptFrame, hdr[0])
		}
		if aux, err = readVec(cr, hdr[0]); err != nil {
			return nil, nil, err
		}
	}
	// The trailer is read past cr, so cr.crc covers every byte before it.
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return nil, nil, fmt.Errorf("%w: read CRC: %w", ErrCorruptFrame, err)
	}
	if binary.LittleEndian.Uint32(hdr[:4]) != cr.crc {
		return nil, nil, fmt.Errorf("%w: frame CRC mismatch", ErrCorruptFrame)
	}
	if err := jsonUnmarshalMeta(mb, meta); err != nil {
		return nil, nil, err
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
