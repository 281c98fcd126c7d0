package fl

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"bofl/internal/obs"
)

// HTTP transport: a client daemon serves its training endpoint over HTTP and
// the server drives it through an HTTPParticipant. Two endpoints:
//
//	GET  /v1/info           → InfoResponse (JSON)
//	POST /v1/round          → RoundRequest ⇒ RoundResponse (BFL1 frames)
//
// Round bodies travel only as the binary frame defined in codec.go, so each
// direction has one bounded, fuzzed decoder. A daemon answers a body of any
// other Content-Type with 415 and a counted codec error; a participant decodes
// every 200 answer as a frame, so anything else fails with ErrCorruptFrame
// and takes the server's quarantine path. Either end reads a round body
// through decodeBody: one frame, then EOF.
//
// This mirrors the configuration/execution/reporting flow of Figure 1 with a
// plain stdlib stack.

// InfoResponse advertises a client's identity and pace capabilities.
type InfoResponse struct {
	ClientID    string  `json:"clientId"`
	Device      string  `json:"device"`
	TMinPerJob  float64 `json:"tminPerJobSeconds"`
	NumExamples int     `json:"numExamples"`
}

// maxControlBody caps every JSON body the control plane reads: a check-in
// request, a check-in ack and a daemon's /v1/info. A check-in names the URL
// the server dials back, so without the cap any peer that can check in could
// make the server decode an unbounded body from a host of its choosing. Each
// read goes through http.MaxBytesReader, so a body over the cap fails with
// *http.MaxBytesError, told apart from a peer that hung up mid-body
// (io.ErrUnexpectedEOF).
const maxControlBody = 1 << 20

// flTransport is the process-wide HTTP transport shared by every
// HTTPParticipant and check-in call: connections to client daemons are kept
// alive across rounds instead of being re-dialed every round (the transport
// keeps a connection only once its answer was read to EOF, which decodeBody
// does), and dials are individually bounded so one unreachable device cannot
// absorb the whole round timeout.
var flTransport = &http.Transport{
	Proxy: http.ProxyFromEnvironment,
	DialContext: (&net.Dialer{
		Timeout:   10 * time.Second,
		KeepAlive: 30 * time.Second,
	}).DialContext,
	MaxIdleConns:        0, // no global cap; per-host below
	MaxIdleConnsPerHost: 64,
	IdleConnTimeout:     90 * time.Second,
}

// maxTMinPerJob bounds the per-minibatch T_min a daemon may advertise: one
// hour, far beyond any device modelled here. The server scales the slowest
// selected T_min into the round deadline, so a larger or non-finite value
// would make that deadline +Inf and every participant's round request
// unencodable.
const maxTMinPerJob = 3600.0

// decodeInfo reads a daemon's /v1/info body through the control-plane cap and
// validates it: a client ID and a per-job T_min in (0, maxTMinPerJob].
func decodeInfo(body io.Reader) (InfoResponse, error) {
	var info InfoResponse
	if err := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(body), maxControlBody)).Decode(&info); err != nil {
		return InfoResponse{}, err
	}
	if info.ClientID == "" {
		return InfoResponse{}, fmt.Errorf("malformed info %+v: no clientId", info)
	}
	if !(info.TMinPerJob > 0 && info.TMinPerJob <= maxTMinPerJob) {
		return InfoResponse{}, fmt.Errorf("malformed info %+v: tminPerJobSeconds outside (0, %g]", info, maxTMinPerJob)
	}
	return info, nil
}

// maxRoundBody caps a /v1/round body in either direction.
const maxRoundBody = 64 << 20

// countingReader counts the bytes pulled through it, for wire accounting.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// decodeBody decodes the one frame a /v1/round body carries and reads the
// body on to its end, returning the bytes read for wire accounting. A body
// with bytes after the frame fails ErrCorruptFrame. Reaching EOF also lets
// the client transport keep the connection: an answer's body closed before
// EOF, such as a chunked one whose last chunk is unread, drops it.
func decodeBody[T any](body io.ReadCloser, decode func(io.Reader) (T, error)) (T, int64, error) {
	cr := &countingReader{r: http.MaxBytesReader(nil, body, maxRoundBody)}
	v, err := decode(cr)
	if err == nil {
		var one [1]byte
		if n, rerr := io.ReadFull(cr, one[:]); n > 0 {
			err = fmt.Errorf("%w: bytes after the frame", ErrCorruptFrame)
		} else if rerr != io.EOF {
			err = fmt.Errorf("%w: read past the frame: %w", ErrCorruptFrame, rerr)
		}
	}
	if err != nil {
		var zero T
		return zero, cr.n, err
	}
	return v, cr.n, nil
}

// ClientHandler exposes a *Client over HTTP.
type ClientHandler struct {
	client       *Client
	mux          *http.ServeMux
	sink         obs.Sink
	noSpanReport bool
}

var _ http.Handler = (*ClientHandler)(nil)

// NewClientHandler wraps a client.
func NewClientHandler(c *Client) *ClientHandler {
	h := &ClientHandler{client: c, mux: http.NewServeMux(), sink: obs.Nop}
	h.mux.HandleFunc("GET /v1/info", h.handleInfo)
	h.mux.HandleFunc("POST /v1/round", h.handleRound)
	return h
}

// SetNoSpanReport opts the daemon out of distributed tracing: incoming trace
// contexts are dropped at ingress, so local spans carry no trace labels and
// round responses return no span summaries (flclient -no-span-report).
func (h *ClientHandler) SetNoSpanReport(on bool) { h.noSpanReport = on }

// SetTelemetry installs a live telemetry backend: error counters flow into
// its registry and the introspection endpoints (/metrics, /healthz,
// /v1/telemetry) are mounted next to the API. Also propagates the sink to the
// wrapped client.
func (h *ClientHandler) SetTelemetry(t *obs.Telemetry) {
	if t == nil {
		return
	}
	h.sink = t
	h.client.SetSink(t)
	t.Mount(h.mux)
}

// ServeHTTP dispatches to the API endpoints.
func (h *ClientHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

func (h *ClientHandler) handleInfo(w http.ResponseWriter, r *http.Request) {
	perJob, err := h.client.TMin(1)
	if err != nil {
		h.sink.Count(obs.MetricFLHTTPErrors, 1, obs.L("endpoint", "info"), obs.L("kind", "internal"))
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, InfoResponse{
		ClientID:    h.client.ID(),
		Device:      h.client.dev.Name(),
		TMinPerJob:  perJob,
		NumExamples: h.client.NumExamples(),
	})
}

func (h *ClientHandler) handleRound(w http.ResponseWriter, r *http.Request) {
	if !strings.HasPrefix(r.Header.Get("Content-Type"), ContentTypeBinary) {
		h.sink.Count(obs.MetricFLHTTPErrors, 1, obs.L("endpoint", "round"), obs.L("kind", "codec"))
		http.Error(w, "round bodies must be "+ContentTypeBinary, http.StatusUnsupportedMediaType)
		return
	}
	req, rx, err := decodeBody(r.Body, DecodeRoundRequest)
	if err != nil {
		h.sink.Count(obs.MetricFLHTTPErrors, 1, obs.L("endpoint", "round"), obs.L("kind", "decode"))
		http.Error(w, fmt.Sprintf("decode round request: %v", err), http.StatusBadRequest)
		return
	}
	h.sink.Count(obs.MetricFLWireRx, float64(rx), obs.L("codec", CodecBinary))

	// Trace-context ingress: the X-Bofl-Trace header wins (it survives even
	// proxies that re-encode the body); the frame's meta fields are the
	// in-band fallback. Either way the value is sanitized here — a hostile or
	// oversized wire value degrades to "untraced", never into the span labels
	// or the exposition.
	if h.noSpanReport {
		req.Trace = obs.TraceContext{}
	} else if hdr, ok := obs.ParseTraceContext(r.Header.Get(obs.TraceHeader)); ok {
		req.Trace = hdr
	} else {
		req.Trace = req.Trace.Sanitized()
	}

	// BeginRound copies the request's parameters into the replica, so their
	// vector goes back to the pool at once; the response's Params alias the
	// replica, which is encoded below without a copy.
	err = h.client.BeginRound(req)
	putVec(req.Params)
	var resp RoundResponse
	if err == nil {
		resp, err = h.client.runRound(req)
	}
	if err != nil {
		h.sink.Count(obs.MetricFLHTTPErrors, 1, obs.L("endpoint", "round"), obs.L("kind", "round"))
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}

	buf := getBuf()
	defer putBuf(buf)
	if err := EncodeRoundResponse(buf, resp); err != nil {
		h.sink.Count(obs.MetricFLHTTPErrors, 1, obs.L("endpoint", "round"), obs.L("kind", "encode"))
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", ContentTypeBinary)
	if _, err := w.Write(buf.Bytes()); err != nil {
		return // headers already sent; nothing more we can do
	}
	h.sink.Count(obs.MetricFLWireTx, float64(buf.Len()), obs.L("codec", CodecBinary))
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", ContentTypeJSON)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are already sent; nothing more we can do.
		return
	}
}

// HTTPParticipant drives a remote client daemon.
type HTTPParticipant struct {
	baseURL string
	id      string
	perJob  float64
	client  *http.Client
	sink    obs.Sink

	// attemptTx/attemptRx record the serialized bytes the most recent Round
	// call moved, for per-attempt ledger attribution. The server calls one
	// participant sequentially within a round (retries are serial), so
	// last-write-wins is exact; atomics only guard cross-round races.
	attemptTx atomic.Int64
	attemptRx atomic.Int64
}

// releaseParams hands a folded response's parameter vector back to the
// codec's pool, implementing the server's paramsReleaser hook.
func (p *HTTPParticipant) releaseParams(params []float64) { putVec(params) }

// lastWire reports the bytes moved by the most recent Round call,
// implementing the wireAccounter extension the round ledger reads.
func (p *HTTPParticipant) lastWire() (tx, rx int64) {
	return p.attemptTx.Load(), p.attemptRx.Load()
}

// SetSink installs a telemetry sink counting transport, status and decode
// failures against the remote daemon, plus wire bytes.
func (p *HTTPParticipant) SetSink(s obs.Sink) { p.sink = obs.OrNop(s) }

// SetTransport replaces the participant's HTTP round-tripper — the hook the
// chaos harness uses to wrap the shared keep-alive transport in a
// faultinject.Transport. The client's timeout is preserved.
func (p *HTTPParticipant) SetTransport(rt http.RoundTripper) {
	p.client = &http.Client{Timeout: p.client.Timeout, Transport: rt}
}

// Codec reports the round codec, which is always CodecBinary.
func (p *HTTPParticipant) Codec() string { return CodecBinary }

// countErr increments the HTTP error counter for the round endpoint.
func (p *HTTPParticipant) countErr(kind string) {
	p.sink.Count(obs.MetricFLHTTPErrors, 1, obs.L("endpoint", "round"), obs.L("kind", kind))
}

var _ Participant = (*HTTPParticipant)(nil)

// DialParticipant contacts a client daemon and caches its identity. All
// participants share one keep-alive transport, so per-round requests reuse
// established connections.
func DialParticipant(baseURL string, timeout time.Duration) (*HTTPParticipant, error) {
	return dialParticipant(context.Background(), baseURL, timeout)
}

// DialParticipantContext is DialParticipant honoring a caller context, so a
// dial against a dead or hung endpoint aborts on cancellation instead of
// waiting out the full client timeout. It returns the Participant interface
// to match the Registry's dial hook.
func DialParticipantContext(ctx context.Context, baseURL string, timeout time.Duration) (Participant, error) {
	return dialParticipant(ctx, baseURL, timeout)
}

func dialParticipant(ctx context.Context, baseURL string, timeout time.Duration) (*HTTPParticipant, error) {
	hc := &http.Client{Timeout: timeout, Transport: flTransport}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/info", nil)
	if err != nil {
		return nil, fmt.Errorf("fl: dial %s: %w", baseURL, err)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("fl: dial %s: %w", baseURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fl: dial %s: status %s", baseURL, resp.Status)
	}
	info, err := decodeInfo(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("fl: dial %s: %w", baseURL, err)
	}
	return &HTTPParticipant{
		baseURL: baseURL,
		id:      info.ClientID,
		perJob:  info.TMinPerJob,
		client:  hc,
		sink:    obs.Nop,
	}, nil
}

// ID returns the remote client's identifier.
func (p *HTTPParticipant) ID() string { return p.id }

// TMinFor scales the advertised per-job minimum latency.
func (p *HTTPParticipant) TMinFor(jobs int) (float64, error) {
	if jobs <= 0 {
		return 0, fmt.Errorf("fl: job count %d", jobs)
	}
	return p.perJob * float64(jobs), nil
}

// Round posts the round request to the daemon as a BFL1 frame and decodes
// the answer as one, reading it to EOF so the connection serves the next
// round.
func (p *HTTPParticipant) Round(req RoundRequest) (RoundResponse, error) {
	p.attemptTx.Store(0)
	p.attemptRx.Store(0)
	buf := getBuf()
	defer putBuf(buf)
	if err := EncodeRoundRequest(buf, req); err != nil {
		return RoundResponse{}, fmt.Errorf("fl: encode round: %w", err)
	}

	hreq, err := http.NewRequest(http.MethodPost, p.baseURL+"/v1/round", bytes.NewReader(buf.Bytes()))
	if err != nil {
		return RoundResponse{}, fmt.Errorf("fl: round on %s: %w", p.id, err)
	}
	hreq.Header.Set("Content-Type", ContentTypeBinary)
	if req.Trace.Valid() {
		hreq.Header.Set(obs.TraceHeader, req.Trace.String())
	}
	resp, err := p.client.Do(hreq)
	if err != nil {
		p.countErr("transport")
		return RoundResponse{}, fmt.Errorf("fl: round on %s: %w", p.id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		p.countErr("status")
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return RoundResponse{}, fmt.Errorf("fl: round on %s: %s: %s", p.id, resp.Status, bytes.TrimSpace(msg))
	}
	p.sink.Count(obs.MetricFLWireTx, float64(buf.Len()), obs.L("codec", CodecBinary))
	p.attemptTx.Store(int64(buf.Len()))

	out, rx, err := decodeBody(resp.Body, DecodeRoundResponse)
	if err != nil {
		p.countErr("decode")
		return RoundResponse{}, fmt.Errorf("fl: decode round response: %w", err)
	}
	p.sink.Count(obs.MetricFLWireRx, float64(rx), obs.L("codec", CodecBinary))
	p.attemptRx.Store(rx)
	return out, nil
}
