package fl

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"bofl/internal/obs"
)

// HTTP transport: a client daemon serves its training endpoint over HTTP and
// the server drives it through an HTTPParticipant. Two endpoints:
//
//	GET  /v1/info           → InfoResponse
//	POST /v1/round          → RoundRequest ⇒ RoundResponse
//
// The round body travels either as JSON (the original wire format, kept as
// the universal fallback) or as the binary frame defined in codec.go.
// Negotiation is one round trip and fully backwards compatible:
//
//   - The daemon advertises its codecs in InfoResponse.Codecs. An old daemon
//     omits the field, so a new server falls back to JSON for it.
//   - The server picks the best mutually supported codec and declares it in
//     the request's Content-Type; it also sends Accept for the response.
//   - The daemon decodes by Content-Type and answers in the same codec the
//     caller asked for, so an old server posting JSON gets JSON back even
//     from a binary-capable daemon.
//
// This mirrors the configuration/execution/reporting flow of Figure 1 with a
// plain stdlib stack.

// InfoResponse advertises a client's identity and pace capabilities.
type InfoResponse struct {
	ClientID       string  `json:"clientId"`
	Device         string  `json:"device"`
	TMinPerJob     float64 `json:"tminPerJobSeconds"`
	NumExamples    int     `json:"numExamples"`
	ParamsChecksum int     `json:"paramsChecksum"`
	// Codecs lists the wire codecs this daemon understands, best first.
	// Absent on pre-codec daemons, which speak JSON only.
	Codecs []string `json:"codecs,omitempty"`
}

// flTransport is the process-wide HTTP transport shared by every
// HTTPParticipant and check-in call: connections to client daemons are kept
// alive across rounds instead of being re-dialed every round, and dials are
// individually bounded so one unreachable device cannot absorb the whole
// round timeout.
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

// ClientHandler exposes a *Client over HTTP.
type ClientHandler struct {
	client       *Client
	mux          *http.ServeMux
	sink         obs.Sink
	jsonOnly     bool
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

// SetJSONOnly disables the binary codec: the daemon stops advertising it,
// rejects binary frames and always answers JSON — byte-for-byte the pre-codec
// wire behaviour. Used as an operational escape hatch (flclient -json-only)
// and by the cross-compatibility tests to stand in for an old daemon.
func (h *ClientHandler) SetJSONOnly(on bool) { h.jsonOnly = on }

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
	info := InfoResponse{
		ClientID:    h.client.ID(),
		Device:      h.client.dev.Name(),
		TMinPerJob:  perJob,
		NumExamples: h.client.NumExamples(),
	}
	if !h.jsonOnly {
		info.Codecs = []string{CodecBinary, CodecJSON}
	}
	writeJSON(w, info)
}

func (h *ClientHandler) handleRound(w http.ResponseWriter, r *http.Request) {
	body := &countingReader{r: io.LimitReader(r.Body, 64<<20)}
	binaryReq := strings.HasPrefix(r.Header.Get("Content-Type"), ContentTypeBinary)
	codec := CodecJSON
	var req RoundRequest
	var err error
	if binaryReq {
		if h.jsonOnly {
			h.sink.Count(obs.MetricFLHTTPErrors, 1, obs.L("endpoint", "round"), obs.L("kind", "codec"))
			http.Error(w, "binary frames disabled on this daemon", http.StatusUnsupportedMediaType)
			return
		}
		codec = CodecBinary
		req, err = DecodeRoundRequest(body)
	} else {
		err = json.NewDecoder(body).Decode(&req)
	}
	if err != nil {
		h.sink.Count(obs.MetricFLHTTPErrors, 1, obs.L("endpoint", "round"), obs.L("kind", "decode"))
		http.Error(w, fmt.Sprintf("decode round request: %v", err), http.StatusBadRequest)
		return
	}
	h.sink.Count(obs.MetricFLWireRx, float64(body.n), obs.L("codec", codec))

	// Trace-context ingress: the X-Bofl-Trace header wins (it survives even
	// proxies that re-encode the body); the codec meta fields are the in-band
	// fallback. Either way the value is sanitized here — a hostile or
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

	// Answer in the codec the caller used (or explicitly accepts): a JSON
	// caller must get JSON back even from a binary-capable daemon.
	respBinary := !h.jsonOnly &&
		(binaryReq || strings.Contains(r.Header.Get("Accept"), ContentTypeBinary))
	buf := getBuf()
	defer putBuf(buf)
	respCodec := CodecJSON
	if respBinary {
		respCodec = CodecBinary
		err = EncodeRoundResponse(buf, resp)
		w.Header().Set("Content-Type", ContentTypeBinary)
	} else {
		err = json.NewEncoder(buf).Encode(resp)
		w.Header().Set("Content-Type", ContentTypeJSON)
	}
	if err != nil {
		h.sink.Count(obs.MetricFLHTTPErrors, 1, obs.L("endpoint", "round"), obs.L("kind", "encode"))
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if _, err := w.Write(buf.Bytes()); err != nil {
		return // headers already sent; nothing more we can do
	}
	h.sink.Count(obs.MetricFLWireTx, float64(buf.Len()), obs.L("codec", respCodec))
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
	binary  bool

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
// failures against the remote daemon, plus wire bytes per codec.
func (p *HTTPParticipant) SetSink(s obs.Sink) { p.sink = obs.OrNop(s) }

// SetBinary overrides codec negotiation (true forces binary frames, false
// forces JSON). Normally the choice is made from the daemon's advertised
// codecs at dial time.
func (p *HTTPParticipant) SetBinary(on bool) { p.binary = on }

// SetTransport replaces the participant's HTTP round-tripper — the hook the
// chaos harness uses to wrap the shared keep-alive transport in a
// faultinject.Transport. The client's timeout is preserved.
func (p *HTTPParticipant) SetTransport(rt http.RoundTripper) {
	p.client = &http.Client{Timeout: p.client.Timeout, Transport: rt}
}

// Codec reports the negotiated round codec.
func (p *HTTPParticipant) Codec() string {
	if p.binary {
		return CodecBinary
	}
	return CodecJSON
}

// countErr increments the HTTP error counter for the round endpoint.
func (p *HTTPParticipant) countErr(kind string) {
	p.sink.Count(obs.MetricFLHTTPErrors, 1, obs.L("endpoint", "round"), obs.L("kind", kind))
}

var _ Participant = (*HTTPParticipant)(nil)

// DialParticipant contacts a client daemon, caches its identity and
// negotiates the round codec from the daemon's advertised list. All
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
	var info InfoResponse
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, fmt.Errorf("fl: dial %s: %w", baseURL, err)
	}
	if info.ClientID == "" || info.TMinPerJob <= 0 {
		return nil, fmt.Errorf("fl: dial %s: malformed info %+v", baseURL, info)
	}
	return &HTTPParticipant{
		baseURL: baseURL,
		id:      info.ClientID,
		perJob:  info.TMinPerJob,
		client:  hc,
		sink:    obs.Nop,
		binary:  slices.Contains(info.Codecs, CodecBinary),
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

// Round posts the round request to the daemon in the negotiated codec.
func (p *HTTPParticipant) Round(req RoundRequest) (RoundResponse, error) {
	p.attemptTx.Store(0)
	p.attemptRx.Store(0)
	buf := getBuf()
	defer putBuf(buf)
	codec, contentType := CodecJSON, ContentTypeJSON
	var err error
	if p.binary {
		codec, contentType = CodecBinary, ContentTypeBinary
		err = EncodeRoundRequest(buf, req)
	} else {
		err = json.NewEncoder(buf).Encode(req)
	}
	if err != nil {
		return RoundResponse{}, fmt.Errorf("fl: encode round: %w", err)
	}

	hreq, err := http.NewRequest(http.MethodPost, p.baseURL+"/v1/round", bytes.NewReader(buf.Bytes()))
	if err != nil {
		return RoundResponse{}, fmt.Errorf("fl: round on %s: %w", p.id, err)
	}
	hreq.Header.Set("Content-Type", contentType)
	hreq.Header.Set("Accept", contentType)
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
	p.sink.Count(obs.MetricFLWireTx, float64(buf.Len()), obs.L("codec", codec))
	p.attemptTx.Store(int64(buf.Len()))

	body := &countingReader{r: io.LimitReader(resp.Body, 64<<20)}
	respCodec := CodecJSON
	var out RoundResponse
	if strings.HasPrefix(resp.Header.Get("Content-Type"), ContentTypeBinary) {
		respCodec = CodecBinary
		out, err = DecodeRoundResponse(body)
	} else {
		err = json.NewDecoder(body).Decode(&out)
	}
	if err != nil {
		p.countErr("decode")
		return RoundResponse{}, fmt.Errorf("fl: decode round response: %w", err)
	}
	p.sink.Count(obs.MetricFLWireRx, float64(body.n), obs.L("codec", respCodec))
	p.attemptRx.Store(body.n)
	return out, nil
}
