package fl

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"bofl/internal/core"
	"bofl/internal/device"
	"bofl/internal/ml"
	"bofl/internal/obs"
)

// TestRoundFramesBothEnds: a server dialing a daemon runs a round over BFL1
// frames, and wire bytes are accounted under the frame codec's label on both
// ends.
func TestRoundFramesBothEnds(t *testing.T) {
	daemonTel := obs.New(nil)
	h := NewClientHandler(newTestClient(t, "bin-client", 31))
	h.SetTelemetry(daemonTel)
	ts := httptest.NewServer(h)
	defer ts.Close()

	p, err := DialParticipant(ts.URL, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	serverTel := obs.New(nil)
	p.SetSink(serverTel)

	params := h.client.Params()
	resp, err := p.Round(RoundRequest{Round: 1, Params: params, Jobs: 20, Deadline: 60})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ClientID != "bin-client" || len(resp.Params) != len(params) {
		t.Fatalf("bad response: %q, %d params", resp.ClientID, len(resp.Params))
	}
	for _, check := range []struct {
		tel    *obs.Telemetry
		metric string
	}{
		{serverTel, obs.MetricFLWireTx},
		{serverTel, obs.MetricFLWireRx},
		{daemonTel, obs.MetricFLWireRx},
		{daemonTel, obs.MetricFLWireTx},
	} {
		if got := check.tel.Registry.Counter(check.metric, "", obs.L("codec", CodecBinary)).Value(); got <= 0 {
			t.Errorf("%s[binary] = %v, want > 0", check.metric, got)
		}
	}
}

// TestRoundRejectsNonFrameBody: a round body sent as JSON, or with no
// Content-Type at all, gets a 415 and a codec error count, and never reaches
// the daemon's client.
func TestRoundRejectsNonFrameBody(t *testing.T) {
	tel := obs.New(nil)
	c := newTestClient(t, "frames-only", 32)
	h := NewClientHandler(c)
	h.SetTelemetry(tel)
	ts := httptest.NewServer(h)
	defer ts.Close()

	before := c.Params()
	zeros := make([]float64, len(before))
	jsonBody, err := json.Marshal(RoundRequest{Round: 1, Params: zeros, Jobs: 20, Deadline: 60})
	if err != nil {
		t.Fatal(err)
	}
	for i, contentType := range []string{ContentTypeJSON, ""} {
		hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/round", bytes.NewReader(jsonBody))
		if err != nil {
			t.Fatal(err)
		}
		if contentType != "" {
			hreq.Header.Set("Content-Type", contentType)
		}
		hr, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		hr.Body.Close()
		if hr.StatusCode != http.StatusUnsupportedMediaType {
			t.Errorf("Content-Type %q: status %d, want 415", contentType, hr.StatusCode)
		}
		if got := errCount(tel, "round", "codec"); got != float64(i+1) {
			t.Errorf("Content-Type %q: codec error count = %v, want %d", contentType, got, i+1)
		}
	}
	if got := c.Params(); !slices.Equal(got, before) {
		t.Error("a rejected round body changed the client's parameters")
	}
	if e := c.TotalEnergy(); e != 0 {
		t.Errorf("a rejected round body spent %v J on the client", e)
	}
}

// TestRoundConnectionsKeptAlive runs 20 rounds against 8 loopback daemons
// and counts the TCP connections each daemon accepts: after set-up (the
// /v1/info dial), no round may open one. Each answer frame is 10.8 kB, past
// the server's 2 kB buffer, so it goes out chunked, and a participant that
// closed the body at the frame's last byte, before the final chunk, would
// make the transport drop the connection and re-dial the next round.
func TestRoundConnectionsKeptAlive(t *testing.T) {
	const daemons, rounds = 8, 20
	global, err := ml.NewMLP(16, 64, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{InitialParams: global.Params(), Jobs: 2, DeadlineRatio: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var opened atomic.Int64
	dev := device.JetsonAGX()
	for i := range daemons {
		seed := int64(i) + 2
		model, err := ml.NewMLP(16, 64, 4, seed)
		if err != nil {
			t.Fatal(err)
		}
		data, err := ml.Blobs(32, 16, 4, 0.6, seed)
		if err != nil {
			t.Fatal(err)
		}
		perf, err := core.NewPerformant(dev.Space())
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewClient(ClientConfig{
			ID: fmt.Sprintf("kept-%d", i), Device: dev, Workload: device.ViT,
			Model: model, Data: data, BatchSize: 8, LearnRate: 0.1,
			Controller: perf, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewUnstartedServer(NewClientHandler(c))
		ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				opened.Add(1)
			}
		}
		ts.Start()
		t.Cleanup(ts.Close)
		p, err := DialParticipant(ts.URL, 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		srv.Register(p)
	}
	setup := opened.Load()
	for r := 0; r < rounds; r++ {
		if _, err := srv.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	if n := opened.Load() - setup; n != 0 {
		t.Errorf("%d round requests opened %d connections, want 0", daemons*rounds, n)
	}
}

// TestRoundBodyOneFrame: a round body carries exactly one frame. A request
// with a byte after its frame gets 400 and a decode count at the daemon; an
// answer with one fails ErrCorruptFrame and a decode count at the
// participant.
func TestRoundBodyOneFrame(t *testing.T) {
	daemonTel := obs.New(nil)
	c := newTestClient(t, "one-frame", 33)
	h := NewClientHandler(c)
	h.SetTelemetry(daemonTel)
	ts := httptest.NewServer(h)
	defer ts.Close()

	var body bytes.Buffer
	if err := EncodeRoundRequest(&body, RoundRequest{Round: 1, Params: c.Params(), Jobs: 20, Deadline: 60}); err != nil {
		t.Fatal(err)
	}
	body.WriteByte(0)
	hr, err := http.Post(ts.URL+"/v1/round", ContentTypeBinary, &body)
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusBadRequest {
		t.Errorf("request with a byte after its frame: status %d, want 400", hr.StatusCode)
	}
	if got := errCount(daemonTel, "round", "decode"); got != 1 {
		t.Errorf("daemon decode error count = %v, want 1", got)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/info", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, InfoResponse{ClientID: "trailing-stub", TMinPerJob: 0.1, NumExamples: 10})
	})
	mux.HandleFunc("POST /v1/round", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", ContentTypeBinary)
		EncodeRoundResponse(w, RoundResponse{ClientID: "trailing-stub", Params: make([]float64, 4), NumExamples: 10})
		w.Write([]byte{0})
	})
	stub := httptest.NewServer(mux)
	defer stub.Close()
	p, err := DialParticipant(stub.URL, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	tel := obs.New(nil)
	p.SetSink(tel)
	if _, err := p.Round(RoundRequest{Round: 1, Jobs: 1, Deadline: 10}); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("answer with a byte after its frame: err = %v, want ErrCorruptFrame", err)
	}
	if got := errCount(tel, "round", "decode"); got != 1 {
		t.Errorf("participant decode error count = %v, want 1", got)
	}
}

// TestTraceRoundtripBinary: a valid trace context rides out in both the
// header and the frame meta, the daemon stamps its client spans with it, and
// the span summaries come back in the response frame.
func TestTraceRoundtripBinary(t *testing.T) {
	h := NewClientHandler(newTestClient(t, "traced-bin", 41))
	ts := httptest.NewServer(h)
	defer ts.Close()

	p, err := DialParticipant(ts.URL, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	tc := obs.MintTrace(7, 1)
	resp, err := p.Round(RoundRequest{Round: 1, Params: h.client.Params(), Jobs: 20, Deadline: 60, Trace: tc})
	if err != nil {
		t.Fatal(err)
	}
	assertClientSpans(t, resp)
}

// TestTraceInBandFallbackAndSanitization: with no X-Bofl-Trace header the
// daemon falls back to the frame's in-band meta trace — and sanitizes it, so
// a valid in-band trace yields spans while a hostile one degrades to
// untraced.
func TestTraceInBandFallbackAndSanitization(t *testing.T) {
	c := newTestClient(t, "traced-raw", 43)
	ts := httptest.NewServer(NewClientHandler(c))
	defer ts.Close()

	post := func(tc obs.TraceContext) RoundResponse {
		t.Helper()
		var body bytes.Buffer
		req := RoundRequest{Round: 1, Params: c.Params(), Jobs: 20, Deadline: 60, Trace: tc}
		if err := EncodeRoundRequest(&body, req); err != nil {
			t.Fatal(err)
		}
		hr, err := http.Post(ts.URL+"/v1/round", ContentTypeBinary, &body)
		if err != nil {
			t.Fatal(err)
		}
		defer hr.Body.Close()
		if hr.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(hr.Body)
			t.Fatalf("status %d: %s", hr.StatusCode, msg)
		}
		resp, err := DecodeRoundResponse(hr.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	assertClientSpans(t, post(obs.MintTrace(7, 3)))
	if resp := post(obs.TraceContext{TraceID: `"}# HELP evil`, SpanID: "tooshort"}); len(resp.Spans) != 0 {
		t.Errorf("hostile in-band trace produced spans: %+v", resp.Spans)
	}
}

// TestTraceNoSpanReportOptOut: a daemon with span reporting disabled ignores
// the inbound trace entirely and returns no span summaries.
func TestTraceNoSpanReportOptOut(t *testing.T) {
	h := NewClientHandler(newTestClient(t, "opted-out", 44))
	h.SetNoSpanReport(true)
	ts := httptest.NewServer(h)
	defer ts.Close()

	p, err := DialParticipant(ts.URL, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := p.Round(RoundRequest{Round: 1, Params: h.client.Params(), Jobs: 20, Deadline: 60, Trace: obs.MintTrace(7, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Spans) != 0 {
		t.Errorf("opted-out daemon reported spans: %+v", resp.Spans)
	}
}

// assertClientSpans checks a traced response carries the client-side round
// span with a plausible duration.
func assertClientSpans(t *testing.T, resp RoundResponse) {
	t.Helper()
	if len(resp.Spans) == 0 {
		t.Fatal("traced round returned no client spans")
	}
	found := false
	for _, ss := range resp.Spans {
		if ss.Name == obs.SpanClientRound {
			found = true
			if ss.DurNs < 0 {
				t.Errorf("client span has negative duration %d", ss.DurNs)
			}
		}
	}
	if !found {
		t.Errorf("no %s span in %+v", obs.SpanClientRound, resp.Spans)
	}
}
