package fl

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

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
