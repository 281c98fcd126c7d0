package fl

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bofl/internal/obs"
)

func errCount(t *obs.Telemetry, endpoint, kind string) float64 {
	return t.Registry.Counter(obs.MetricFLHTTPErrors, "",
		obs.L("endpoint", endpoint), obs.L("kind", kind)).Value()
}

// TestHandlerMalformedFrame sends garbage to /v1/round under the frame
// content type and checks for a 400 plus a decode error count.
func TestHandlerMalformedFrame(t *testing.T) {
	tel := obs.New(nil)
	h := NewClientHandler(newTestClient(t, "c0", 1))
	h.SetTelemetry(tel)
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/round", ContentTypeBinary, strings.NewReader("{not a frame"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
	if got := errCount(tel, "round", "decode"); got != 1 {
		t.Errorf("decode error count = %v, want 1", got)
	}
}

// TestHandlerTelemetryEndpoints checks /metrics, /healthz and /v1/telemetry
// are mounted next to the API and serve sane payloads.
func TestHandlerTelemetryEndpoints(t *testing.T) {
	tel := obs.NewBoFL(obs.Real{})
	h := NewClientHandler(newTestClient(t, "c0", 1))
	h.SetTelemetry(tel)
	ts := httptest.NewServer(h)
	defer ts.Close()

	for path, want := range map[string]string{
		"/metrics":      obs.MetricFLHTTPErrors,
		"/healthz":      `"status":"ok"`,
		"/v1/telemetry": "", // empty trace is a valid (empty) body
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body := make([]byte, 1<<20)
		n, _ := resp.Body.Read(body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if want != "" && !strings.Contains(string(body[:n]), want) {
			t.Errorf("GET %s: body missing %q", path, want)
		}
	}

	// The API endpoints still work with telemetry mounted.
	resp, err := http.Get(ts.URL + "/v1/info")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /v1/info: status %d", resp.StatusCode)
	}
}

// TestParticipantNon2xx drives an HTTPParticipant against a daemon whose
// round endpoint fails, and checks the status error counter.
func TestParticipantNon2xx(t *testing.T) {
	tel := obs.New(nil)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/info", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, InfoResponse{ClientID: "bad", TMinPerJob: 0.1, NumExamples: 10})
	})
	mux.HandleFunc("POST /v1/round", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	p, err := DialParticipant(ts.URL, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	p.SetSink(tel)
	if _, err := p.Round(RoundRequest{Round: 1, Jobs: 1, Deadline: 10}); err == nil {
		t.Fatal("non-2xx round did not error")
	}
	if got := errCount(tel, "round", "status"); got != 1 {
		t.Errorf("status error count = %v, want 1", got)
	}
}

// TestParticipantNonFrameAnswer drives an HTTPParticipant against a daemon
// that answers 200 with a JSON report: the participant decodes it as a frame,
// fails with ErrCorruptFrame and counts a decode error, and a tolerant round
// quarantines the daemon.
func TestParticipantNonFrameAnswer(t *testing.T) {
	tel := obs.New(nil)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/info", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, InfoResponse{ClientID: "json-stub", TMinPerJob: 0.1, NumExamples: 10})
	})
	mux.HandleFunc("POST /v1/round", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, RoundResponse{ClientID: "json-stub", Params: make([]float64, 4), NumExamples: 10})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	p, err := DialParticipant(ts.URL, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	p.SetSink(tel)
	if _, err := p.Round(RoundRequest{Round: 1, Jobs: 1, Deadline: 10}); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("JSON answer: err = %v, want ErrCorruptFrame", err)
	}
	if got := errCount(tel, "round", "decode"); got != 1 {
		t.Errorf("decode error count = %v, want 1", got)
	}

	healthy := newTestClient(t, "ok", 2)
	srv, err := NewServer(ServerConfig{
		InitialParams:    healthy.Params(),
		Jobs:             4,
		DeadlineRatio:    3,
		Seed:             1,
		TolerateDropouts: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Register(&LocalParticipant{Client: healthy})
	srv.Register(p)
	res, err := srv.RunRound()
	if err != nil {
		t.Fatalf("round failed instead of degrading: %v", err)
	}
	if len(res.Quarantined) != 1 || res.Quarantined[0] != "json-stub" {
		t.Errorf("quarantined = %v, want [json-stub]", res.Quarantined)
	}
	if len(res.Responses) != 1 || res.Responses[0].ClientID != "ok" {
		t.Errorf("responses = %+v, want the healthy client only", res.Responses)
	}
}

// TestParticipantTimeoutMidRound hangs the round endpoint past the HTTP
// client timeout and checks the transport error counter, then verifies the
// server degrades gracefully with TolerateDropouts when that participant is
// mixed with a healthy local one.
func TestParticipantTimeoutMidRound(t *testing.T) {
	tel := obs.New(nil)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/info", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, InfoResponse{ClientID: "hang", TMinPerJob: 0.1, NumExamples: 10})
	})
	hung := make(chan struct{})
	mux.HandleFunc("POST /v1/round", func(w http.ResponseWriter, r *http.Request) {
		<-hung // hold the request until the test ends
	})
	ts := httptest.NewServer(mux)
	defer func() { close(hung); ts.Close() }()

	p, err := DialParticipant(ts.URL, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	p.SetSink(tel)

	healthy := newTestClient(t, "ok", 2)
	srv, err := NewServer(ServerConfig{
		InitialParams:    healthy.Params(),
		Jobs:             4,
		DeadlineRatio:    3,
		Seed:             1,
		TolerateDropouts: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetSink(tel)
	srv.Register(&LocalParticipant{Client: healthy})
	srv.Register(p)

	res, err := srv.RunRound()
	if err != nil {
		t.Fatalf("round failed instead of degrading: %v", err)
	}
	if len(res.Dropped) != 1 || res.Dropped[0] != "hang" {
		t.Errorf("dropped = %v, want [hang]", res.Dropped)
	}
	if len(res.Responses) != 1 || res.Responses[0].ClientID != "ok" {
		t.Errorf("responses = %+v, want the healthy client only", res.Responses)
	}
	if got := errCount(tel, "round", "transport"); got != 1 {
		t.Errorf("transport error count = %v, want 1", got)
	}
	if got := tel.Registry.Counter(obs.MetricFLRoundErrors, "").Value(); got != 1 {
		t.Errorf("round error count = %v, want 1", got)
	}
	if got := tel.Registry.Counter(obs.MetricFLDropouts, "").Value(); got != 1 {
		t.Errorf("dropout count = %v, want 1", got)
	}
	if got := tel.Registry.Counter(obs.MetricFLRounds, "").Value(); got != 1 {
		t.Errorf("fl round count = %v, want 1", got)
	}
	// The healthy client's report was folded into the domain metrics.
	if got := tel.Registry.Histogram(obs.MetricRoundEnergy, "", nil).Count(); got != 1 {
		t.Errorf("round energy observations = %v, want 1", got)
	}
}
