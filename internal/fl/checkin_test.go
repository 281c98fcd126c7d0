package fl

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestCheckinEndToEnd(t *testing.T) {
	// A client daemon...
	client := newTestClient(t, "edge-42", 7)
	clientSrv := httptest.NewServer(NewClientHandler(client))
	defer clientSrv.Close()

	// ...checks in with the server-side registry over HTTP.
	reg := NewRegistry(30 * time.Second)
	regSrv := httptest.NewServer(reg.Handler())
	defer regSrv.Close()

	err := CheckIn(regSrv.URL, CheckinRequest{
		ClientID: "edge-42",
		BaseURL:  clientSrv.URL,
		Device:   "jetson-agx",
	}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 1 {
		t.Fatalf("registry has %d participants", reg.Len())
	}

	// The registered participant is fully usable.
	pool := reg.Participants()
	resp, err := pool[0].Round(RoundRequest{Round: 1, Params: client.Params(), Jobs: 10, Deadline: 60})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ClientID != "edge-42" {
		t.Errorf("round reached %q", resp.ClientID)
	}
}

func TestCheckinIDMismatchRejected(t *testing.T) {
	client := newTestClient(t, "real-id", 8)
	clientSrv := httptest.NewServer(NewClientHandler(client))
	defer clientSrv.Close()
	reg := NewRegistry(30 * time.Second)
	regSrv := httptest.NewServer(reg.Handler())
	defer regSrv.Close()

	err := CheckIn(regSrv.URL, CheckinRequest{ClientID: "imposter", BaseURL: clientSrv.URL}, 30*time.Second)
	if err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Errorf("id mismatch not rejected: %v", err)
	}
	if reg.Len() != 0 {
		t.Error("mismatching client registered anyway")
	}
}

func TestCheckinUnreachableClientRejected(t *testing.T) {
	reg := NewRegistry(time.Second)
	regSrv := httptest.NewServer(reg.Handler())
	defer regSrv.Close()
	err := CheckIn(regSrv.URL, CheckinRequest{ClientID: "ghost", BaseURL: "http://127.0.0.1:1"}, 5*time.Second)
	if err == nil {
		t.Error("unreachable client accepted")
	}
}

func TestCheckinValidation(t *testing.T) {
	reg := NewRegistry(time.Second)
	if err := reg.CheckIn(CheckinRequest{}); err == nil {
		t.Error("empty check-in accepted")
	}
	if err := CheckIn("http://127.0.0.1:1", CheckinRequest{ClientID: "a", BaseURL: "http://x"}, time.Second); err == nil {
		t.Error("dead registry accepted")
	}
}

// TestCheckinContextCancelsAgainstHungServer is the regression test for the
// dead-server hang: a listener that accepts connections but never writes a
// byte used to block CheckIn for its full client timeout (or forever with
// timeout 0). With a context the call must return as soon as the context
// expires.
func TestCheckinContextCancelsAgainstHungServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		// Accept and hold connections open without ever responding.
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	// Client timeout 0 = unbounded: only the context can end this call.
	err = CheckInContext(ctx, "http://"+ln.Addr().String(), CheckinRequest{ClientID: "c", BaseURL: "http://x"}, 0)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("check-in against a hung server succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("check-in blocked %v past its context", elapsed)
	}

	// The registry dial-back path honors its context the same way.
	reg := NewRegistry(0)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel2()
	err = reg.CheckInContext(ctx2, CheckinRequest{ClientID: "c", BaseURL: "http://" + ln.Addr().String()})
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("dial-back err %v, want context.DeadlineExceeded", err)
	}
}

// serveOversizedJSON answers with a JSON object padded past maxControlBody
// by pad bytes inside one string field. The padding streams from one small
// buffer, so the serving side allocates next to nothing.
func serveOversizedJSON(w http.ResponseWriter, head string, pad int, tail string) {
	w.Header().Set("Content-Type", ContentTypeJSON)
	chunk := bytes.Repeat([]byte{'a'}, 32<<10)
	if _, err := io.WriteString(w, head); err != nil {
		return
	}
	for n := 0; n < pad; n += len(chunk) {
		if _, err := w.Write(chunk); err != nil {
			return // the reader hung up at its cap
		}
	}
	io.WriteString(w, tail)
}

// TestCheckinDialBackCapsInfoBody: a check-in names the URL the registry
// dials back, so a hostile peer can point it at an endpoint serving a huge
// /v1/info. The dial-back must fail at the control-plane cap with
// *http.MaxBytesError, its allocation bounded by the cap rather than by the
// body.
func TestCheckinDialBackCapsInfoBody(t *testing.T) {
	const pad = 16 * maxControlBody
	info := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serveOversizedJSON(w, `{"clientId":"big","tminPerJobSeconds":0.1,"numExamples":10,"device":"`, pad, `"}`)
	}))
	defer info.Close()

	reg := NewRegistry(30 * time.Second)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := reg.CheckIn(CheckinRequest{ClientID: "big", BaseURL: info.URL})
	runtime.ReadMemStats(&after)
	if !errors.As(err, new(*http.MaxBytesError)) {
		t.Fatalf("dial-back against a %d-byte /v1/info: err %v, want *http.MaxBytesError", pad, err)
	}
	if reg.Len() != 0 {
		t.Error("oversized /v1/info registered anyway")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 16<<20 {
		t.Errorf("dial-back allocated %d bytes, want < 16 MB", alloc)
	}
}

// TestCheckinContextCapsAck: the client-side check-in rejects an ack body
// over the control-plane cap with *http.MaxBytesError instead of decoding it.
func TestCheckinContextCapsAck(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serveOversizedJSON(w, `{"accepted":true,"message":"`, 2*maxControlBody, `"}`)
	}))
	defer srv.Close()

	err := CheckInContext(context.Background(), srv.URL, CheckinRequest{ClientID: "c", BaseURL: "http://x"}, 30*time.Second)
	if !errors.As(err, new(*http.MaxBytesError)) {
		t.Fatalf("ack over the cap: err %v, want *http.MaxBytesError", err)
	}
}

// TestCheckinBodyCutShort: a peer that hangs up mid-body, under the
// control-plane cap, still fails as a truncated read (io.ErrUnexpectedEOF),
// not as an oversized body: the ack on the client side and /v1/info on the
// dial-back.
func TestCheckinBodyCutShort(t *testing.T) {
	hangUp := func(head string) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			conn, buf, err := w.(http.Hijacker).Hijack()
			if err != nil {
				return
			}
			defer conn.Close()
			fmt.Fprintf(buf, "HTTP/1.1 200 OK\r\nContent-Type: %s\r\nContent-Length: 4096\r\n\r\n%s", ContentTypeJSON, head)
			buf.Flush()
		}))
	}

	ack := hangUp(`{"accepted":true,"message":"cut`)
	defer ack.Close()
	err := CheckInContext(context.Background(), ack.URL, CheckinRequest{ClientID: "c", BaseURL: "http://x"}, 30*time.Second)
	if !errors.Is(err, io.ErrUnexpectedEOF) || errors.As(err, new(*http.MaxBytesError)) {
		t.Errorf("ack cut short: err %v, want io.ErrUnexpectedEOF", err)
	}

	info := hangUp(`{"clientId":"cut","tminPerJobSeconds":0.1,"device":"`)
	defer info.Close()
	reg := NewRegistry(30 * time.Second)
	err = reg.CheckIn(CheckinRequest{ClientID: "cut", BaseURL: info.URL})
	if !errors.Is(err, io.ErrUnexpectedEOF) || errors.As(err, new(*http.MaxBytesError)) {
		t.Errorf("/v1/info cut short: err %v, want io.ErrUnexpectedEOF", err)
	}
	if reg.Len() != 0 {
		t.Error("cut-short /v1/info registered anyway")
	}
}

func TestCheckinReplaceAndDrop(t *testing.T) {
	reg := NewRegistry(30 * time.Second)
	fake := &reportingParticipant{id: "edge-1"}
	reg.dial = func(ctx context.Context, baseURL string, timeout time.Duration) (Participant, error) {
		return fake, nil
	}
	if err := reg.CheckIn(CheckinRequest{ClientID: "edge-1", BaseURL: "http://a"}); err != nil {
		t.Fatal(err)
	}
	if err := reg.CheckIn(CheckinRequest{ClientID: "edge-1", BaseURL: "http://b"}); err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 1 {
		t.Errorf("re-registration duplicated the client: %d entries", reg.Len())
	}
	reg.Drop("edge-1")
	if reg.Len() != 0 {
		t.Error("Drop did not remove the client")
	}
}

func TestRegistryFeedsServer(t *testing.T) {
	reg := NewRegistry(time.Second)
	reg.dial = func(ctx context.Context, baseURL string, timeout time.Duration) (Participant, error) {
		return &reportingParticipant{id: baseURL}, nil
	}
	for _, u := range []string{"a", "b", "c"} {
		if err := reg.CheckIn(CheckinRequest{ClientID: u, BaseURL: u}); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := NewServer(ServerConfig{InitialParams: []float64{1}, Jobs: 5, DeadlineRatio: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range reg.Participants() {
		srv.Register(p)
	}
	res, err := srv.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Responses) != 3 {
		t.Errorf("round reached %d of 3 registered clients", len(res.Responses))
	}
}

// TestCheckinHandlerStatus: a check-in body over the control-plane cap gets
// 413 and malformed JSON under the cap gets 400, and neither is dialed back;
// a well-formed check-in is dialed back once.
func TestCheckinHandlerStatus(t *testing.T) {
	reg := NewRegistry(time.Second)
	var dialed []string
	reg.dial = func(ctx context.Context, baseURL string, timeout time.Duration) (Participant, error) {
		dialed = append(dialed, baseURL)
		return &reportingParticipant{id: "edge-1"}, nil
	}
	h := reg.Handler()
	oversized := `{"clientId":"edge-1","baseUrl":"http://big/` + strings.Repeat("a", 2*maxControlBody) + `"}`
	for _, c := range []struct {
		name, body string
		want       int
	}{
		{"2 MiB body", oversized, http.StatusRequestEntityTooLarge},
		{"malformed JSON", `{"clientId":"edge-1","baseUrl":`, http.StatusBadRequest},
		{"check-in", `{"clientId":"edge-1","baseUrl":"http://ok"}`, http.StatusOK},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/checkin", strings.NewReader(c.body)))
		if rec.Code != c.want {
			t.Errorf("%s: status %d (%s), want %d", c.name, rec.Code, strings.TrimSpace(rec.Body.String()), c.want)
		}
	}
	if want := []string{"http://ok"}; !slices.Equal(dialed, want) {
		t.Errorf("dialed back %v, want %v", dialed, want)
	}
}
