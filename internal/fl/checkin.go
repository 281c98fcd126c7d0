package fl

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// Figure 1, step 1: devices check in with the server, which then selects a
// subset of them. This file implements the server side of that flow for the
// HTTP transport — clients POST their base URL and capabilities; the registry
// dials them back and hands live participants to the FL server. The reverse
// topology (server dials a static client list, as cmd/flserver's -clients
// flag does) remains available for fixed fleets.

// CheckinRequest is a client's registration message.
type CheckinRequest struct {
	ClientID string `json:"clientId"`
	// BaseURL is where the server can reach the client's training API.
	BaseURL string `json:"baseUrl"`
	Device  string `json:"device"`
}

// CheckinResponse acknowledges a registration.
type CheckinResponse struct {
	Accepted bool   `json:"accepted"`
	Message  string `json:"message,omitempty"`
}

// Registry tracks checked-in clients and converts them into Participants. It
// is safe for concurrent use.
type Registry struct {
	mu          sync.Mutex
	dialTimeout time.Duration
	participant map[string]Participant // by client id
	dial        func(ctx context.Context, baseURL string, timeout time.Duration) (Participant, error)
}

// NewRegistry creates an empty registry. dialTimeout bounds the verification
// dial performed at check-in time.
func NewRegistry(dialTimeout time.Duration) *Registry {
	return &Registry{
		dialTimeout: dialTimeout,
		participant: make(map[string]Participant),
		dial:        DialParticipantContext,
	}
}

// CheckIn validates a registration by dialing the client back and stores the
// resulting participant. Re-registering an id replaces the previous entry
// (devices reconnect with new addresses).
func (r *Registry) CheckIn(req CheckinRequest) error {
	return r.CheckInContext(context.Background(), req)
}

// CheckInContext is CheckIn with a caller-supplied context: a cancelled or
// expired ctx aborts the dial-back immediately instead of hanging on a dead
// or unresponsive client endpoint.
func (r *Registry) CheckInContext(ctx context.Context, req CheckinRequest) error {
	if req.ClientID == "" || req.BaseURL == "" {
		return fmt.Errorf("fl: check-in needs clientId and baseUrl, got %+v", req)
	}
	p, err := r.dial(ctx, req.BaseURL, r.dialTimeout)
	if err != nil {
		return fmt.Errorf("fl: check-in dial-back %s: %w", req.BaseURL, err)
	}
	if p.ID() != req.ClientID {
		return fmt.Errorf("fl: check-in id mismatch: claimed %q, endpoint says %q", req.ClientID, p.ID())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.participant[req.ClientID] = p
	return nil
}

// Drop removes a client (e.g. after repeated failures).
func (r *Registry) Drop(clientID string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.participant, clientID)
}

// Participants returns the current pool.
func (r *Registry) Participants() []Participant {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Participant, 0, len(r.participant))
	for _, p := range r.participant {
		out = append(out, p)
	}
	return out
}

// Len reports the pool size.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.participant)
}

// Handler serves POST /v1/checkin for the registry. A body over the
// control-plane cap gets 413 and a malformed one 400, neither dialed back.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/checkin", func(w http.ResponseWriter, req *http.Request) {
		var body CheckinRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxControlBody)).Decode(&body); err != nil {
			status := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				status = http.StatusRequestEntityTooLarge
			}
			http.Error(w, fmt.Sprintf("decode check-in: %v", err), status)
			return
		}
		if err := r.CheckInContext(req.Context(), body); err != nil {
			writeJSON(w, CheckinResponse{Accepted: false, Message: err.Error()})
			return
		}
		writeJSON(w, CheckinResponse{Accepted: true})
	})
	return mux
}

// CheckIn is the client-side call: announce this client's endpoint to the
// server's registry.
func CheckIn(serverURL string, req CheckinRequest, timeout time.Duration) error {
	return CheckInContext(context.Background(), serverURL, req, timeout)
}

// CheckInContext is CheckIn honoring a caller context: cancellation or a
// context deadline aborts the POST mid-flight — a client daemon retrying
// against a dead or hung server stays responsive to shutdown.
func CheckInContext(ctx context.Context, serverURL string, req CheckinRequest, timeout time.Duration) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("fl: encode check-in: %w", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, serverURL+"/v1/checkin", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("fl: build check-in request: %w", err)
	}
	hreq.Header.Set("Content-Type", ContentTypeJSON)
	hc := &http.Client{Timeout: timeout, Transport: flTransport}
	resp, err := hc.Do(hreq)
	if err != nil {
		return fmt.Errorf("fl: check-in with %s: %w", serverURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("fl: check-in with %s: %s: %s", serverURL, resp.Status, msg)
	}
	var ack CheckinResponse
	if err := json.NewDecoder(http.MaxBytesReader(nil, resp.Body, maxControlBody)).Decode(&ack); err != nil {
		return fmt.Errorf("fl: decode check-in ack: %w", err)
	}
	if !ack.Accepted {
		return fmt.Errorf("fl: check-in rejected: %s", ack.Message)
	}
	return nil
}
