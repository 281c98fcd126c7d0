package fl

import (
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"bofl/internal/faultinject"
	"bofl/internal/obs"
	"bofl/internal/obs/ledger"
	"bofl/internal/simclock"
)

// This file is the hardened client call path: every Participant.Round dispatch
// goes through a roundCaller that consults the server's fault policy, bounds
// each attempt, and retries transient failures with capped exponential backoff
// and full jitter. With the defaults (no policy, one attempt, no timeout) the
// path collapses to a bare p.Round(req) call — byte-identical to the
// pre-hardening serving plane.

// RetryConfig bounds the per-participant retry loop inside one round.
// The zero value disables retries entirely (one attempt, no timeout).
type RetryConfig struct {
	// MaxAttempts is the per-participant attempt cap per round; values ≤ 1
	// mean a single attempt (no retries).
	MaxAttempts int
	// AttemptTimeout bounds one attempt. An attempt whose injected delay
	// reaches it — or, under the real clock, whose wall time exceeds it — is
	// stripped as a straggler. 0 means unbounded.
	AttemptTimeout time.Duration
	// BaseBackoff is the first backoff ceiling; doubled every retry up to
	// MaxBackoff. Defaults to 100ms when retries are enabled.
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff ceiling. Defaults to 5s.
	MaxBackoff time.Duration
	// Budget caps the total retries across all participants in one round, so
	// a sick fleet cannot multiply round traffic unboundedly. ≤ 0 means no
	// budget cap.
	Budget int
	// Seed drives the backoff jitter (deterministic per client/round/attempt).
	Seed int64
}

// withDefaults fills the backoff defaults.
func (c RetryConfig) withDefaults() RetryConfig {
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Second
	}
	return c
}

// errStraggler tags an attempt stripped for exceeding the attempt timeout;
// the server counts these separately from dropouts.
var errStraggler = errors.New("fl: attempt exceeded timeout (straggler)")

// errBudget tags a failure kept because the round's retry budget ran dry.
var errBudget = errors.New("fl: retry budget exhausted")

// roundCaller drives one server's participant dispatches: fault injection,
// per-attempt bounds, and seeded retry/backoff. Safe for concurrent use; the
// retry budget is the only shared mutable state.
type roundCaller struct {
	cfg    RetryConfig
	policy faultinject.Policy
	clock  simclock.Clock

	// budget is the round's remaining retry allowance; reset each round.
	budget atomic.Int64
}

func newRoundCaller(cfg RetryConfig, policy faultinject.Policy, clock simclock.Clock) *roundCaller {
	if clock == nil {
		clock = simclock.Real{}
	}
	return &roundCaller{cfg: cfg.withDefaults(), policy: faultinject.OrNop(policy), clock: clock}
}

// resetBudget re-arms the per-round retry budget.
func (c *roundCaller) resetBudget() {
	if c.cfg.Budget > 0 {
		c.budget.Store(int64(c.cfg.Budget))
	}
}

// takeBudget claims one retry from the round budget.
func (c *roundCaller) takeBudget() bool {
	if c.cfg.Budget <= 0 {
		return true
	}
	for {
		cur := c.budget.Load()
		if cur <= 0 {
			return false
		}
		if c.budget.CompareAndSwap(cur, cur-1) {
			return true
		}
	}
}

// retryable reports whether a failed attempt is worth retrying. Corrupt
// frames are not: a client shipping damaged bytes is quarantined, not
// hammered.
func retryable(err error) bool {
	return !errors.Is(err, ErrCorruptFrame)
}

// backoff returns the seeded full-jitter wait before retry `attempt`:
// uniform in [0, min(MaxBackoff, BaseBackoff·2^attempt)). Full jitter
// de-synchronizes a fleet of retrying clients while the hash-derived draw
// keeps every chaos run replayable.
func (c *roundCaller) backoff(client string, round, attempt int) time.Duration {
	ceil := c.cfg.BaseBackoff
	for i := 0; i < attempt && ceil < c.cfg.MaxBackoff; i++ {
		ceil *= 2
	}
	if ceil > c.cfg.MaxBackoff {
		ceil = c.cfg.MaxBackoff
	}
	pt := faultinject.Point{Layer: faultinject.LayerParticipant, Client: client, Round: round, Attempt: attempt}
	return faultinject.UnitDuration(c.cfg.Seed, pt, ceil)
}

// attemptRecord is one attempt's ledger-facing verdict, produced by call()
// and journaled by the server in participant index order — after the parts
// merge on the flat path, inside the tier turnstile on the tree path — so
// record order is deterministic. Every quantity here is derived from the
// seeded fault plane or the deterministic simulation — never from the wall
// clock.
type attemptRecord struct {
	attempt   int
	verdict   string // ledger.Verdict* vocabulary
	spanID    string // the attempt span in the round trace
	delayNs   int64  // injected straggle / timeout charge
	backoffNs int64  // seeded backoff wait that followed a failed attempt
	wireTx    int64  // serialized bytes sent for the attempt (HTTP only)
	wireRx    int64  // serialized bytes received for the attempt
	detail    string // failure message, empty for ok
}

// verdictOf maps an attempt error onto the ledger verdict vocabulary.
func verdictOf(err error) (verdict, detail string) {
	switch {
	case err == nil:
		return ledger.VerdictOK, ""
	case errors.Is(err, errBudget):
		return ledger.VerdictBudget, err.Error()
	case errors.Is(err, errStraggler):
		return ledger.VerdictStraggler, err.Error()
	case errors.Is(err, ErrCorruptFrame):
		return ledger.VerdictCorrupt, err.Error()
	}
	var fe *faultinject.FaultError
	if errors.As(err, &fe) {
		return fe.Decision.Kind(), err.Error()
	}
	return ledger.VerdictError, err.Error()
}

// wireAccounter is the optional Participant extension reporting the
// serialized bytes the last Round call moved (implemented by
// HTTPParticipant); in-process participants move no wire bytes.
type wireAccounter interface {
	lastWire() (tx, rx int64)
}

// call runs one participant's round with fault injection and retries.
// Returns the successful response plus the per-attempt verdict records, or
// the last attempt's error once attempts, budget, or retryability run out.
// Each attempt is dispatched under its own child span of the round trace, so
// retries are individually visible in the stitched trace.
func (c *roundCaller) call(p Participant, req RoundRequest, sink obs.Sink) (RoundResponse, []attemptRecord, error) {
	id := p.ID()
	max := c.cfg.MaxAttempts
	if max < 1 {
		max = 1
	}
	root := req.Trace
	var recs []attemptRecord
	var lastErr error
	for attempt := 0; attempt < max; attempt++ {
		an := strconv.Itoa(attempt)
		atc := root.Child("attempt", id, an)
		req.Trace = atc
		endAttempt := sink.Span(obs.SpanFLAttempt,
			atc.SpanLabels(obs.L("client", id), obs.L("attempt", an))...)
		resp, delay, err := c.attempt(p, req, id, attempt)
		endAttempt()

		rec := attemptRecord{attempt: attempt, spanID: atc.SpanID, delayNs: delay.Nanoseconds()}
		rec.verdict, rec.detail = verdictOf(err)
		if wa, ok := p.(wireAccounter); ok {
			rec.wireTx, rec.wireRx = wa.lastWire()
		}
		if err == nil {
			recs = append(recs, rec)
			return resp, recs, nil
		}
		sink.Event(obs.EventFLFault,
			atc.SpanLabels(obs.L("client", id), obs.L("verdict", rec.verdict))...)
		lastErr = err
		if !retryable(err) || attempt+1 >= max {
			recs = append(recs, rec)
			break
		}
		if !c.takeBudget() {
			recs = append(recs, rec)
			return RoundResponse{}, recs, fmt.Errorf("%w after attempt %d: %w", errBudget, attempt+1, lastErr)
		}
		sink.Count(obs.MetricFLRetries, 1)
		endRetry := sink.Span(obs.SpanFLRetry, atc.SpanLabels(obs.L("client", id))...)
		b := c.backoff(id, req.Round, attempt)
		rec.backoffNs = b.Nanoseconds()
		recs = append(recs, rec)
		c.clock.Sleep(b)
		endRetry()
	}
	return RoundResponse{}, recs, lastErr
}

// attempt performs one bounded attempt: consult the fault policy, apply
// injected behaviour, run the participant, and push the response through the
// codec-corruption path when demanded. The returned duration is the virtual
// time charged to the attempt by injection (delay or timeout).
func (c *roundCaller) attempt(p Participant, req RoundRequest, id string, attempt int) (RoundResponse, time.Duration, error) {
	pt := faultinject.Point{Layer: faultinject.LayerParticipant, Client: id, Round: req.Round, Attempt: attempt}
	d := c.policy.Decide(pt)
	switch {
	case d.Drop:
		// The device vanished before doing any work.
		return RoundResponse{}, 0, d.Errorf(pt)
	case d.Timeout, c.cfg.AttemptTimeout > 0 && d.Delay >= c.cfg.AttemptTimeout:
		// The device hangs past the attempt bound: charge the full timeout
		// (virtual or real) and strip the attempt as a straggler.
		c.clock.Sleep(c.cfg.AttemptTimeout)
		return RoundResponse{}, c.cfg.AttemptTimeout, fmt.Errorf("%w: %w", errStraggler, d.Errorf(pt))
	}
	if d.Delay > 0 {
		// A straggler that still answers inside the bound.
		c.clock.Sleep(d.Delay)
	}

	resp, err := c.invoke(p, req)
	if err != nil {
		return RoundResponse{}, d.Delay, err
	}
	if d.Crash {
		// The device trained (the work above really ran) but died before its
		// report arrived: the update is lost, the energy is spent.
		return RoundResponse{}, d.Delay, d.Errorf(pt)
	}
	if d.Corrupt {
		// Push the real response through the real codec with one bit of the
		// frame magic flipped: the decoder must reject it, and the resulting
		// ErrCorruptFrame drives the quarantine path end to end.
		return RoundResponse{}, d.Delay, corruptFrame(resp, pt)
	}
	return resp, d.Delay, nil
}

// invoke runs the participant, bounding wall time under the real clock. Under
// a virtual clock a blocking call cannot be raced by virtual time, so the
// bound applies only to injected behaviour (handled in attempt).
func (c *roundCaller) invoke(p Participant, req RoundRequest) (RoundResponse, error) {
	if c.cfg.AttemptTimeout <= 0 {
		return p.Round(req)
	}
	if _, virtual := c.clock.(*simclock.Sim); virtual {
		return p.Round(req)
	}
	type result struct {
		resp RoundResponse
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := p.Round(req)
		done <- result{resp, err}
	}()
	timer := time.NewTimer(c.cfg.AttemptTimeout)
	defer timer.Stop()
	select {
	case r := <-done:
		return r.resp, r.err
	case <-timer.C:
		// The orphaned call keeps running until its own transport timeout
		// fires; its result is discarded.
		return RoundResponse{}, fmt.Errorf("%w: %s after %v", errStraggler, p.ID(), c.cfg.AttemptTimeout)
	}
}

// corruptFrame encodes resp as a wire frame, flips one magic bit, and returns
// the decoder's corrupt-frame error.
func corruptFrame(resp RoundResponse, pt faultinject.Point) error {
	buf := getBuf()
	defer putBuf(buf)
	if err := EncodeRoundResponse(buf, resp); err != nil {
		return fmt.Errorf("%w: %v", ErrCorruptFrame, err)
	}
	frame := buf.Bytes()
	frame[0] ^= 0x01
	if _, err := DecodeRoundResponse(buf); err != nil {
		return fmt.Errorf("injected at %s client=%s round=%d attempt=%d: %w",
			pt.Layer, pt.Client, pt.Round, pt.Attempt, err)
	}
	// Unreachable for a magic flip, but never let silent corruption pass.
	return fmt.Errorf("%w: injected corruption decoded cleanly", ErrCorruptFrame)
}
