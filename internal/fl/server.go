package fl

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"bofl/internal/core"
	"bofl/internal/exact"
	"bofl/internal/faultinject"
	"bofl/internal/obs"
	"bofl/internal/obs/ledger"
	"bofl/internal/parallel"
	"bofl/internal/simclock"
)

// RoundRequest is the server → client message starting one training round
// (step 2 of Figure 1: model and training parameters are sent to selected
// devices).
type RoundRequest struct {
	Round    int       `json:"round"`
	Params   []float64 `json:"params"`
	Jobs     int       `json:"jobs"`
	Deadline float64   `json:"deadlineSeconds"`
	// Trace is the server-minted trace context for this dispatch: the round
	// trace ID plus the per-attempt span the client's work hangs under. It
	// rides both the X-Bofl-Trace header and the codec meta section, so every
	// negotiated codec path carries it.
	Trace obs.TraceContext `json:"trace"`
	// Alg names the round's aggregation protocol (empty means AlgFedAvg);
	// clients adjust their local objective accordingly.
	Alg string `json:"alg,omitempty"`
	// Prox is the FedProx proximal coefficient μ; 0 when unused.
	Prox float64 `json:"prox,omitempty"`
	// Aux is an algorithm-defined auxiliary vector — SCAFFOLD's server
	// control variate c. Shared read-only across the round's dispatches.
	Aux []float64 `json:"aux,omitempty"`
}

// RoundResponse is the client → server report (step 3 of Figure 1).
type RoundResponse struct {
	ClientID    string           `json:"clientId"`
	Params      []float64        `json:"params"`
	NumExamples int              `json:"numExamples"`
	Report      core.RoundReport `json:"report"`
	// Spans are the client's span summaries for this round (training round,
	// config window), timed on the client's local clock. The server grafts
	// them under the attempt span so /v1/telemetry serves one stitched trace
	// per round.
	Spans []obs.SpanSummary `json:"spans,omitempty"`
	// Steps is the number of local optimization steps the client actually ran
	// this round; FedNova's normalized averaging weighs by it. 0 means the
	// nominal job count (clients predating the field).
	Steps int `json:"steps,omitempty"`
	// Aux is the algorithm-defined auxiliary return — SCAFFOLD's
	// control-variate delta Δc_i.
	Aux []float64 `json:"aux,omitempty"`
}

// Participant abstracts a reachable FL client — in-process or across HTTP.
type Participant interface {
	// ID returns the client identifier.
	ID() string
	// TMinFor reports the client's minimum feasible round time for the
	// given job count (used for deadline assignment).
	TMinFor(jobs int) (float64, error)
	// Round executes one training round and returns updated parameters.
	Round(req RoundRequest) (RoundResponse, error)
}

// LocalParticipant adapts an in-process *Client to the Participant interface.
type LocalParticipant struct {
	Client *Client
}

var _ Participant = (*LocalParticipant)(nil)

// ID returns the wrapped client's id.
func (p *LocalParticipant) ID() string { return p.Client.ID() }

// TMinFor delegates to the client.
func (p *LocalParticipant) TMinFor(jobs int) (float64, error) { return p.Client.TMin(jobs) }

// Round installs the global parameters, trains, runs the configuration
// window, and returns a copy of the updated parameters.
func (p *LocalParticipant) Round(req RoundRequest) (RoundResponse, error) {
	if err := p.Client.BeginRound(req); err != nil {
		return RoundResponse{}, err
	}
	resp, err := p.Client.runRound(req)
	if err != nil {
		return RoundResponse{}, err
	}
	resp.Params = p.Client.Params()
	return resp, nil
}

// runRound trains a round BeginRound has installed, runs the configuration
// window and attaches the protocol return. The response's Params alias the
// replica's parameters, so they hold only until the next round begins. When
// the request carries a valid trace context the client's round and
// config-window phases are reported back as span summaries (timed on this
// process's monotonic clock) so the server can stitch them under the attempt
// span.
func (c *Client) runRound(req RoundRequest) (RoundResponse, error) {
	var spans []obs.SpanSummary
	t0 := time.Now()
	rep, err := c.TrainRoundCtx(req.Round, req.Jobs, req.Deadline, req.Trace)
	if err != nil {
		return RoundResponse{}, err
	}
	if req.Trace.Valid() {
		spans = append(spans, obs.SpanSummary{
			Name: obs.SpanClientRound, StartNs: 0, DurNs: time.Since(t0).Nanoseconds(),
		})
	}
	t1 := time.Now()
	if _, err := c.ConfigWindowCtx(req.Trace); err != nil {
		return RoundResponse{}, err
	}
	if req.Trace.Valid() {
		spans = append(spans, obs.SpanSummary{
			Name: obs.SpanClientWindow, StartNs: t1.Sub(t0).Nanoseconds(), DurNs: time.Since(t1).Nanoseconds(),
		})
	}
	resp := RoundResponse{
		ClientID:    c.ID(),
		Params:      c.model.Params(),
		NumExamples: c.NumExamples(),
		Report:      rep,
		Spans:       spans,
	}
	c.FinishRound(&resp)
	return resp, nil
}

// Selector chooses the round's participants from the registered pool.
type Selector interface {
	Select(round int, pool []Participant, k int) []Participant
}

// RandomSelector samples k participants uniformly without replacement — the
// vanilla FL design (§2.1); deterministic per seed.
type RandomSelector struct {
	rng *rand.Rand
	mu  sync.Mutex
	// idx is persistent selection scratch: a permutation of [0, n), reused
	// across rounds and rebuilt only when the pool size changes. Selection is
	// a partial Fisher–Yates over it — O(k) draws and zero per-round
	// allocation beyond the result, instead of a fresh n-permutation.
	idx []int
}

var _ Selector = (*RandomSelector)(nil)

// NewRandomSelector builds a seeded selector.
func NewRandomSelector(seed int64) *RandomSelector {
	return &RandomSelector{rng: rand.New(rand.NewSource(seed))}
}

// Select samples min(k, len(pool)) distinct participants.
func (s *RandomSelector) Select(round int, pool []Participant, k int) []Participant {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(pool)
	if k > n {
		k = n
	}
	if len(s.idx) != n {
		s.idx = make([]int, n)
		for i := range s.idx {
			s.idx[i] = i
		}
	}
	out := make([]Participant, k)
	for i := 0; i < k; i++ {
		j := i + s.rng.Intn(n-i)
		s.idx[i], s.idx[j] = s.idx[j], s.idx[i]
		out[i] = pool[s.idx[i]]
	}
	return out
}

// AllSelector selects every registered participant each round (the paper's
// single-device evaluation corresponds to this with one client).
type AllSelector struct{}

var _ Selector = AllSelector{}

// Select returns the whole pool.
func (AllSelector) Select(round int, pool []Participant, k int) []Participant { return pool }

// ServerConfig configures an FL server.
type ServerConfig struct {
	// InitialParams seed the global model.
	InitialParams []float64
	// Jobs is W, the per-round job count each participant must complete.
	Jobs int
	// DeadlineRatio is T_max/T_min for the per-round deadline draw.
	DeadlineRatio float64
	// Selector picks participants; defaults to AllSelector.
	Selector Selector
	// ParticipantsPerRound is passed to the selector (ignored by
	// AllSelector).
	ParticipantsPerRound int
	// Seed drives deadline sampling.
	Seed int64
	// TolerateDropouts implements Figure 1's "drop out or miss deadline"
	// path: failed or deadline-missing participants are excluded from the
	// round's aggregation instead of aborting it. A round still fails when
	// every selected participant drops.
	TolerateDropouts bool
	// Quorum is the fraction of selected participants whose updates must be
	// aggregated for a round to commit: required = ⌈Quorum·n⌉. 0 keeps the
	// legacy semantics (tolerant rounds need ≥ 1 survivor, strict rounds need
	// all). Any positive quorum implies dropout tolerance. Must be ≤ 1.
	Quorum float64
	// Retry bounds the per-participant retry loop; the zero value disables
	// retries (single attempt, unbounded).
	Retry RetryConfig
	// FaultPolicy injects deterministic faults into the participant call
	// path; nil means no injection.
	FaultPolicy faultinject.Policy
	// Clock drives injected delays and retry backoff; defaults to the real
	// clock. Tests pass a *simclock.Sim so chaos runs in virtual time.
	Clock simclock.Clock
	// Ledger, when set, journals every attempt verdict, quarantine, quorum
	// and commit/abort decision the round produces. Attempts are appended in
	// participant index order — after the fan-out on the flat path, under
	// the tier turnstile on the tree path — so replays at a fixed seed are
	// byte-identical.
	Ledger *ledger.Ledger
	// Tree, when set, shards aggregation into a hierarchy of intermediate
	// aggregators (see tree.go). nil keeps the flat streaming fold; because
	// both paths accumulate exactly, the committed model is bit-identical
	// either way.
	Tree *TreeConfig
	// Aggregator is the aggregation strategy (see aggregator.go); nil means
	// FedAvg, the legacy hardcoded fold.
	Aggregator Aggregator
}

// Server orchestrates federated rounds: selection, deadline assignment,
// dispatch, and pluggable aggregation. Dispatch is bounded by the shared
// internal/parallel worker pool and each worker folds the updates it
// receives into its own reused exact partial as they arrive, so a round's
// memory footprint is O(pool width × params) — independent of the number of
// selected participants.
type Server struct {
	cfg    ServerConfig
	global []float64
	pool   []Participant
	rng    *rand.Rand
	round  int
	sink   obs.Sink
	caller *roundCaller

	// quarantined holds clients excluded from selection after shipping a
	// corrupt frame; they stay out until ClearQuarantine.
	quarantined map[string]bool
	// eligible caches the quarantine-filtered pool; rebuilt only when the
	// pool or the quarantine set changes, so steady-state rounds at large n
	// pay no per-round rescan or reallocation.
	eligible      []Participant
	eligibleStale bool

	// agg is the aggregation strategy; never nil after NewServer.
	agg Aggregator
	// parts are the dispatch workers' fold parts (see foldPart), free the
	// ones no fan-out chunk holds; tree is the tier spine. All are built on
	// first use and reused across rounds, and their accumulators span the
	// extended fold vector: the model dims plus the strategy's statistic
	// slots.
	parts  []*foldPart
	free   []*foldPart
	partMu sync.Mutex
	tree   *TreeFold
	// sum is commit scratch for the rounded exact totals.
	sum []float64
}

// SetSink installs a telemetry sink. Beyond orchestration metrics, the server
// folds every client-reported RoundReport into the BoFL domain instruments,
// so a server-side scrape shows round energy, deadline misses, phase and
// front size even though the controllers run on the clients.
func (s *Server) SetSink(sink obs.Sink) { s.sink = obs.OrNop(sink) }

// NewServer validates the configuration and builds a server.
func NewServer(cfg ServerConfig) (*Server, error) {
	if len(cfg.InitialParams) == 0 {
		return nil, errors.New("fl: server needs initial parameters")
	}
	if cfg.Jobs <= 0 {
		return nil, fmt.Errorf("fl: server job count %d", cfg.Jobs)
	}
	if cfg.DeadlineRatio < 1 {
		return nil, fmt.Errorf("fl: deadline ratio %v must be ≥ 1", cfg.DeadlineRatio)
	}
	if cfg.Selector == nil {
		cfg.Selector = AllSelector{}
	}
	if cfg.Quorum < 0 || cfg.Quorum > 1 {
		return nil, fmt.Errorf("fl: quorum %v must be in [0, 1]", cfg.Quorum)
	}
	if err := cfg.Tree.validate(); err != nil {
		return nil, err
	}
	agg := cfg.Aggregator
	if agg == nil {
		agg = FedAvg{}
	}
	global := make([]float64, len(cfg.InitialParams))
	copy(global, cfg.InitialParams)
	return &Server{
		cfg:         cfg,
		agg:         agg,
		global:      global,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		sink:        obs.Nop,
		caller:      newRoundCaller(cfg.Retry, cfg.FaultPolicy, cfg.Clock),
		quarantined: make(map[string]bool),
	}, nil
}

// tolerant reports whether the server strips failed participants instead of
// aborting the round. A positive round or tier quorum implies tolerance.
func (s *Server) tolerant() bool {
	return s.cfg.TolerateDropouts || s.cfg.Quorum > 0 ||
		(s.cfg.Tree != nil && s.cfg.Tree.TierQuorum > 0)
}

// Quarantine excludes a client from all future selection (until cleared).
func (s *Server) Quarantine(id string) {
	if !s.quarantined[id] {
		s.quarantined[id] = true
		s.eligibleStale = true
		s.sink.Count(obs.MetricFLQuarantines, 1)
	}
}

// QuarantinedIDs returns the currently quarantined client ids (unordered).
func (s *Server) QuarantinedIDs() []string {
	out := make([]string, 0, len(s.quarantined))
	for id := range s.quarantined {
		out = append(out, id)
	}
	return out
}

// ClearQuarantine re-admits a client to the selection pool.
func (s *Server) ClearQuarantine(id string) {
	if s.quarantined[id] {
		delete(s.quarantined, id)
		s.eligibleStale = true
	}
}

// Register adds a participant to the pool.
func (s *Server) Register(p Participant) {
	s.pool = append(s.pool, p)
	s.eligibleStale = true
}

// Aggregator returns the server's aggregation strategy (FedAvg when the
// config left it nil).
func (s *Server) Aggregator() Aggregator { return s.agg }

// GlobalParams returns a copy of the current global model parameters.
func (s *Server) GlobalParams() []float64 {
	out := make([]float64, len(s.global))
	copy(out, s.global)
	return out
}

// RoundResult summarizes one orchestrated round.
type RoundResult struct {
	Round    int     `json:"round"`
	Deadline float64 `json:"deadlineSeconds"`
	// TraceID identifies the round's stitched distributed trace — minted
	// deterministically from (server seed, round), so it doubles as the
	// replay-stable join key between /v1/telemetry and /v1/ledger.
	TraceID string `json:"traceId,omitempty"`
	// Responses holds each aggregated participant's round metadata. The
	// parameter vectors are folded into the global model as they arrive and
	// then released, so Params is nil on every entry — retaining them would
	// put round memory back at O(clients × params).
	Responses []RoundResponse    `json:"responses"`
	Reports   []core.RoundReport `json:"-"`
	// Dropped lists the ids of selected participants that failed or missed
	// the deadline this round (populated in dropout-tolerant rounds). It is
	// a superset of Stragglers and Quarantined.
	Dropped []string `json:"dropped,omitempty"`
	// Stragglers lists participants stripped for exceeding the attempt
	// timeout.
	Stragglers []string `json:"stragglers,omitempty"`
	// Quarantined lists participants excluded this round for shipping a
	// corrupt frame; they stay out of future selection.
	Quarantined []string `json:"quarantined,omitempty"`
}

// RunRound executes one full FL round: select participants, assign a
// deadline (uniform in [T_min, ratio·T_min] of the slowest selected client,
// §6.1), dispatch training in parallel, and aggregate the updates with the
// configured strategy (FedAvg by default, weighted by local dataset size).
func (s *Server) RunRound() (RoundResult, error) {
	if len(s.pool) == 0 {
		return RoundResult{}, errors.New("fl: no registered participants")
	}
	s.round++
	// The round trace context is minted from (seed, round) — not from a
	// random source — so replaying a seeded scenario reproduces the same
	// trace IDs and the ledger journal stays byte-identical.
	tc := obs.MintTrace(s.cfg.Seed, s.round)
	endRound := s.sink.Span(obs.SpanFLRound, tc.SpanLabels()...)
	defer endRound()

	// Quarantined clients are filtered out before selection, so every
	// Selector implementation stays quarantine-safe for free. The filtered
	// view is cached and rebuilt only when the pool or quarantine set
	// changed — one pass, amortized to nothing across steady-state rounds.
	eligible := s.pool
	if len(s.quarantined) > 0 {
		if s.eligibleStale {
			s.eligible = s.eligible[:0]
			for _, p := range s.pool {
				if !s.quarantined[p.ID()] {
					s.eligible = append(s.eligible, p)
				}
			}
			s.eligibleStale = false
		}
		if len(s.eligible) == 0 {
			return RoundResult{}, fmt.Errorf("fl: round %d: every registered participant is quarantined", s.round)
		}
		eligible = s.eligible
	}

	endSelect := s.sink.Span(obs.SpanFLSelect, tc.ChildLabels()...)
	selected := s.cfg.Selector.Select(s.round, eligible, s.cfg.ParticipantsPerRound)
	endSelect()
	if len(selected) == 0 {
		return RoundResult{}, fmt.Errorf("fl: selector chose no participants in round %d", s.round)
	}

	// Deadline: the slowest selected client's T_min scaled by a uniform
	// draw from [1, ratio].
	endConfigure := s.sink.Span(obs.SpanFLConfigure, tc.ChildLabels()...)
	tmin := 0.0
	for _, p := range selected {
		t, err := p.TMinFor(s.cfg.Jobs)
		if err != nil {
			endConfigure()
			return RoundResult{}, fmt.Errorf("fl: tmin of %s: %w", p.ID(), err)
		}
		if t > tmin {
			tmin = t
		}
	}
	lo := deadlineFloor
	if s.cfg.DeadlineRatio < lo {
		lo = s.cfg.DeadlineRatio
	}
	deadline := tmin * (lo + s.rng.Float64()*(s.cfg.DeadlineRatio-lo))

	endConfigure()
	s.ledgerAppend(ledger.Event{
		Kind: ledger.KindRoundBegin, TraceID: tc.TraceID, SpanID: tc.SpanID,
		Deadline: deadline, Selected: len(selected),
	})

	// Execute phase: dispatch through the shared bounded worker pool. Each
	// chunk of the fan-out holds one server-owned fold part and, on the flat
	// path, folds its participants' contributions into that part's exact
	// partial as they arrive; the parts merge once the fan-out returns.
	// Exact addition is associative (internal/exact), so the committed model
	// is byte-identical for any pool width, chunking or completion order, and
	// at most pool-width parameter vectors are alive at once. The tree path
	// folds into its tier spine under an index-order turnstile instead, so
	// tier groups close in canonical order.
	endExecute := s.sink.Span(obs.SpanFLExecute, tc.ChildLabels()...)
	n := len(selected)
	s.caller.resetBudget()
	// The fold spans the extended vector: model dims plus the strategy's
	// statistic slots, all accumulated exactly so tier partials and quorum
	// renormalization treat them uniformly.
	vecDim := len(s.global) + s.agg.ExtraDim(len(s.global))
	s.resetParts()
	var tree *TreeFold
	if s.cfg.Tree != nil {
		if s.tree == nil || s.tree.dim != vecDim || s.tree.cfg != *s.cfg.Tree {
			s.tree = NewTreeFold(*s.cfg.Tree, vecDim, 0, s.sink, s.ledgerAppend)
		}
		tree = s.tree
		tree.sink = s.sink // SetSink may have replaced it since the spine was built
		tree.Reset(s.round, tc, n, 0, 0, TreeDepth(s.cfg.Tree.Fanout, n))
	}
	// One Configure per round, before dispatch fans out: the strategy's
	// request decoration (algorithm tag, μ, control variate) is
	// round-constant, and calling it here keeps stateful strategies off the
	// concurrent chunk goroutines. Params is only lent to Configure for its
	// dimensionality — each dispatch gets its own private copy in serve.
	proto := RoundRequest{
		Round:    s.round,
		Params:   s.global,
		Jobs:     s.cfg.Jobs,
		Deadline: deadline,
		Trace:    tc,
	}
	s.agg.Configure(&proto)
	proto.Params = nil
	slots := make([]roundSlot, n)
	var (
		foldMu   sync.Mutex
		foldCond = sync.NewCond(&foldMu)
		nextFold int
	)
	parallel.ForChunk(n, func(lo, hi int) {
		part := s.takePart(vecDim)
		defer s.putPart(part)
		for i := lo; i < hi; i++ {
			w := s.serve(part, selected[i], proto, &slots[i])
			if tree == nil {
				continue
			}
			foldMu.Lock()
			for nextFold != i {
				foldCond.Wait()
			}
			// Attempt events, tier-0 folds and every group close ending here
			// happen inside the turnstile, so partial frames and their ledger
			// entries interleave with the attempts in canonical order.
			s.journalAttempts(tc, selected[i].ID(), &slots[i])
			if w > 0 {
				tree.Leaf(1, part.contrib, w, 0)
			}
			tree.Advance(i)
			nextFold++
			foldCond.Broadcast()
			foldMu.Unlock()
		}
	})

	var (
		accVec      *exact.Vec
		totalWeight int64
	)
	if tree != nil {
		accVec, totalWeight, _ = tree.Root()
	} else {
		// Merge the parts, then journal the attempts in participant index
		// order — whichever worker finished first — which is what the
		// byte-identical replay guarantee rests on.
		accVec, totalWeight = s.parts[0].vec, s.parts[0].weight
		for _, p := range s.parts[1:] {
			if err := accVec.AddVec(p.vec); err != nil {
				endExecute()
				return RoundResult{}, s.abortRound(tc, err)
			}
			totalWeight += p.weight
		}
		for i := range slots {
			s.journalAttempts(tc, selected[i].ID(), &slots[i])
		}
	}
	endExecute()

	if tree != nil {
		if err := tree.Err(); err != nil {
			return RoundResult{}, s.abortRound(tc, err)
		}
		for i := range slots {
			// A discarded subtree's weight never reached the root, so its
			// leaves are out of the commit even though they folded.
			slots[i].treeDropped = tree.treeDropped(i)
		}
	}

	for i := range slots {
		if slots[i].err != nil {
			s.sink.Count(obs.MetricFLRoundErrors, 1)
		}
	}

	result := RoundResult{
		Round:     s.round,
		Deadline:  deadline,
		TraceID:   tc.TraceID,
		Responses: make([]RoundResponse, 0, n),
	}
	if s.tolerant() {
		// Figure 1's dropout path: keep the survivors, record the rest.
		// Dropped stays the catch-all list; stragglers and quarantines are
		// additionally tagged (and, for quarantines, excluded from future
		// selection).
		for i := range slots {
			switch {
			case slots[i].err != nil:
				id := selected[i].ID()
				result.Dropped = append(result.Dropped, id)
				switch {
				case errors.Is(slots[i].err, ErrCorruptFrame):
					result.Quarantined = append(result.Quarantined, id)
					s.Quarantine(id)
					s.sink.Event(obs.EventFLQuarantine,
						tc.SpanLabels(obs.L("client", id))...)
					s.ledgerAppend(ledger.Event{
						Kind: ledger.KindQuarantine, TraceID: tc.TraceID, Client: id,
					})
				case errors.Is(slots[i].err, errStraggler):
					result.Stragglers = append(result.Stragglers, id)
					s.sink.Count(obs.MetricFLStragglerStrips, 1)
				}
			case !slots[i].resp.Report.DeadlineMet, slots[i].treeDropped:
				result.Dropped = append(result.Dropped, slots[i].resp.ClientID)
			default:
				result.Responses = append(result.Responses, slots[i].resp)
			}
		}
		// Quorum: required = ⌈Quorum·n⌉ of the *selected* participants must
		// have been folded. With Quorum unset the legacy floor (≥ 1
		// survivor) applies.
		required := 1
		if s.cfg.Quorum > 0 {
			required = int(math.Ceil(s.cfg.Quorum * float64(n)))
			if required < 1 {
				required = 1
			}
		}
		if len(result.Responses) == 0 {
			return RoundResult{}, s.abortRound(tc, fmt.Errorf("fl: round %d: every participant dropped", s.round))
		}
		if len(result.Responses) < required {
			return RoundResult{}, s.abortRound(tc, fmt.Errorf("fl: round %d: quorum not met: %d of %d selected reported, need %d",
				s.round, len(result.Responses), n, required))
		}
		if s.cfg.Quorum > 0 && len(result.Responses) < n {
			// The round commits below full participation: the streaming
			// fold's deferred normalization renormalizes the weights over
			// the survivors automatically (see DESIGN.md §8).
			s.sink.Count(obs.MetricFLQuorumRounds, 1)
			s.ledgerAppend(ledger.Event{
				Kind: ledger.KindQuorum, TraceID: tc.TraceID,
				Survivors: len(result.Responses), Selected: n,
			})
		}
	} else {
		for i := range slots {
			if slots[i].err != nil {
				if errors.Is(slots[i].err, ErrCorruptFrame) {
					id := selected[i].ID()
					s.Quarantine(id)
					s.sink.Event(obs.EventFLQuarantine,
						tc.SpanLabels(obs.L("client", id))...)
					s.ledgerAppend(ledger.Event{
						Kind: ledger.KindQuarantine, TraceID: tc.TraceID, Client: id,
					})
				}
				return RoundResult{}, s.abortRound(tc, fmt.Errorf("fl: participant %s: %w", selected[i].ID(), slots[i].err))
			}
		}
		for i := range slots {
			result.Responses = append(result.Responses, slots[i].resp)
		}
	}
	// Validation failures (bad length, non-positive example count) are
	// round-fatal, exactly as the batch aggregate treated them.
	for i := range slots {
		if slots[i].valErr != nil {
			return RoundResult{}, s.abortRound(tc, slots[i].valErr)
		}
	}

	// Report phase: commit the deferred normalization — round the exact sums
	// to float64 once, then hand the totals (model slots plus statistic
	// slots) to the strategy's Commit. Flat fold and tree root hold the same
	// exact sums, so this commit is bit-identical on both paths. Nothing
	// before this line mutated the global model, so a failed round leaves it
	// untouched.
	endReport := s.sink.Span(obs.SpanFLReport, tc.ChildLabels()...)
	if totalWeight <= 0 {
		endReport()
		return RoundResult{}, s.abortRound(tc, fmt.Errorf("fl: round %d: zero aggregate weight", s.round))
	}
	if len(s.sum) != vecDim {
		s.sum = make([]float64, vecDim)
	}
	accVec.RoundTo(s.sum)
	if err := s.agg.Commit(s.global, s.sum, s.cfg.Jobs); err != nil {
		endReport()
		return RoundResult{}, s.abortRound(tc, fmt.Errorf("fl: round %d: %w", s.round, err))
	}
	endReport()

	// Stitch client-returned span summaries under their attempt spans. The
	// timestamps are client-local (no cross-process clock alignment is
	// attempted); the trace ID is the join key, so grafted spans still land
	// in the right round trace.
	if g, ok := s.sink.(obs.SpanGrafter); ok {
		for i := range slots {
			spans := slots[i].resp.Spans
			if len(spans) == 0 {
				continue
			}
			parent := tc.SpanID
			if nr := len(slots[i].recs); nr > 0 {
				parent = slots[i].recs[nr-1].spanID
			}
			for _, ss := range spans {
				g.Graft(obs.SpanEvent{
					Name:  ss.Name,
					Start: ss.StartNs,
					Dur:   ss.DurNs,
					Labels: obs.Labels{
						obs.L(obs.LabelTraceID, tc.TraceID),
						obs.L(obs.LabelParentID, parent),
						obs.L("client", slots[i].resp.ClientID),
						obs.L("clock", "client-local"),
					},
				})
			}
		}
	}

	result.Reports = make([]core.RoundReport, 0, len(result.Responses))
	for _, r := range result.Responses {
		result.Reports = append(result.Reports, r.Report)
	}
	s.sink.Count(obs.MetricFLRounds, 1)
	s.sink.Count(obs.MetricFLDropouts, float64(len(result.Dropped)))
	s.recordReports(result.Reports, tc)
	s.ledgerAppend(ledger.Event{
		Kind: ledger.KindCommit, TraceID: tc.TraceID,
		Survivors: len(result.Responses), Selected: n,
	})
	return result, nil
}

// abortRound journals a failed round's terminal event and passes the error
// through, so every post-selection exit leaves a ledger trail.
func (s *Server) abortRound(tc obs.TraceContext, err error) error {
	s.ledgerAppend(ledger.Event{Kind: ledger.KindAbort, TraceID: tc.TraceID, Detail: err.Error()})
	return err
}

// roundSlot is one selected participant's outcome, indexed by selection
// order.
type roundSlot struct {
	resp        RoundResponse   // Params stripped after folding
	err         error           // participant Round failure
	valErr      error           // aggregation-fatal validation failure
	treeDropped bool            // folded, then discarded with its subtree
	recs        []attemptRecord // per-attempt verdicts for ledger + trace graft
}

// foldPart is one dispatch worker's round state: the request and
// contribution scratch every participant call needs and, on the flat path,
// the exact partial sum and example weight of the participants the worker
// folded. Parts are server-owned and reused across rounds; a fan-out chunk
// holds one for its duration, so at most pool-width parts exist, and an
// unused partial allocates no limb planes.
type foldPart struct {
	vec     *exact.Vec
	weight  int64
	params  []float64 // request scratch: a private copy of the global model
	contrib []float64 // Contribute scratch, one fold vector wide
}

// resetParts rewinds every fold part for a new round and returns them all
// to the free list.
func (s *Server) resetParts() {
	for _, p := range s.parts {
		p.vec.Reset()
		p.weight = 0
	}
	s.free = append(s.free[:0], s.parts...)
}

// takePart checks a fold part out for one fan-out chunk, building a new one
// when every existing part is busy.
func (s *Server) takePart(vecDim int) *foldPart {
	s.partMu.Lock()
	defer s.partMu.Unlock()
	if k := len(s.free); k > 0 {
		p := s.free[k-1]
		s.free = s.free[:k-1]
		return p
	}
	p := &foldPart{
		vec:     exact.NewVec(vecDim),
		params:  make([]float64, len(s.global)),
		contrib: make([]float64, vecDim),
	}
	s.parts = append(s.parts, p)
	return p
}

// putPart returns a chunk's fold part to the free list.
func (s *Server) putPart(p *foldPart) {
	s.partMu.Lock()
	s.free = append(s.free, p)
	s.partMu.Unlock()
}

// serve runs participant p's dispatch on a fan-out worker and settles its
// slot: the call with retries on the part's private copy of the global
// model, then — for an update the round folds — validation and the
// strategy's Contribute into part.contrib. On the flat path the contribution
// is added to the part's exact partial here, inside the fold span; the tree
// path folds it into the spine under the turnstile. It returns the example
// weight of the contribution in part.contrib, or 0 when there is none.
func (s *Server) serve(part *foldPart, p Participant, proto RoundRequest, sl *roundSlot) int64 {
	copy(part.params, s.global)
	req := proto
	req.Params = part.params
	resp, recs, err := s.caller.call(p, req, s.sink)
	sl.recs = recs
	if err != nil {
		sl.err = err
		return 0
	}
	var w int64
	// In dropout-tolerant rounds a deadline miss excludes the update from
	// aggregation; in strict rounds it is still aggregated (and only
	// reported), matching the batch reference.
	if !s.tolerant() || resp.Report.DeadlineMet {
		endFold := s.sink.Span(obs.SpanFLFold, proto.Trace.ChildLabels()...)
		if err := checkResponse(&resp, len(s.global)); err != nil {
			sl.valErr = err
		} else if err := s.agg.Contribute(part.contrib, s.global, &resp, s.cfg.Jobs); err != nil {
			sl.valErr = err
		} else {
			w = int64(resp.NumExamples)
			if s.cfg.Tree == nil {
				part.vec.Add(part.contrib)
				part.weight += w
			}
		}
		endFold()
	}
	if pr, ok := p.(paramsReleaser); ok {
		pr.releaseParams(resp.Params)
	}
	resp.Params, resp.Aux = nil, nil // the update now lives in the fold
	sl.resp = resp
	return w
}

// paramsReleaser is a participant whose responses carry parameter vectors
// the server may hand back once it has folded them. Only HTTPParticipant
// implements it: its decoded vectors come from the codec's pool, while an
// external caller of Round keeps the Params it is given.
type paramsReleaser interface {
	releaseParams(params []float64)
}

// journalAttempts appends one ledger event per attempt the participant's
// dispatch made; a successful final attempt carries the round's energy and
// latency.
func (s *Server) journalAttempts(tc obs.TraceContext, clientID string, sl *roundSlot) {
	for _, rec := range sl.recs {
		ev := ledger.Event{
			Kind: ledger.KindAttempt, TraceID: tc.TraceID, SpanID: rec.spanID,
			Client: clientID, Attempt: rec.attempt, Verdict: rec.verdict,
			DelayNs: rec.delayNs, BackoffNs: rec.backoffNs,
			WireTxBytes: rec.wireTx, WireRxBytes: rec.wireRx,
			Detail: rec.detail,
		}
		if rec.verdict == ledger.VerdictOK && sl.err == nil {
			ev.EnergyJoules = sl.resp.Report.Energy
			ev.LatencySeconds = sl.resp.Report.Duration
		}
		s.ledgerAppend(ev)
	}
}

// ledgerAppend stamps the current round onto ev and journals it. Safe with a
// nil ledger, so call sites need no enabled/disabled branching.
func (s *Server) ledgerAppend(ev ledger.Event) {
	if s.cfg.Ledger == nil {
		return
	}
	ev.Round = s.round
	s.cfg.Ledger.Append(ev)
}

// recordReports folds the round's client reports into the BoFL domain
// instruments, mirroring what each client's controller records locally. When
// the sink supports exemplars, the round energy/duration observations carry
// the round's trace ID so an outlier histogram sample can be jumped straight
// to its stitched trace.
func (s *Server) recordReports(reports []core.RoundReport, tc obs.TraceContext) {
	if len(reports) == 0 {
		return
	}
	// Counters are additive and gauges are last-wins, so everything except the
	// histogram observations aggregates locally first: at fleet scale a
	// per-report labeled Count would re-render the series key a thousand times
	// a round, and that lookup churn — not the arithmetic — was the dominant
	// cost of the live sink.
	eo, hasExemplars := s.sink.(obs.ExemplarObserver)
	misses := 0
	var phaseEnergy, phaseLatency map[core.Phase]float64
	for _, rep := range reports {
		if hasExemplars {
			eo.ObserveExemplar(obs.MetricRoundEnergy, rep.Energy, tc)
			eo.ObserveExemplar(obs.MetricRoundDuration, rep.Duration, tc)
		} else {
			s.sink.Observe(obs.MetricRoundEnergy, rep.Energy)
			s.sink.Observe(obs.MetricRoundDuration, rep.Duration)
		}
		if !rep.DeadlineMet {
			misses++
		}
		if phaseEnergy == nil {
			phaseEnergy = make(map[core.Phase]float64, 2)
			phaseLatency = make(map[core.Phase]float64, 2)
		}
		phaseEnergy[rep.Phase] += rep.Energy
		phaseLatency[rep.Phase] += rep.Duration
	}
	s.sink.Count(obs.MetricRounds, float64(len(reports)))
	if misses > 0 {
		s.sink.Count(obs.MetricDeadlineMisses, float64(misses))
	}
	last := reports[len(reports)-1]
	s.sink.SetGauge(obs.MetricControllerPhase, float64(last.Phase))
	s.sink.SetGauge(obs.MetricFrontSize, float64(last.FrontSize))
	for ph, e := range phaseEnergy {
		phase := obs.L("phase", ph.String())
		s.sink.Count(obs.MetricPhaseEnergy, e, phase)
		s.sink.Count(obs.MetricPhaseLatency, phaseLatency[ph], phase)
	}
}

// Run executes `rounds` rounds and returns all results.
func (s *Server) Run(rounds int) ([]RoundResult, error) {
	if rounds <= 0 {
		return nil, fmt.Errorf("fl: round count %d", rounds)
	}
	out := make([]RoundResult, 0, rounds)
	for r := 0; r < rounds; r++ {
		res, err := s.RunRound()
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}
