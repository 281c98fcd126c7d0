package fl

// Aggregation-strategy plugin layer. The flat streaming fold and the
// hierarchical tree fold historically hardcoded FedAvg; this file puts the
// algorithm behind an interface so FedProx, FedNova and SCAFFOLD plug into
// the identical fault plane — retries, quorum, quarantine, chaos injection,
// ledger replay — without touching the fold machinery.
//
// The design constraint is bit-identity across fold shapes: the flat
// streaming fold, any aggregation tree, and the naive batch reference must
// commit byte-identical models. Every strategy is therefore expressed as an
// exactly-accumulated linear fold plus a single commit:
//
//   - Contribute maps one surviving response to a contribution vector of
//     width dim+ExtraDim: the first dim slots carry the weighted model
//     parameters (each product rounded once by the ordinary float64
//     multiply), the extra slots carry the strategy's sufficient statistics
//     (total weight, step-count moments, control-variate deltas). The
//     contribution is added *exactly* (internal/exact), so any grouping of
//     the leaves — flat, tree, ragged tails — reaches the root with the
//     same accumulator state bit for bit, and the extra slots ride tier
//     partial frames for free (they are just more scalars of the window).
//   - Commit derives the new global model from the rounded exact totals,
//     once, at the root. Because every divisor and correction coefficient
//     is a folded statistic, quorum dropout and subtree discard renormalize
//     per-algorithm semantics automatically: a dropped client's weight,
//     step count and variate delta simply never reach the totals.

import (
	"fmt"

	"bofl/internal/exact"
)

// Algorithm names understood by NewAggregator and carried in
// RoundRequest.Alg so clients know which local protocol to run.
const (
	AlgFedAvg   = "fedavg"
	AlgFedProx  = "fedprox"
	AlgFedNova  = "fednova"
	AlgScaffold = "scaffold"
)

// Aggregator is a pluggable server aggregation strategy. Implementations
// must be deterministic: Contribute and Commit may depend only on their
// arguments and on state mutated by previous Commit calls, never on time,
// randomness or goroutine scheduling. One instance serves one Server —
// stateful strategies (SCAFFOLD) carry per-server variates.
type Aggregator interface {
	// Name returns the registry name (AlgFedAvg, …).
	Name() string
	// ExtraDim reports how many statistic scalars ride after the dim model
	// slots of every contribution vector and tier accumulator.
	ExtraDim(dim int) int
	// Configure decorates an outgoing round request with the strategy's
	// client-side protocol: the algorithm tag, a proximal coefficient, a
	// server control variate. req.Params holds the round's global model for
	// its dimensionality only — implementations must not retain or mutate
	// it. Participants treat the attached vectors as read-only.
	Configure(req *RoundRequest)
	// Contribute validates resp and writes its fold contribution into dst,
	// which has length dim+ExtraDim(dim): dst[:dim] is the weighted
	// parameter vector, dst[dim:] the statistic contributions. jobs is the
	// round's nominal job count W. The caller has already validated the
	// parameter length and a positive example count. Errors are
	// round-fatal, like the legacy validation failures. The server calls
	// Contribute from its dispatch workers concurrently, each with its own
	// dst, so it must not mutate strategy state.
	Contribute(dst, global []float64, resp *RoundResponse, jobs int) error
	// Commit derives the new global model from the rounded exact totals
	// (same layout as Contribute's dst) and updates any server-side
	// strategy state. total aggregates survivors only.
	Commit(global, total []float64, jobs int) error
}

// NewAggregator builds a registered strategy by name. mu is the FedProx
// proximal coefficient (ignored by the other strategies).
func NewAggregator(name string, mu float64) (Aggregator, error) {
	switch name {
	case AlgFedAvg, "":
		return FedAvg{}, nil
	case AlgFedProx:
		if mu < 0 {
			return nil, fmt.Errorf("fl: fedprox mu %v must be ≥ 0", mu)
		}
		return &FedProx{Mu: mu}, nil
	case AlgFedNova:
		return FedNova{}, nil
	case AlgScaffold:
		return NewScaffold(), nil
	default:
		return nil, fmt.Errorf("fl: unknown aggregator %q (have %s, %s, %s, %s)",
			name, AlgFedAvg, AlgFedProx, AlgFedNova, AlgScaffold)
	}
}

// respSteps returns the local step count a response reports, falling back
// to the round's nominal job count for clients that predate the field.
func respSteps(resp *RoundResponse, jobs int) int {
	if resp.Steps > 0 {
		return resp.Steps
	}
	return jobs
}

// FedAvg is the vanilla dataset-size weighted average — the strategy the
// pre-plugin fold hardcoded. Contribution layout: [n·v ; n]. Commit divides
// by the surviving example weight, reproducing the legacy deferred
// normalization bit for bit (the weight total is a sum of integers, exact
// in the accumulator and exact after rounding).
type FedAvg struct{}

var _ Aggregator = FedAvg{}

// Name implements Aggregator.
func (FedAvg) Name() string { return AlgFedAvg }

// ExtraDim implements Aggregator: one slot for the example-weight total.
func (FedAvg) ExtraDim(dim int) int { return 1 }

// Configure implements Aggregator: FedAvg has no client-side protocol.
func (FedAvg) Configure(req *RoundRequest) {}

// Contribute implements Aggregator.
func (FedAvg) Contribute(dst, global []float64, resp *RoundResponse, jobs int) error {
	dim := len(global)
	w := float64(resp.NumExamples)
	for j, v := range resp.Params {
		dst[j] = w * v
	}
	dst[dim] = w
	return nil
}

// Commit implements Aggregator.
func (FedAvg) Commit(global, total []float64, jobs int) error {
	tw := total[len(global)]
	if tw <= 0 {
		return fmt.Errorf("fl: fedavg: zero aggregate weight")
	}
	for j := range global {
		global[j] = total[j] / tw
	}
	return nil
}

// FedProx is FedAvg aggregation plus a client-side proximal term: every
// local step pulls the replica back toward the round's global model with
// strength Mu (the μ/2·‖w−w_g‖² regularizer of Li et al.), damping client
// drift under non-IID shards and heterogeneous local pace. With Mu = 0 the
// client correction is skipped entirely, so the strategy degenerates to
// FedAvg bitwise.
type FedProx struct {
	FedAvg
	// Mu is the proximal coefficient μ ≥ 0.
	Mu float64
}

var _ Aggregator = (*FedProx)(nil)

// Name implements Aggregator.
func (*FedProx) Name() string { return AlgFedProx }

// Configure implements Aggregator: ships μ to the client.
func (p *FedProx) Configure(req *RoundRequest) {
	req.Alg = AlgFedProx
	req.Prox = p.Mu
}

// FedNova implements normalized averaging over heterogeneous local step
// counts (Wang et al.): clients that ran more local steps contribute a
// *normalized* update so the committed model is no longer biased toward
// fast-paced clients — exactly the failure mode BoFL's variable local-pace
// windows expose in plain FedAvg.
//
// Contribution layout: [w·v ; w ; n ; n·τ ; n·(τ−W)²] with w = n·(W/τ),
// n the example count, τ the client's local step count and W the nominal
// job count. Commit applies
//
//	x⁺ = x + τ_eff · (S − sw·x) / (W · sn),   τ_eff = snt/sn
//
// over the survivor totals. The last statistic is an exact integer-valued
// dispersion: it rounds to 0 iff every survivor ran exactly W steps, in
// which case the fold weights were n·(W/W) = n exactly and Commit takes
// the plain FedAvg division — so uniform-pace FedNova is bitwise FedAvg.
type FedNova struct{}

var _ Aggregator = FedNova{}

// Name implements Aggregator.
func (FedNova) Name() string { return AlgFedNova }

// ExtraDim implements Aggregator.
func (FedNova) ExtraDim(dim int) int { return 4 }

// Configure implements Aggregator: tags the request so traces and clients
// can tell the round's protocol, but needs no client-side correction.
func (FedNova) Configure(req *RoundRequest) { req.Alg = AlgFedNova }

// Contribute implements Aggregator.
func (FedNova) Contribute(dst, global []float64, resp *RoundResponse, jobs int) error {
	dim := len(global)
	n := float64(resp.NumExamples)
	tau := float64(respSteps(resp, jobs))
	w := n * (float64(jobs) / tau)
	for j, v := range resp.Params {
		dst[j] = w * v
	}
	d := tau - float64(jobs)
	dst[dim] = w
	dst[dim+1] = n
	dst[dim+2] = n * tau
	dst[dim+3] = n * d * d
	return nil
}

// Commit implements Aggregator.
func (FedNova) Commit(global, total []float64, jobs int) error {
	dim := len(global)
	sw, sn, snt, svar := total[dim], total[dim+1], total[dim+2], total[dim+3]
	if sn <= 0 {
		return fmt.Errorf("fl: fednova: zero aggregate weight")
	}
	if svar == 0 {
		// Every survivor ran the nominal pace: the fold was the FedAvg fold
		// (weights n·1.0), so the commit must be the FedAvg commit — same
		// operations, bitwise.
		for j := range global {
			global[j] = total[j] / sn
		}
		return nil
	}
	tauEff := snt / sn
	den := float64(jobs) * sn
	for j := range global {
		global[j] += tauEff * (total[j] - sw*global[j]) / den
	}
	return nil
}

// Scaffold implements server/client control variates (Karimireddy et al.,
// option II): the server ships its variate c with every request, clients
// correct each local step by (c − c_i) and return the variate delta Δc_i,
// and Commit folds the example-weighted model average plus the mean delta
// into the server state. Client variates live on the clients; the deltas
// ride the wire as the frames' aux payload section.
//
// Contribution layout: [n·v ; Δc_i ; n ; 1]. The model slots are the FedAvg
// fold, so a round in which every variate is zero (fresh server, fresh
// clients) trains and commits bitwise-identically to FedAvg. The trailing
// count statistic makes the delta mean quorum-correct: only survivors'
// deltas and only the survivor count reach the root.
type Scaffold struct {
	// ctl is the server control variate c, sized lazily to the model.
	ctl []float64
}

var _ Aggregator = (*Scaffold)(nil)

// NewScaffold builds a SCAFFOLD strategy with a zero server variate.
func NewScaffold() *Scaffold { return &Scaffold{} }

// Name implements Aggregator.
func (s *Scaffold) Name() string { return AlgScaffold }

// ExtraDim implements Aggregator: the variate-delta vector plus weight and
// survivor-count slots.
func (s *Scaffold) ExtraDim(dim int) int { return dim + 2 }

// Configure implements Aggregator: ships the server variate. The slice is
// shared read-only across the round's requests; Commit only mutates it
// after every dispatch of the round has completed.
func (s *Scaffold) Configure(req *RoundRequest) {
	req.Alg = AlgScaffold
	if len(s.ctl) != len(req.Params) {
		s.ctl = make([]float64, len(req.Params))
	}
	req.Aux = s.ctl
}

// ControlVariate returns a copy of the server control variate c.
func (s *Scaffold) ControlVariate() []float64 {
	out := make([]float64, len(s.ctl))
	copy(out, s.ctl)
	return out
}

// Clone returns an independent Scaffold with the same variate state — the
// hook batch-reference tests use to replay a round without disturbing the
// live server's state.
func (s *Scaffold) Clone() *Scaffold {
	c := &Scaffold{ctl: make([]float64, len(s.ctl))}
	copy(c.ctl, s.ctl)
	return c
}

// Contribute implements Aggregator.
func (s *Scaffold) Contribute(dst, global []float64, resp *RoundResponse, jobs int) error {
	dim := len(global)
	if len(resp.Aux) != dim {
		return fmt.Errorf("fl: scaffold: client %s returned %d control-variate deltas, want %d",
			resp.ClientID, len(resp.Aux), dim)
	}
	n := float64(resp.NumExamples)
	for j, v := range resp.Params {
		dst[j] = n * v
	}
	copy(dst[dim:2*dim], resp.Aux)
	dst[2*dim] = n
	dst[2*dim+1] = 1
	return nil
}

// Commit implements Aggregator.
func (s *Scaffold) Commit(global, total []float64, jobs int) error {
	dim := len(global)
	sn, cnt := total[2*dim], total[2*dim+1]
	if sn <= 0 || cnt <= 0 {
		return fmt.Errorf("fl: scaffold: zero aggregate weight")
	}
	if len(s.ctl) != dim {
		s.ctl = make([]float64, dim)
	}
	for j := range global {
		global[j] = total[j] / sn
		s.ctl[j] += total[dim+j] / cnt
	}
	return nil
}

// BatchAggregate is the naive reference implementation the streaming and
// tree folds are tested against: accumulate every response's contribution
// into one fresh exact vector, round once, commit on a copy of global.
// It returns the committed model and leaves agg's state updated exactly as
// a live Commit would (pass a Clone for side-effect-free replay).
func BatchAggregate(agg Aggregator, global []float64, responses []RoundResponse, jobs int) ([]float64, error) {
	dim := len(global)
	vecDim := dim + agg.ExtraDim(dim)
	acc := exact.NewVec(vecDim)
	contrib := make([]float64, vecDim)
	for i := range responses {
		r := &responses[i]
		if err := checkResponse(r, dim); err != nil {
			return nil, err
		}
		if err := agg.Contribute(contrib, global, r, jobs); err != nil {
			return nil, err
		}
		acc.Add(contrib)
	}
	total := make([]float64, vecDim)
	acc.RoundTo(total)
	out := make([]float64, dim)
	copy(out, global)
	if err := agg.Commit(out, total, jobs); err != nil {
		return nil, err
	}
	return out, nil
}

// checkResponse is the validation every fold applies before Contribute: the
// update must match the model's width and carry a positive example count.
func checkResponse(r *RoundResponse, dim int) error {
	switch {
	case len(r.Params) != dim:
		return fmt.Errorf("fl: client %s returned %d params, want %d", r.ClientID, len(r.Params), dim)
	case r.NumExamples <= 0:
		return fmt.Errorf("fl: client %s reports %d examples", r.ClientID, r.NumExamples)
	}
	return nil
}
