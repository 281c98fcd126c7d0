package main

import (
	"fmt"
	"math"
	"math/rand"

	"bofl/internal/core"
	"bofl/internal/fl"
)

// flatWorkload is fl.Server on the flat streaming fold: FedAvg, the nop sink
// and no ledger, serving in-process echo participants. No controller, codec
// or network runs, so the serial fold dominates. One iteration is one round.
type flatWorkload struct {
	srv   *fl.Server
	parts []*echo
	pr    *probe
}

// echo is a zero-training participant: it scales the incoming global vector
// by a per-client factor, isolating dispatch and fold from model math.
type echo struct {
	id       string
	scale    float64
	examples int
}

func (e *echo) ID() string                        { return e.id }
func (e *echo) TMinFor(jobs int) (float64, error) { return float64(jobs), nil }

func (e *echo) Round(req fl.RoundRequest) (fl.RoundResponse, error) {
	for i := range req.Params {
		req.Params[i] *= e.scale
	}
	return fl.RoundResponse{
		ClientID:    e.id,
		Params:      req.Params,
		NumExamples: e.examples,
		Report:      core.RoundReport{Round: req.Round, DeadlineMet: true},
	}, nil
}

// flatInputs generates the initial model (float32-valued, as models train
// in single precision) and the echo participants from the seed.
func flatInputs(seed int64, clients, dim int) ([]float64, []*echo) {
	rng := rand.New(rand.NewSource(seed))
	params := make([]float64, dim)
	for i := range params {
		params[i] = float64(float32(rng.NormFloat64() * 0.05))
	}
	parts := make([]*echo, clients)
	for i := range parts {
		parts[i] = &echo{
			id:       fmt.Sprintf("edge-%d", i),
			scale:    1 + float64(rng.Intn(64)-32)/1024,
			examples: 1 + rng.Intn(64),
		}
	}
	return params, parts
}

func newFlat(seed int64, clients, dim int, pr *probe) (*flatWorkload, error) {
	params, parts := flatInputs(seed, clients, dim)
	var agg fl.Aggregator = fl.FedAvg{}
	if pr != nil {
		agg = &timedAggregator{p: pr, next: agg}
	}
	srv, err := fl.NewServer(fl.ServerConfig{
		InitialParams: params,
		Jobs:          10,
		DeadlineRatio: 2,
		Seed:          seed,
		Aggregator:    agg,
	})
	if err != nil {
		return nil, err
	}
	ids := make([]string, len(parts))
	for i, p := range parts {
		ids[i] = p.id
		if pr != nil {
			srv.Register(&timedParticipant{p: pr, idx: i, next: p})
		} else {
			srv.Register(p)
		}
	}
	if pr != nil {
		pr.trackParticipants(ids)
		srv.SetSink(newSpanSink(pr, nil))
	}
	return &flatWorkload{srv: srv, parts: parts, pr: pr}, nil
}

func (w *flatWorkload) iterate(int) (outcome, error) {
	res, err := w.srv.RunRound()
	if err != nil {
		return outcome{}, err
	}
	if len(res.Responses) != len(w.parts) {
		return outcome{}, fmt.Errorf("round-flat: %d of %d participants committed", len(res.Responses), len(w.parts))
	}
	return outcome{scheduled: len(w.parts)}, nil
}

// checkWindow is how many model coordinates one batch-reference pass covers;
// it bounds the reference's response buffers to clients × checkWindow floats.
const checkWindow = 2048

// check runs one more round and requires the committed model to be
// bit-identical to fl.BatchAggregate(FedAvg) over the same responses. FedAvg
// is coordinate-wise (each slot is its own exact sum), so the reference runs
// window by window over the whole model instead of holding every response
// at full width.
func (w *flatWorkload) check(outcome) error {
	before := w.srv.GlobalParams()
	if _, err := w.iterate(0); err != nil {
		return err
	}
	after := w.srv.GlobalParams()
	responses := make([]fl.RoundResponse, len(w.parts))
	buf := make([]float64, len(w.parts)*checkWindow)
	for lo := 0; lo < len(before); lo += checkWindow {
		hi := min(lo+checkWindow, len(before))
		for i, p := range w.parts {
			v := buf[i*checkWindow : i*checkWindow+hi-lo]
			copy(v, before[lo:hi])
			resp, err := p.Round(fl.RoundRequest{Params: v})
			if err != nil {
				return err
			}
			responses[i] = resp
		}
		want, err := fl.BatchAggregate(fl.FedAvg{}, before[lo:hi], responses, 10)
		if err != nil {
			return err
		}
		for j, v := range want {
			if math.Float64bits(v) != math.Float64bits(after[lo+j]) {
				return fmt.Errorf("round-flat: coordinate %d committed %v, batch reference %v", lo+j, after[lo+j], v)
			}
		}
	}
	return nil
}

func (w *flatWorkload) close() {}
