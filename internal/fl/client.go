package fl

import (
	"fmt"
	"math"
	"time"

	"bofl/internal/core"
	"bofl/internal/device"
	"bofl/internal/ml"
	"bofl/internal/obs"
	"bofl/internal/simclock"
)

// Client is one FL participant: a simulated edge device holding a local data
// shard, a trainable model replica, and a pace controller that decides the
// DVFS configuration of every training job.
type Client struct {
	id         string
	dev        *device.Device
	workload   device.Workload
	meter      *device.Meter
	clock      *simclock.Sim
	model      ml.Model
	batches    [][]ml.Example
	numExample int
	controller core.PaceController
	lr         float64

	cursor      int
	totalEnergy float64
	sink        obs.Sink

	// stepScale is how many optimization steps the client runs per job — its
	// local pace multiplier; 1 is the nominal pace.
	stepScale int
	// Round-scoped aggregation-protocol state, installed by BeginRound.
	// prox is the FedProx μ; globalRef snapshots the round's incoming global
	// model (proximal anchor and SCAFFOLD reference); ctlServer/ctlLocal are
	// the SCAFFOLD control variates c and c_i, and corr their difference
	// c − c_i — nil whenever it is identically zero, so the correction loop
	// is skipped and a zero-variate round trains bitwise like FedAvg.
	prox       float64
	globalRef  []float64
	ctlServer  []float64
	ctlLocal   []float64
	corr       []float64
	scaffold   bool
	roundSteps int
}

// SetSink installs a telemetry sink on the client and, when the pace
// controller supports one, on the controller too (the BoFL controller then
// records its domain metrics into the same registry).
func (c *Client) SetSink(s obs.Sink) {
	c.sink = obs.OrNop(s)
	if ss, ok := c.controller.(interface{ SetSink(obs.Sink) }); ok {
		ss.SetSink(c.sink)
	}
}

// ClientConfig bundles a client's construction parameters.
type ClientConfig struct {
	ID         string
	Device     *device.Device
	Workload   device.Workload
	Model      ml.Model
	Data       []ml.Example
	BatchSize  int
	LearnRate  float64
	Controller core.PaceController
	Noise      device.NoiseModel
	Seed       int64
	Clock      *simclock.Sim // optional; a fresh clock is created if nil
	// StepScale is the client's local pace multiplier: optimization steps
	// run per job. 0 means 1 (the nominal pace). Heterogeneous values across
	// a fleet reproduce the variable local-step regime FedNova normalizes.
	StepScale int
}

// NewClient validates the configuration and builds a client.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("fl: client needs an id")
	}
	if cfg.Device == nil || cfg.Model == nil || cfg.Controller == nil {
		return nil, fmt.Errorf("fl: client %q missing device, model or controller", cfg.ID)
	}
	if len(cfg.Data) == 0 {
		return nil, fmt.Errorf("fl: client %q has no local data", cfg.ID)
	}
	if !(cfg.LearnRate > 0) || math.IsInf(cfg.LearnRate, 1) {
		return nil, fmt.Errorf("fl: client %q learning rate %v is not positive and finite", cfg.ID, cfg.LearnRate)
	}
	batches, err := ml.Batches(cfg.Data, cfg.BatchSize)
	if err != nil {
		return nil, fmt.Errorf("fl: client %q: %w", cfg.ID, err)
	}
	if cfg.StepScale < 0 {
		return nil, fmt.Errorf("fl: client %q step scale %d", cfg.ID, cfg.StepScale)
	}
	stepScale := cfg.StepScale
	if stepScale == 0 {
		stepScale = 1
	}
	noise := cfg.Noise
	if noise == (device.NoiseModel{}) {
		noise = device.DefaultNoise()
	}
	clock := cfg.Clock
	if clock == nil {
		clock = simclock.NewSim(time.Unix(0, 0))
	}
	return &Client{
		id:         cfg.ID,
		dev:        cfg.Device,
		workload:   cfg.Workload,
		meter:      device.NewMeter(cfg.Device, noise, cfg.Seed),
		clock:      clock,
		model:      cfg.Model,
		batches:    batches,
		numExample: len(cfg.Data),
		controller: cfg.Controller,
		lr:         cfg.LearnRate,
		sink:       obs.Nop,
		stepScale:  stepScale,
	}, nil
}

// ID returns the client identifier.
func (c *Client) ID() string { return c.id }

// NumExamples returns the local dataset size (FedAvg weighting).
func (c *Client) NumExamples() int { return c.numExample }

// TotalEnergy returns the cumulative training energy in Joules.
func (c *Client) TotalEnergy() float64 { return c.totalEnergy }

// Model exposes the local model replica.
func (c *Client) Model() ml.Model { return c.model }

// TMin reports the client's minimum feasible round time for `jobs` jobs.
func (c *Client) TMin(jobs int) (float64, error) {
	lat, err := c.dev.Latency(c.workload, c.dev.Space().Max())
	if err != nil {
		return 0, err
	}
	return lat * float64(jobs), nil
}

// SetParams installs global model parameters (model download).
func (c *Client) SetParams(params []float64) error {
	p := c.model.Params()
	if len(params) != len(p) {
		return fmt.Errorf("fl: client %q: %d params, model has %d", c.id, len(params), len(p))
	}
	copy(p, params)
	return nil
}

// BeginRound installs the round's global parameters and the aggregation
// protocol the request names: the FedProx proximal anchor, or the SCAFFOLD
// server control variate. Corrections that are identically zero (μ = 0, or
// c − c_i = 0 on a fresh SCAFFOLD round) are disabled outright, so such
// rounds train bitwise-identically to plain FedAvg.
func (c *Client) BeginRound(req RoundRequest) error {
	if err := c.SetParams(req.Params); err != nil {
		return err
	}
	dim := len(req.Params)
	c.prox, c.corr, c.scaffold = 0, nil, false
	switch req.Alg {
	case AlgFedProx:
		if req.Prox < 0 {
			return fmt.Errorf("fl: client %q: proximal μ %v", c.id, req.Prox)
		}
		c.prox = req.Prox
		if c.prox > 0 {
			c.globalRef = append(c.globalRef[:0], req.Params...)
		}
	case AlgScaffold:
		if len(req.Aux) != dim {
			return fmt.Errorf("fl: client %q: control variate has %d dims, model has %d", c.id, len(req.Aux), dim)
		}
		c.scaffold = true
		c.globalRef = append(c.globalRef[:0], req.Params...)
		c.ctlServer = append(c.ctlServer[:0], req.Aux...)
		if len(c.ctlLocal) != dim {
			c.ctlLocal = make([]float64, dim)
		}
		zero := true
		for j := range c.ctlServer {
			if c.ctlServer[j] != c.ctlLocal[j] {
				zero = false
				break
			}
		}
		if !zero {
			if len(c.corr) != dim {
				c.corr = make([]float64, dim)
			} else {
				c.corr = c.corr[:dim]
			}
			for j := range c.corr {
				c.corr[j] = c.ctlServer[j] - c.ctlLocal[j]
			}
		}
	}
	return nil
}

// FinishRound attaches the client's protocol return to an outgoing response:
// the local step count every round, plus — under SCAFFOLD — the
// control-variate delta Δc_i = −c + (x − y_i)/(τ·η) (option II of
// Karimireddy et al.), with the local variate updated in place.
func (c *Client) FinishRound(resp *RoundResponse) {
	resp.Steps = c.roundSteps
	if !c.scaffold || c.roundSteps <= 0 {
		return
	}
	p := c.model.Params()
	inv := 1 / (float64(c.roundSteps) * c.lr)
	delta := make([]float64, len(p))
	for j := range p {
		delta[j] = -c.ctlServer[j] + (c.globalRef[j]-p[j])*inv
		c.ctlLocal[j] += delta[j]
	}
	resp.Aux = delta
}

// Params returns a copy of the local model parameters (model upload).
func (c *Client) Params() []float64 {
	p := c.model.Params()
	out := make([]float64, len(p))
	copy(out, p)
	return out
}

// executor adapts one training job to core.Executor: it trains the next
// minibatch(es) for real — stepScale optimization steps per job, each
// followed by any active protocol correction — then charges the simulated
// hardware cost of running the job under the requested DVFS configuration
// and advances the virtual clock.
func (c *Client) executor() core.Executor {
	return core.ExecutorFunc(func(cfg device.Config) (core.JobResult, error) {
		for s := 0; s < c.stepScale; s++ {
			batch := c.batches[c.cursor%len(c.batches)]
			c.cursor++
			if _, err := ml.TrainStep(c.model, batch, c.lr); err != nil {
				return core.JobResult{}, fmt.Errorf("fl: client %q train step: %w", c.id, err)
			}
			c.roundSteps++
			if c.prox > 0 || c.corr != nil {
				c.applyStepCorrections()
			}
		}
		trueLat, err := c.dev.Latency(c.workload, cfg)
		if err != nil {
			return core.JobResult{}, err
		}
		m, err := c.meter.Measure(c.workload, cfg, trueLat)
		if err != nil {
			return core.JobResult{}, err
		}
		c.clock.Advance(time.Duration(m.Latency * float64(time.Second)))
		return core.JobResult{Latency: m.Latency, Energy: m.Energy}, nil
	})
}

// applyStepCorrections applies the round's per-step protocol terms to the
// replica after an SGD step: the FedProx proximal pull toward the round's
// global model, and the SCAFFOLD variate correction −η·(c − c_i). Callers
// skip the call when both are inactive, keeping the nominal path untouched.
func (c *Client) applyStepCorrections() {
	p := c.model.Params()
	if c.prox > 0 {
		k := c.lr * c.prox
		for j, g := range c.globalRef {
			p[j] -= k * (p[j] - g)
		}
	}
	if c.corr != nil {
		for j, d := range c.corr {
			p[j] -= c.lr * d
		}
	}
}

// TrainRound runs one FL round of `jobs` minibatch jobs under the round
// deadline, driven by the client's pace controller.
func (c *Client) TrainRound(round, jobs int, deadline float64) (core.RoundReport, error) {
	return c.TrainRoundCtx(round, jobs, deadline, obs.TraceContext{})
}

// TrainRoundCtx is TrainRound carrying the server-propagated round trace
// context: when tc is valid the client's round span is stamped with the
// distributed trace/span IDs, so a client-side scrape shows which round
// trace each local span belongs to.
func (c *Client) TrainRoundCtx(round, jobs int, deadline float64, tc obs.TraceContext) (core.RoundReport, error) {
	defer c.sink.Span(obs.SpanClientRound, traceLabels(tc)...)()
	c.roundSteps = 0
	rep, err := c.controller.RunRound(jobs, deadline, c.executor())
	if err != nil {
		return core.RoundReport{}, fmt.Errorf("fl: client %q round %d: %w", c.id, round, err)
	}
	c.totalEnergy += rep.Energy
	return rep, nil
}

// ConfigWindow runs the controller's between-round work (MBO) during the
// configuration/reporting window, as §4.3 prescribes.
func (c *Client) ConfigWindow() (core.MBOReport, error) {
	return c.ConfigWindowCtx(obs.TraceContext{})
}

// ConfigWindowCtx is ConfigWindow stamped with the propagated trace context.
func (c *Client) ConfigWindowCtx(tc obs.TraceContext) (core.MBOReport, error) {
	defer c.sink.Span(obs.SpanClientWindow, traceLabels(tc)...)()
	return c.controller.BetweenRounds()
}

// traceLabels turns a propagated context into span labels; an invalid or
// absent context contributes none, keeping untraced runs label-free.
func traceLabels(tc obs.TraceContext) []obs.Label {
	if !tc.Valid() {
		return nil
	}
	return tc.ChildLabels()
}

// Clock exposes the client's virtual clock (for harnesses that account
// elapsed simulated time).
func (c *Client) Clock() *simclock.Sim { return c.clock }
