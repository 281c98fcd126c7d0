package main

import (
	"net/http"
	"sync/atomic"
	"time"

	"bofl/internal/core"
	"bofl/internal/device"
	"bofl/internal/fl"
	"bofl/internal/ml"
	"bofl/internal/obs"
)

// slot names one raw per-layer accumulator: nanoseconds for timings, bytes
// for volumes, plain counts otherwise. layerValues turns a snapshot of them
// into the reported per-layer metrics.
type slot int

const (
	sRound          slot = iota // PaceController.RunRound, executor included
	sBetween                    // PaceController.BetweenRounds
	sExplored                   // configurations newly explored (RoundReport.Explored)
	sExec                       // Executor.RunJob
	sJobs                       // Executor.RunJob calls
	sGPFit                      // bofl_gp_fit spans
	sGPFits                     //
	sScan                       // bofl_ehvi_scan spans
	sScans                      //
	sILP                        // bofl_ilp_solve spans
	sILPs                       //
	sClient                     // fl.Participant.Round
	sFoldWait                   // participant return → start of its Contribute
	sContribute                 // fl.Aggregator.Contribute
	sCommit                     // fl.Aggregator.Commit
	sSelect                     // fl_select span
	sConfigure                  // fl_configure span
	sExecute                    // fl_execute span
	sFold                       // fl_fold spans
	sReport                     // fl_report span
	sTierClose                  // fl_tier_fold spans
	sPartials                   // bofl_fl_partials_total
	sPartialBytes               // bofl_fl_wire_tx_bytes_total{codec="partial"}
	sHTTP                       // http.RoundTripper.RoundTrip to response headers
	sHandler                    // http.Handler.ServeHTTP around fl.ClientHandler
	sRequests                   // requests served by the handler
	sWireTx                     // bofl_fl_wire_tx_bytes_total from participants
	sWireRx                     // bofl_fl_wire_rx_bytes_total from participants
	sTrain                      // ml.Model.Gradients
	sSteps                      //
	sSinkCalls                  // every call into the benchmark's obs.Sink
	sLedgerEvents               // ledger appends
	sUpdate                     // fleet.UpdateFn
	sUpdateCalls                //
	sEngineCPU                  // process CPU time inside fleet.Engine.RunRound
	sFleetPartials              // fleet.RoundStats.Partials
	sFleetWire                  // fleet.RoundStats.WireBytes
	sFleetSurvivors             // fleet.RoundStats.Survivors
	sFleetClients               // fleet.RoundStats.Clients
	sFleetDrops                 // fleet.RoundStats.SubtreeDrops
	sFleetShards                // fleet.Engine.Shards
	numSlots
)

// probe accumulates per-layer time and counts while on. The wrappers below
// are installed only in traced runs; with the probe off they pass straight
// through, so traced and untraced iterations of one run can be interleaved.
type probe struct {
	on atomic.Bool
	v  [numSlots]atomic.Int64

	// returned[i] is when participant i last returned, in ns since base; the
	// aggregator wrapper reads it to time the fold wait. index maps client
	// ids to participant indices and is read-only once registered.
	base     time.Time
	index    map[string]int
	returned []atomic.Int64
}

func newProbe() *probe { return &probe{base: time.Now()} }

func (p *probe) add(s slot, d int64) { p.v[s].Add(d) }

func (p *probe) since(s slot, t0 time.Time) { p.v[s].Add(int64(time.Since(t0))) }

// take returns the accumulators and zeroes them.
func (p *probe) take() [numSlots]int64 {
	var out [numSlots]int64
	for i := range p.v {
		out[i] = p.v[i].Swap(0)
	}
	return out
}

// trackParticipants sizes the fold-wait bookkeeping for the given client ids,
// in registration order.
func (p *probe) trackParticipants(ids []string) {
	p.index = make(map[string]int, len(ids))
	for i, id := range ids {
		p.index[id] = i
	}
	p.returned = make([]atomic.Int64, len(ids))
}

// spanSink is the benchmark's obs.Sink: it sums the spans and counters the
// program already emits and forwards everything to next (nil drops it).
type spanSink struct {
	p    *probe
	next obs.Sink
}

var (
	_ obs.Sink             = (*spanSink)(nil)
	_ obs.SpanGrafter      = (*spanSink)(nil)
	_ obs.ExemplarObserver = (*spanSink)(nil)
)

func newSpanSink(p *probe, next obs.Sink) *spanSink {
	return &spanSink{p: p, next: obs.OrNop(next)}
}

func (s *spanSink) Count(name string, delta float64, labels ...obs.Label) {
	if s.p.on.Load() {
		s.p.add(sSinkCalls, 1)
		switch name {
		case obs.MetricFLPartials:
			s.p.add(sPartials, int64(delta))
		case obs.MetricFLWireTx:
			if label(labels, "codec") == "partial" {
				s.p.add(sPartialBytes, int64(delta))
			} else {
				s.p.add(sWireTx, int64(delta))
			}
		case obs.MetricFLWireRx:
			s.p.add(sWireRx, int64(delta))
		}
	}
	s.next.Count(name, delta, labels...)
}

func (s *spanSink) SetGauge(name string, v float64, labels ...obs.Label) {
	if s.p.on.Load() {
		s.p.add(sSinkCalls, 1)
	}
	s.next.SetGauge(name, v, labels...)
}

func (s *spanSink) Observe(name string, v float64, labels ...obs.Label) {
	if s.p.on.Load() {
		s.p.add(sSinkCalls, 1)
	}
	s.next.Observe(name, v, labels...)
}

func (s *spanSink) Event(name string, labels ...obs.Label) {
	if s.p.on.Load() {
		s.p.add(sSinkCalls, 1)
	}
	s.next.Event(name, labels...)
}

func (s *spanSink) Graft(ev obs.SpanEvent) {
	if s.p.on.Load() {
		s.p.add(sSinkCalls, 1)
	}
	if g, ok := s.next.(obs.SpanGrafter); ok {
		g.Graft(ev)
	}
}

func (s *spanSink) ObserveExemplar(name string, v float64, tc obs.TraceContext, labels ...obs.Label) {
	if s.p.on.Load() {
		s.p.add(sSinkCalls, 1)
	}
	if eo, ok := s.next.(obs.ExemplarObserver); ok {
		eo.ObserveExemplar(name, v, tc, labels...)
	} else {
		s.next.Observe(name, v, labels...)
	}
}

// spanSlots maps the spans the benchmark sums to their time and count slots
// (count slot -1: the span's count is not reported).
var spanSlots = map[string][2]slot{
	obs.SpanGPFit:       {sGPFit, sGPFits},
	obs.SpanEHVIScan:    {sScan, sScans},
	obs.SpanILPSolve:    {sILP, sILPs},
	obs.SpanFLSelect:    {sSelect, -1},
	obs.SpanFLConfigure: {sConfigure, -1},
	obs.SpanFLExecute:   {sExecute, -1},
	obs.SpanFLFold:      {sFold, -1},
	obs.SpanFLReport:    {sReport, -1},
	obs.SpanFLTierFold:  {sTierClose, -1},
}

func (s *spanSink) Span(name string, labels ...obs.Label) func() {
	end := s.next.Span(name, labels...)
	if !s.p.on.Load() {
		return end
	}
	s.p.add(sSinkCalls, 1)
	slots, ok := spanSlots[name]
	if !ok {
		return end
	}
	t0 := time.Now()
	return func() {
		s.p.since(slots[0], t0)
		if slots[1] >= 0 {
			s.p.add(slots[1], 1)
		}
		end()
	}
}

func label(labels []obs.Label, key string) string {
	for _, l := range labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// timedController wraps a core.PaceController, timing RunRound and
// BetweenRounds and the executor it is handed.
type timedController struct {
	p    *probe
	next core.PaceController
}

var _ core.PaceController = (*timedController)(nil)

func (c *timedController) RunRound(jobs int, deadline float64, exec core.Executor) (core.RoundReport, error) {
	if !c.p.on.Load() {
		return c.next.RunRound(jobs, deadline, exec)
	}
	t0 := time.Now()
	rep, err := c.next.RunRound(jobs, deadline, &timedExecutor{p: c.p, next: exec})
	c.p.since(sRound, t0)
	c.p.add(sExplored, int64(len(rep.Explored)))
	return rep, err
}

func (c *timedController) BetweenRounds() (core.MBOReport, error) {
	if !c.p.on.Load() {
		return c.next.BetweenRounds()
	}
	t0 := time.Now()
	rep, err := c.next.BetweenRounds()
	c.p.since(sBetween, t0)
	return rep, err
}

// timedExecutor wraps a core.Executor, timing every job.
type timedExecutor struct {
	p    *probe
	next core.Executor
}

func (e *timedExecutor) RunJob(cfg device.Config) (core.JobResult, error) {
	t0 := time.Now()
	res, err := e.next.RunJob(cfg)
	e.p.since(sExec, t0)
	e.p.add(sJobs, 1)
	return res, err
}

// timedParticipant wraps an fl.Participant, timing Round and stamping its
// return for the fold-wait measurement.
type timedParticipant struct {
	p    *probe
	idx  int
	next fl.Participant
}

var _ fl.Participant = (*timedParticipant)(nil)

func (t *timedParticipant) ID() string                        { return t.next.ID() }
func (t *timedParticipant) TMinFor(jobs int) (float64, error) { return t.next.TMinFor(jobs) }

func (t *timedParticipant) Round(req fl.RoundRequest) (fl.RoundResponse, error) {
	if !t.p.on.Load() {
		return t.next.Round(req)
	}
	t0 := time.Now()
	resp, err := t.next.Round(req)
	t1 := time.Now()
	t.p.add(sClient, int64(t1.Sub(t0)))
	t.p.returned[t.idx].Store(int64(t1.Sub(t.p.base)))
	return resp, err
}

// timedAggregator wraps an fl.Aggregator, timing Contribute and Commit.
type timedAggregator struct {
	p    *probe
	next fl.Aggregator
}

var _ fl.Aggregator = (*timedAggregator)(nil)

func (a *timedAggregator) Name() string                 { return a.next.Name() }
func (a *timedAggregator) ExtraDim(dim int) int         { return a.next.ExtraDim(dim) }
func (a *timedAggregator) Configure(r *fl.RoundRequest) { a.next.Configure(r) }

func (a *timedAggregator) Contribute(dst, global []float64, resp *fl.RoundResponse, jobs int) error {
	if !a.p.on.Load() {
		return a.next.Contribute(dst, global, resp, jobs)
	}
	t0 := time.Now()
	if i, ok := a.p.index[resp.ClientID]; ok {
		a.p.add(sFoldWait, int64(t0.Sub(a.p.base))-a.p.returned[i].Load())
	}
	err := a.next.Contribute(dst, global, resp, jobs)
	a.p.since(sContribute, t0)
	return err
}

func (a *timedAggregator) Commit(global, total []float64, jobs int) error {
	if !a.p.on.Load() {
		return a.next.Commit(global, total, jobs)
	}
	t0 := time.Now()
	err := a.next.Commit(global, total, jobs)
	a.p.since(sCommit, t0)
	return err
}

// timedHandler wraps the daemon's http.Handler.
type timedHandler struct {
	p    *probe
	next http.Handler
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.p.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	h.p.since(sHandler, t0)
	h.p.add(sRequests, 1)
}

// timedTransport wraps the participants' http.RoundTripper; a round trip is
// timed until the response headers arrive, which the daemon sends only once
// its handler has produced the whole response.
type timedTransport struct {
	p    *probe
	next http.RoundTripper
}

func (t *timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !t.p.on.Load() {
		return t.next.RoundTrip(r)
	}
	t0 := time.Now()
	resp, err := t.next.RoundTrip(r)
	t.p.since(sHTTP, t0)
	return resp, err
}

// timedModel wraps an ml.Model, timing gradient computation — the training
// step's compute.
type timedModel struct {
	ml.Model
	p *probe
}

func (m *timedModel) Gradients(batch []ml.Example) ([]float64, float64, error) {
	if !m.p.on.Load() {
		return m.Model.Gradients(batch)
	}
	t0 := time.Now()
	g, loss, err := m.Model.Gradients(batch)
	m.p.since(sTrain, t0)
	m.p.add(sSteps, 1)
	return g, loss, err
}
