package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"bofl/internal/core"
	"bofl/internal/device"
	"bofl/internal/fl"
	"bofl/internal/ml"
	"bofl/internal/obs"
	"bofl/internal/obs/ledger"
)

// Shape of the round-http federation.
const (
	httpInputs   = 32 // MLP 32 → 256 → 32: 16,672 parameters
	httpHidden   = 256
	httpClasses  = 32
	httpExamples = 128 // per client
	httpBatch    = 16
	httpJobs     = 8 // minibatch jobs per client per round
	// The live sink's trace buffer and the ledger's ring hold fewer events
	// than one round produces, so the set-up iteration fills both and the
	// live heap does not grow with the number of rounds a run fits in.
	httpTraceEvents  = 16
	httpLedgerEvents = 4
)

// httpWorkload is fl.Server with a fanout-2 aggregation tree, a live
// obs.NewBoFL sink and a round ledger, as flserver -admin runs it, serving
// loopback daemons that run the production fl.ClientHandler around
// fl.Clients. Each client trains an ml MLP under a core.Performant pace
// controller, so the work per round is stationary. One iteration is one round.
type httpWorkload struct {
	srv     *fl.Server
	daemons []*httptest.Server
	live    *obs.Telemetry
	led     *ledger.Ledger
	pr      *probe
	rt      *http.Transport // traced runs' base transport
	clients int
}

// noiseFree makes every client's meter report the model's exact cost, so
// the round energy is a fixed outcome of the seed.
var noiseFree = device.NoiseModel{RefDuration: 5, MaxInflation: 1}

// httpData generates the global model and each client's local data from the
// seed.
func httpData(seed int64, clients int) ([]float64, [][]ml.Example, error) {
	global, err := ml.NewMLP(httpInputs, httpHidden, httpClasses, seed)
	if err != nil {
		return nil, nil, err
	}
	examples, err := ml.Blobs(clients*httpExamples, httpInputs, httpClasses, 1.0, seed+1)
	if err != nil {
		return nil, nil, err
	}
	shards, err := ml.Partition(examples, clients)
	if err != nil {
		return nil, nil, err
	}
	return append([]float64(nil), global.Params()...), shards, nil
}

func newRoundHTTP(seed int64, clients int, pr *probe) (_ *httpWorkload, err error) {
	params, shards, err := httpData(seed, clients)
	if err != nil {
		return nil, err
	}
	w := &httpWorkload{led: ledger.New(httpLedgerEvents), pr: pr, clients: clients}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	live := obs.NewBoFL(obs.Real{})
	live.Tracer.SetMaxEvents(httpTraceEvents)
	w.live = live
	var sink obs.Sink = live
	var agg fl.Aggregator = fl.FedAvg{}
	if pr != nil {
		sink = newSpanSink(pr, live)
		agg = &timedAggregator{p: pr, next: agg}
		w.rt = http.DefaultTransport.(*http.Transport).Clone()
		w.rt.MaxIdleConnsPerHost = 64
	}
	w.srv, err = fl.NewServer(fl.ServerConfig{
		InitialParams: params,
		Jobs:          httpJobs,
		DeadlineRatio: 2,
		Seed:          seed,
		Tree:          &fl.TreeConfig{Fanout: 2},
		Ledger:        w.led,
		Aggregator:    agg,
	})
	if err != nil {
		return nil, err
	}
	w.srv.SetSink(sink)
	dev := device.JetsonAGX()
	ids := make([]string, clients)
	for i := range ids {
		model, err := ml.NewMLP(httpInputs, httpHidden, httpClasses, seed+int64(i)+2)
		if err != nil {
			return nil, err
		}
		perf, err := core.NewPerformant(dev.Space())
		if err != nil {
			return nil, err
		}
		var m ml.Model = model
		var pc core.PaceController = perf
		if pr != nil {
			m = &timedModel{Model: model, p: pr}
			pc = &timedController{p: pr, next: perf}
		}
		c, err := fl.NewClient(fl.ClientConfig{
			ID: fmt.Sprintf("daemon-%d", i), Device: dev, Workload: device.ViT,
			Model: m, Data: shards[i], BatchSize: httpBatch, LearnRate: 0.05,
			Controller: pc, Noise: noiseFree, Seed: seed + int64(i) + 1000,
		})
		if err != nil {
			return nil, err
		}
		var h http.Handler = fl.NewClientHandler(c)
		if pr != nil {
			h = &timedHandler{p: pr, next: h}
		}
		ts := httptest.NewServer(h)
		w.daemons = append(w.daemons, ts)
		p, err := fl.DialParticipant(ts.URL, 30*time.Second)
		if err != nil {
			return nil, err
		}
		if p.Codec() != fl.CodecBinary {
			return nil, fmt.Errorf("round-http: %s negotiated codec %q, want %q", p.ID(), p.Codec(), fl.CodecBinary)
		}
		p.SetSink(sink)
		ids[i] = p.ID()
		if pr != nil {
			p.SetTransport(&timedTransport{p: pr, next: w.rt})
			w.srv.Register(&timedParticipant{p: pr, idx: i, next: p})
		} else {
			w.srv.Register(p)
		}
	}
	if pr != nil {
		pr.trackParticipants(ids)
	}
	return w, nil
}

func (w *httpWorkload) iterate(int) (outcome, error) {
	events := w.led.Len() + int(w.led.Evicted())
	res, err := w.srv.RunRound()
	if err != nil {
		return outcome{}, err
	}
	if w.pr != nil && w.pr.on.Load() {
		w.pr.add(sLedgerEvents, int64(w.led.Len()+int(w.led.Evicted())-events))
	}
	if len(res.Responses) != w.clients || len(res.Dropped) != 0 {
		return outcome{}, fmt.Errorf("round-http: round %d committed %d of %d clients (%d dropped)",
			res.Round, len(res.Responses), w.clients, len(res.Dropped))
	}
	out := outcome{scheduled: w.clients}
	for _, r := range res.Reports {
		out.energyJ += r.Energy
		if !r.DeadlineMet {
			out.missed++
		}
	}
	return out, nil
}

// check requires the set-up iteration to have filled the trace buffer and
// the ledger's ring. The binary codec is checked at construction, and every
// round must commit all clients.
func (w *httpWorkload) check(outcome) error {
	if w.live.Tracer.Dropped() == 0 || w.led.Evicted() == 0 {
		return fmt.Errorf("round-http: a round left the trace buffer (%d events) or the ledger (%d) short of full",
			w.live.Tracer.Len(), w.led.Len())
	}
	return nil
}

func (w *httpWorkload) close() {
	for _, ts := range w.daemons {
		ts.Close()
	}
	if w.rt != nil {
		w.rt.CloseIdleConnections()
	}
}
