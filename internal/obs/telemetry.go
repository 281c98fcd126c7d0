package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// Telemetry is the live Sink: metrics land in Registry, spans and events in
// Tracer, both timed by one Clock. The zero value is not usable; construct
// with New.
type Telemetry struct {
	Registry *Registry
	Tracer   *Tracer
	clock    Clock
	started  time.Time

	// histBuckets maps metric family → bucket bounds used on first
	// registration; families not listed use DurationBuckets.
	histBuckets map[string][]float64

	// spanHists caches span name → its "_seconds" histogram so the
	// per-attempt dispatch path skips the name concatenation and registry
	// lookup on every span close.
	spanHists sync.Map
}

var _ Sink = (*Telemetry)(nil)

// New builds a Telemetry around a fresh registry and tracer. clock nil means
// the wall clock.
func New(clock Clock) *Telemetry {
	if clock == nil {
		clock = Real{}
	}
	return &Telemetry{
		Registry:    NewRegistry(),
		Tracer:      NewTracer(clock),
		clock:       clock,
		started:     clock.Now(),
		histBuckets: make(map[string][]float64),
	}
}

// Clock returns the telemetry's time source.
func (t *Telemetry) Clock() Clock { return t.clock }

// SetBuckets pins the bucket bounds used when the named histogram family is
// first observed. Must be called before the first Observe of that family.
func (t *Telemetry) SetBuckets(name string, buckets []float64) {
	t.histBuckets[name] = buckets
}

func (t *Telemetry) buckets(name string) []float64 {
	if b, ok := t.histBuckets[name]; ok {
		return b
	}
	return DurationBuckets
}

// Count adds delta to the named counter.
func (t *Telemetry) Count(name string, delta float64, labels ...Label) {
	t.Registry.Counter(name, "", labels...).Add(delta)
}

// SetGauge sets the named gauge.
func (t *Telemetry) SetGauge(name string, v float64, labels ...Label) {
	t.Registry.Gauge(name, "", labels...).Set(v)
}

// Observe records v into the named histogram.
func (t *Telemetry) Observe(name string, v float64, labels ...Label) {
	t.Registry.Histogram(name, "", t.buckets(name), labels...).Observe(v)
}

// Span opens a timed span. Closing it records a trace event plus an
// observation in the label-free histogram name+"_seconds", so every span
// taxonomy entry doubles as a Prometheus duration series.
func (t *Telemetry) Span(name string, labels ...Label) func() {
	start := t.clock.Now()
	return func() {
		end := t.clock.Now()
		d := end.Sub(start)
		t.Tracer.add(SpanEvent{
			Name:   name,
			Start:  start.Sub(t.Tracer.epoch).Nanoseconds(),
			Dur:    d.Nanoseconds(),
			Labels: labels,
		})
		t.spanHist(name).Observe(d.Seconds())
	}
}

// spanHist resolves (and caches) the duration histogram backing a span name.
func (t *Telemetry) spanHist(name string) *Histogram {
	if h, ok := t.spanHists.Load(name); ok {
		return h.(*Histogram)
	}
	hn := name + "_seconds"
	h := t.Registry.Histogram(hn, "", t.buckets(hn))
	t.spanHists.Store(name, h)
	return h
}

// Event records an instant trace event.
func (t *Telemetry) Event(name string, labels ...Label) {
	t.Tracer.Instant(name, labels...)
}

// Graft appends a pre-timed span event (a client-side span summary) to the
// tracer, implementing SpanGrafter.
func (t *Telemetry) Graft(ev SpanEvent) { t.Tracer.Graft(ev) }

var _ SpanGrafter = (*Telemetry)(nil)

// ObserveExemplar records v into the named histogram and, when tc is valid,
// pins it as the family's exemplar plus an instant "exemplar" event in the
// trace buffer — the jump link from a histogram outlier to its stitched round
// trace in /v1/telemetry.
func (t *Telemetry) ObserveExemplar(name string, v float64, tc TraceContext, labels ...Label) {
	h := t.Registry.Histogram(name, "", t.buckets(name), labels...)
	h.Observe(v)
	if !tc.Valid() {
		return
	}
	// One exemplar pin and one instant event per (family, trace), not per
	// observation: a round's reports all share one trace, so the family keeps
	// the trace's first sample and a per-report update would only churn
	// allocations (and the trace buffer) at fleet scale.
	if prev, had := h.Exemplar(); had && prev.TraceID == tc.TraceID {
		return
	}
	h.SetExemplar(v, tc.TraceID)
	t.Tracer.Instant(EventExemplar,
		L("metric", name), L("value", formatValue(v)), L(LabelTraceID, tc.TraceID))
}

var _ ExemplarObserver = (*Telemetry)(nil)

// healthState is the /healthz payload.
type healthState struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
	TraceEvents   int     `json:"traceEvents"`
	TraceDropped  uint64  `json:"traceDropped"`
}

// HealthzHandler reports liveness plus basic telemetry self-state.
func (t *Telemetry) HealthzHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(healthState{
			Status:        "ok",
			UptimeSeconds: t.clock.Now().Sub(t.started).Seconds(),
			TraceEvents:   t.Tracer.Len(),
			TraceDropped:  t.Tracer.Dropped(),
		})
	})
}

// TraceHandler serves the trace buffer: JSONL by default (one SpanEvent per
// line), or Chrome trace_event JSON with ?format=chrome for direct loading in
// about:tracing / Perfetto. ?trace_id=<id> narrows the export to one stitched
// distributed trace (e.g. a single FL round across server and clients).
func (t *Telemetry) TraceHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var events []SpanEvent
		if id := r.URL.Query().Get(LabelTraceID); id != "" {
			events = t.Tracer.EventsFor(id)
		} else {
			events = t.Tracer.Events()
		}
		if r.URL.Query().Get("format") == "chrome" {
			w.Header().Set("Content-Type", "application/json")
			_ = WriteEventsChrome(w, events)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = WriteEventsJSONL(w, events)
	})
}

// Mount registers the standard introspection endpoints on mux: GET /metrics
// (Prometheus text), GET /healthz, and GET /v1/telemetry (trace export).
func (t *Telemetry) Mount(mux *http.ServeMux) {
	mux.Handle("GET /metrics", t.Registry.Handler())
	mux.Handle("GET /healthz", t.HealthzHandler())
	mux.Handle("GET /v1/telemetry", t.TraceHandler())
}

// RegisterPprof wires net/http/pprof onto mux under /debug/pprof/ without
// touching http.DefaultServeMux.
func RegisterPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// ServePprof starts a background HTTP server exposing only pprof on addr —
// the batch binaries' -pprof flag — with NewServer's listener timeouts.
// Errors after startup are dropped: profiling must never take a run down.
func ServePprof(addr string) {
	mux := http.NewServeMux()
	RegisterPprof(mux)
	go func() { _ = NewServer(addr, mux).ListenAndServe() }()
}
