package core

import (
	"encoding/json"
	"fmt"
	"io"

	"bofl/internal/mobo"
	"bofl/internal/obs"
)

// FL tasks run for hundreds to thousands of rounds (§6.2), far longer than an
// edge device stays up. Snapshot/Restore persist the controller's learned
// state — observations, phase, queue, hypervolume trace — so a restarted
// client resumes exploitation instead of re-paying the exploration phases.

// snapshotVersion guards the wire format.
const snapshotVersion = 1

// obsSnapshot is one configuration's aggregate observation.
type obsSnapshot struct {
	Index    int     `json:"index"`
	Jobs     int     `json:"jobs"`
	SumLat   float64 `json:"sumLatency"`
	SumE     float64 `json:"sumEnergy"`
	Duration float64 `json:"duration"`
}

// Snapshot is the controller's serializable state.
type Snapshot struct {
	Version       int           `json:"version"`
	Phase         Phase         `json:"phase"`
	Round         int           `json:"round"`
	Queue         []int         `json:"queue"`
	Observations  []obsSnapshot `json:"observations"`
	DeadlineSum   float64       `json:"deadlineSum"`
	DeadlineCount int           `json:"deadlineCount"`
	LastHV        float64       `json:"lastHV"`
	HaveHV        bool          `json:"haveHV"`
	SpaceSize     int           `json:"spaceSize"`
}

// Snapshot captures the controller's current state.
func (c *Controller) Snapshot() Snapshot {
	s := Snapshot{
		Version:       snapshotVersion,
		Phase:         c.phase,
		Round:         c.round,
		Queue:         append([]int(nil), c.queue...),
		DeadlineSum:   c.deadlineSum,
		DeadlineCount: c.deadlineCount,
		LastHV:        c.lastHV,
		HaveHV:        c.haveHV,
		SpaceSize:     len(c.candidates),
	}
	for _, a := range c.order {
		s.Observations = append(s.Observations, obsSnapshot{
			Index:    a.idx,
			Jobs:     a.jobs,
			SumLat:   a.sumLat,
			SumE:     a.sumE,
			Duration: a.duration,
		})
	}
	return s
}

// WriteSnapshot serializes the state as JSON.
func (c *Controller) WriteSnapshot(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(c.Snapshot()); err != nil {
		return fmt.Errorf("core: write snapshot: %w", err)
	}
	return nil
}

// Restore installs a snapshot into a freshly constructed controller (same
// space and options as the original). The exploration queue, phase and all
// observations are reinstated; the GP surrogates are rebuilt lazily on the
// next MBO run.
func (c *Controller) Restore(s Snapshot) error {
	if s.Version != snapshotVersion {
		return fmt.Errorf("core: snapshot version %d, want %d", s.Version, snapshotVersion)
	}
	if s.SpaceSize != len(c.candidates) {
		return fmt.Errorf("core: snapshot for a %d-point space, controller has %d", s.SpaceSize, len(c.candidates))
	}
	switch s.Phase {
	case PhaseRandomExplore, PhaseParetoConstruct, PhaseExploit:
	default:
		return fmt.Errorf("core: snapshot has invalid phase %d", s.Phase)
	}
	for _, q := range s.Queue {
		if q < 0 || q >= len(c.candidates) {
			return fmt.Errorf("core: snapshot queue index %d out of range", q)
		}
	}
	observed := make(map[int]*aggObs, len(s.Observations))
	order := make([]*aggObs, 0, len(s.Observations))
	var xmaxObs *aggObs
	dataset := make([]mobo.Observation, 0, len(s.Observations))
	for _, o := range s.Observations {
		if o.Index < 0 || o.Index >= len(c.candidates) {
			return fmt.Errorf("core: snapshot observation index %d out of range", o.Index)
		}
		if o.Jobs <= 0 || o.SumLat <= 0 || o.SumE < 0 {
			return fmt.Errorf("core: snapshot observation %d malformed", o.Index)
		}
		if _, dup := observed[o.Index]; dup {
			return fmt.Errorf("core: snapshot observes index %d twice", o.Index)
		}
		a := &aggObs{idx: o.Index, jobs: o.Jobs, sumLat: o.SumLat, sumE: o.SumE, duration: o.Duration}
		observed[o.Index] = a
		order = append(order, a)
		if o.Index == c.xmaxIdx {
			xmaxObs = a
		}
		dataset = append(dataset, mobo.Observation{
			Index:   o.Index,
			Energy:  a.meanEnergy(),
			Latency: a.meanLatency(),
		})
	}

	// Rebuild the MBO dataset from scratch on a fresh optimizer so a
	// partially-mutated controller is never left behind on error.
	optimizer, err := newSuggester(c.candidates, c.opts)
	if err != nil {
		return err
	}
	if len(dataset) > 0 {
		if err := optimizer.Observe(dataset...); err != nil {
			return err
		}
	}

	c.optimizer = optimizer
	c.pushSink()
	c.observed = observed
	c.order = order
	c.xmaxObs = xmaxObs
	c.phase = s.Phase
	c.round = s.Round
	c.queue = append([]int(nil), s.Queue...)
	c.deadlineSum = s.DeadlineSum
	c.deadlineCount = s.DeadlineCount
	c.lastHV = s.LastHV
	c.haveHV = s.HaveHV
	c.sink.SetGauge(obs.MetricControllerPhase, float64(c.phase))
	return nil
}

// ReadSnapshot deserializes a snapshot and installs it.
func (c *Controller) ReadSnapshot(r io.Reader) error {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return fmt.Errorf("core: read snapshot: %w", err)
	}
	return c.Restore(s)
}
