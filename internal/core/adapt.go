package core

import (
	"math"

	"bofl/internal/mobo"
	"bofl/internal/obs"
)

// Adaptive re-exploration (extension): the paper assumes T(x) and E(x) are
// stationary, which holds on bench-mounted boards over short tasks, but
// thermal throttling, background load or battery management shift the
// landscape over long FL deployments. With Options.DriftThreshold set, the
// controller tracks a recent-window estimate of each configuration's latency
// next to its lifetime mean; when the two diverge persistently during
// exploitation, the stale statistics are recalibrated by the observed drift
// ratio and the controller drops back into Pareto construction so the MBO can
// re-map the changed landscape.

// driftEWMAAlpha weights the recent-window latency estimate.
const driftEWMAAlpha = 0.3

// minJobsForDrift is how many jobs a configuration needs before its drift
// estimate is trusted.
const minJobsForDrift = 8

// updateDrift refreshes the config's recent-latency window and reports
// whether it has diverged from the lifetime mean beyond the threshold.
func (c *Controller) updateDrift(a *aggObs, perJobLat float64) bool {
	if !a.ewmaInit {
		a.ewmaLat = perJobLat
		a.ewmaInit = true
		return false
	}
	a.ewmaLat = driftEWMAAlpha*perJobLat + (1-driftEWMAAlpha)*a.ewmaLat
	if c.opts.DriftThreshold <= 0 || c.phase != PhaseExploit || a.jobs < minJobsForDrift {
		return false
	}
	ratio := a.ewmaLat / a.meanLatency()
	return ratio > 1+c.opts.DriftThreshold || ratio < 1/(1+c.opts.DriftThreshold)
}

// readapt recalibrates every stored observation by the drift ratio observed
// on the triggering configuration and re-enters the Pareto construction
// phase. The MBO dataset is rebuilt from the recalibrated means.
func (c *Controller) readapt(trigger *aggObs) error {
	ratio := trigger.ewmaLat / trigger.meanLatency()

	dataset := make([]mobo.Observation, 0, len(c.order))
	for _, a := range c.order {
		// Configurations with a *recent* window of their own use it;
		// the rest — including ones whose window is a relic of the
		// previous regime — are scaled by the global drift estimate.
		newLat := a.meanLatency() * ratio
		if a.ewmaInit && a.jobs >= minJobsForDrift && a.lastRound >= c.round-1 {
			newLat = a.ewmaLat
		}
		scale := newLat / a.meanLatency()
		a.sumLat = newLat * float64(a.jobs)
		// Energy scales with the square root of a thermal slowdown
		// (static power burns for the extra time while dynamic power
		// falls); lacking a fresh energy window, apply that model.
		a.sumE *= sqrtScale(scale)
		a.ewmaLat = newLat
		dataset = append(dataset, mobo.Observation{
			Index:   a.idx,
			Energy:  a.meanEnergy(),
			Latency: a.meanLatency(),
		})
	}

	optimizer, err := newSuggester(c.candidates, c.opts)
	if err != nil {
		return err
	}
	if err := optimizer.Observe(dataset...); err != nil {
		return err
	}
	c.optimizer = optimizer
	c.pushSink()
	c.setPhase(PhaseParetoConstruct)
	c.haveHV = false
	c.lastHV = 0
	c.queue = nil
	c.readapts++
	c.sink.Count(obs.MetricReadapts, 1)
	// The guardian's budget math is only as good as T(x_max); re-measure
	// it first thing next round.
	c.remeasureXmax = true
	return nil
}

func sqrtScale(s float64) float64 {
	if s <= 0 {
		return 1
	}
	return math.Sqrt(s)
}

// Readapts reports how many drift-triggered re-explorations have occurred.
func (c *Controller) Readapts() int { return c.readapts }
