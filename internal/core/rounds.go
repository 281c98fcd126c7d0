package core

import (
	"fmt"
	"time"

	"bofl/internal/obs"
)

// roundState tracks the budget of one in-flight round.
type roundState struct {
	remaining int     // jobs left
	timeLeft  float64 // seconds until the deadline
	energy    float64
	duration  float64
	explored  []int
	exec      Executor
}

// runJob executes one job under the configuration at flat index idx and
// charges the round's budgets.
func (c *Controller) runJob(rs *roundState, idx int) (JobResult, error) {
	cfg, err := c.space.Config(idx)
	if err != nil {
		return JobResult{}, err
	}
	res, err := rs.exec.RunJob(cfg)
	if err != nil {
		return JobResult{}, fmt.Errorf("core: job under %+v: %w", cfg, err)
	}
	if res.Latency <= 0 || res.Energy < 0 {
		return JobResult{}, fmt.Errorf("core: implausible job result %+v", res)
	}
	rs.remaining--
	rs.timeLeft -= res.Latency
	rs.duration += res.Latency
	rs.energy += res.Energy
	return res, nil
}

// guardianOK implements the deadline guardian check before exploring an
// unknown configuration (Eqn. 2, hardened): even if the exploration runs for
// τ seconds plus one worst-case job at the unknown configuration, the
// remaining jobs must still fit under x_max with the safety margin applied.
func (c *Controller) guardianOK(rs *roundState) bool {
	if c.opts.DisableGuardian {
		return true
	}
	tx := c.txmax()
	if tx <= 0 {
		// x_max itself has not been measured; only x_max exploration
		// is allowed (handled by the caller).
		return false
	}
	worstFirstJob := c.opts.FirstJobSlowdown * tx
	budget := rs.timeLeft - c.opts.Tau - worstFirstJob
	// At least one job completes during the exploration window, so only
	// remaining−1 jobs are left for the fallback sprint.
	need := float64(rs.remaining-1) * tx * c.opts.Safety
	return budget >= need
}

// drainAtXmax runs every remaining job at the guardian configuration.
func (c *Controller) drainAtXmax(rs *roundState) error {
	for rs.remaining > 0 {
		res, err := c.runJob(rs, c.xmaxIdx)
		if err != nil {
			return err
		}
		if err := c.observe(c.xmaxIdx, 1, res.Latency, res.Energy); err != nil {
			return err
		}
	}
	return nil
}

// explore runs jobs under candidate idx until it has been observed for at
// least τ seconds (at least one job), stopping early if jobs run out or the
// per-job guardian would be violated by another slow job.
func (c *Controller) explore(rs *roundState, idx int) error {
	jobs := 0
	var sumLat, sumE float64
	for rs.remaining > 0 {
		res, err := c.runJob(rs, idx)
		if err != nil {
			return err
		}
		jobs++
		sumLat += res.Latency
		sumE += res.Energy
		if sumLat >= c.opts.Tau {
			break
		}
		// Inner guardian: another job at this configuration must leave
		// the fallback sprint feasible.
		perJob := sumLat / float64(jobs)
		tx := c.txmax()
		if tx > 0 && idx != c.xmaxIdx && !c.opts.DisableGuardian {
			future := rs.timeLeft - perJob*c.opts.Safety
			need := float64(rs.remaining-1) * tx * c.opts.Safety
			if future < need {
				break
			}
		}
	}
	if jobs == 0 {
		return nil
	}
	rs.explored = append(rs.explored, idx)
	return c.observe(idx, jobs, sumLat, sumE)
}

// RunRound executes one FL round: `jobs` minibatches before `deadline`
// seconds elapse. It implements the safe exploration algorithm of Figure 7 in
// phases 1–2 and pure exploitation in phase 3.
func (c *Controller) RunRound(jobs int, deadline float64, exec Executor) (RoundReport, error) {
	if jobs <= 0 {
		return RoundReport{}, ErrNoJobs
	}
	if deadline <= 0 {
		return RoundReport{}, fmt.Errorf("core: non-positive deadline %v", deadline)
	}
	c.round++
	rs := &roundState{remaining: jobs, timeLeft: deadline, exec: exec}
	endRound := c.sink.Span(obs.SpanRound, obs.L("phase", c.phase.String()))
	defer endRound()

	switch c.phase {
	case PhaseExploit:
		if err := c.exploitRemaining(rs); err != nil {
			return RoundReport{}, err
		}
	default:
		if err := c.runExplorationRound(rs); err != nil {
			return RoundReport{}, err
		}
		c.deadlineSum += deadline
		c.deadlineCount++
		if c.phase == PhaseRandomExplore && len(c.queue) == 0 {
			c.setPhase(PhaseParetoConstruct)
		}
	}

	report := RoundReport{
		Round:       c.round,
		Phase:       c.phase,
		Jobs:        jobs,
		Deadline:    deadline,
		Duration:    rs.duration,
		Energy:      rs.energy,
		DeadlineMet: rs.duration <= deadline,
		Explored:    rs.explored,
		FrontSize:   len(c.frontPositions()),
	}
	c.recordRound(report)
	return report, nil
}

// runExplorationRound implements Figure 7 for phases 1 and 2.
func (c *Controller) runExplorationRound(rs *roundState) error {
	// The guardian configuration must be measured before anything else —
	// both on the very first round and after a drift re-adaptation
	// invalidated the old measurement.
	if c.txmax() <= 0 || c.remeasureXmax {
		c.remeasureXmax = false
		if len(c.queue) > 0 && c.queue[0] == c.xmaxIdx {
			c.queue = c.queue[1:]
		}
		if err := c.explore(rs, c.xmaxIdx); err != nil {
			return err
		}
	}
	for rs.remaining > 0 {
		if len(c.queue) == 0 {
			// Candidates exhausted: last-round exploitation (§4.2).
			return c.exploitRemaining(rs)
		}
		if !c.guardianOK(rs) {
			// Too risky to keep exploring: sprint to the deadline.
			return c.drainAtXmax(rs)
		}
		idx := c.queue[0]
		c.queue = c.queue[1:]
		if _, seen := c.observed[idx]; seen && idx != c.xmaxIdx {
			continue // duplicate suggestion
		}
		if err := c.explore(rs, idx); err != nil {
			return err
		}
	}
	if c.phase == PhaseParetoConstruct {
		// Unexplored suggestions are stale after the round (§4.3,
		// training round execution details).
		c.queue = nil
	}
	return nil
}

// BetweenRounds runs the controller's off-critical-path work: in the Pareto
// construction phase it refits the surrogates, evaluates the stopping
// condition and produces the next round's suggestion batch. In other phases
// it is a no-op. This is where the MBO overhead of Figure 13 accrues.
func (c *Controller) BetweenRounds() (MBOReport, error) {
	if c.phase != PhaseParetoConstruct {
		return MBOReport{}, nil
	}
	start := time.Now()
	endMBO := c.sink.Span(obs.SpanMBO)
	defer endMBO()
	c.sink.Count(obs.MetricMBORuns, 1)

	hv, err := c.hypervolume()
	if err != nil {
		return MBOReport{}, err
	}
	gain := 1.0
	if c.haveHV && c.lastHV > 0 {
		gain = (hv - c.lastHV) / c.lastHV
	}
	c.lastHV, c.haveHV = hv, true
	c.sink.SetGauge(obs.MetricHypervolume, hv)

	exploredFrac := float64(len(c.observed)) / float64(len(c.candidates))
	if exploredFrac >= c.opts.MinExploredFrac && gain < c.opts.HVGainThreshold {
		c.setPhase(PhaseExploit)
		return MBOReport{
			Ran:                 true,
			WallTime:            time.Since(start),
			Hypervolume:         hv,
			HVGain:              gain,
			StoppedConstruction: true,
		}, nil
	}

	k := c.batchSize()
	sugg, err := c.optimizer.SuggestBatch(k)
	if err != nil {
		return MBOReport{}, err
	}
	c.sink.Count(obs.MetricMBOSuggestions, float64(len(sugg)))
	c.queue = c.queue[:0]
	for _, s := range sugg {
		c.queue = append(c.queue, s.Index)
	}
	return MBOReport{
		Ran:             true,
		WallTime:        time.Since(start),
		SuggestionCount: len(sugg),
		Hypervolume:     hv,
		HVGain:          gain,
	}, nil
}

// batchSize computes K = T_avg/τ clamped to [1, MaxBatch] (§4.3).
func (c *Controller) batchSize() int {
	if c.deadlineCount == 0 {
		return 1
	}
	tavg := c.deadlineSum / float64(c.deadlineCount)
	k := int(tavg / c.opts.Tau)
	if k < 1 {
		k = 1
	}
	if k > c.opts.MaxBatch {
		k = c.opts.MaxBatch
	}
	return k
}
