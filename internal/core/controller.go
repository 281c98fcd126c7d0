// Package core implements the BoFL training-pace controller — the paper's
// primary contribution (§4). The controller runs on an FL client and decides,
// job by job, which DVFS configuration to train the next minibatch under, so
// that every round's deadline is met while total energy is minimized.
//
// It operates in three phases across the FL task's rounds:
//
//  1. Safe random exploration (§4.2): quasi-random starting points are tried
//     under a deadline-guardian policy that can always fall back to x_max.
//  2. Pareto-front construction (§4.3): a multi-objective Bayesian optimizer
//     proposes batches of configurations between rounds; suggestions are
//     explored with the same safe-exploration algorithm.
//  3. Exploitation (§4.4): the remaining rounds run blends of Pareto-optimal
//     configurations computed by an exact branch-and-bound ILP.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"bofl/internal/device"
	"bofl/internal/ilp"
	"bofl/internal/mobo"
	"bofl/internal/obs"
	"bofl/internal/pareto"
)

// JobResult is the measured cost of training one minibatch.
type JobResult struct {
	Latency float64 // seconds
	Energy  float64 // Joules
}

// Executor runs one training job (one minibatch of SGD) under a DVFS
// configuration and reports its measured cost. Implementations actuate the
// DVFS backend, train, and read the power sensor.
type Executor interface {
	RunJob(cfg device.Config) (JobResult, error)
}

// ExecutorFunc adapts a function to the Executor interface.
type ExecutorFunc func(cfg device.Config) (JobResult, error)

// RunJob calls f.
func (f ExecutorFunc) RunJob(cfg device.Config) (JobResult, error) { return f(cfg) }

// Phase identifies the controller's operating phase.
type Phase int

// The three phases of Figure 6.
const (
	PhaseRandomExplore Phase = iota + 1
	PhaseParetoConstruct
	PhaseExploit
)

// String returns the phase name.
func (p Phase) String() string {
	switch p {
	case PhaseRandomExplore:
		return "random-explore"
	case PhaseParetoConstruct:
		return "pareto-construct"
	case PhaseExploit:
		return "exploit"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// PaceController is the interface shared by BoFL and the comparison
// controllers (Performant, Oracle, …). RunRound executes one FL round's jobs;
// BetweenRounds runs in the configuration/reporting window between rounds
// (where BoFL schedules its MBO computation to keep it off the critical path,
// §4.3).
type PaceController interface {
	RunRound(jobs int, deadline float64, exec Executor) (RoundReport, error)
	BetweenRounds() (MBOReport, error)
}

// RoundReport summarizes one executed round.
type RoundReport struct {
	Round       int     `json:"round"`
	Phase       Phase   `json:"phase"`
	Jobs        int     `json:"jobs"`
	Deadline    float64 `json:"deadlineSeconds"`
	Duration    float64 `json:"durationSeconds"`
	Energy      float64 `json:"energyJoules"`
	DeadlineMet bool    `json:"deadlineMet"`
	// Explored lists the candidate indices newly observed this round.
	Explored []int `json:"explored"`
	// FrontSize is the observed Pareto-front size after the round.
	FrontSize int `json:"frontSize"`
}

// MBOReport summarizes one between-round MBO computation.
type MBOReport struct {
	Ran             bool          `json:"ran"`
	WallTime        time.Duration `json:"wallTime"`
	SuggestionCount int           `json:"suggestionCount"`
	Hypervolume     float64       `json:"hypervolume"`
	HVGain          float64       `json:"hvGain"`
	// StoppedConstruction is true when this call decided the Pareto
	// construction phase is over.
	StoppedConstruction bool `json:"stoppedConstruction"`
}

// Options configures the BoFL controller. The zero value of each field
// selects the paper's default.
type Options struct {
	// Tau is the reference measurement duration τ in seconds (default 5):
	// a configuration keeps receiving jobs until it has run this long.
	Tau float64
	// StartFrac is the fraction of the space sampled as quasi-random
	// starting points in phase 1 (default 0.01).
	StartFrac float64
	// MinStartPoints floors the number of starting points (default 8).
	MinStartPoints int
	// MinExploredFrac is the fraction of the space that must be explored
	// before Pareto construction may stop (default 0.03).
	MinExploredFrac float64
	// HVGainThreshold stops construction once the relative hypervolume
	// gain of an MBO round drops below it (default 0.01).
	HVGainThreshold float64
	// MaxBatch caps the MBO suggestion batch size (default 10).
	MaxBatch int
	// Safety inflates predicted job times in feasibility checks to absorb
	// measurement noise (default 1.05).
	Safety float64
	// FirstJobSlowdown bounds how much slower than x_max a single job at a
	// never-observed configuration can be; the deadline guardian budgets
	// this for the first job of each exploration (default 12).
	FirstJobSlowdown float64
	// Seed drives the quasi-random design and the MBO's restarts.
	Seed int64
	// MBORestarts / MBOIters bound the GP hyperparameter search per MBO
	// run (defaults 3 / 8 — the MBO must fit in the reporting window).
	MBORestarts int
	MBOIters    int
	// Acquisition selects the multi-objective strategy: AcqEHVI (the
	// paper's choice, default) or AcqParEGO (scalarization ablation).
	Acquisition Acquisition
	// DriftThreshold enables adaptive re-exploration (extension): when an
	// exploited configuration's recent latency diverges from its learned
	// mean by more than this relative amount (e.g. 0.2 for 20%), all
	// statistics are recalibrated and Pareto construction restarts. Zero
	// disables drift detection (the paper's stationary setting).
	DriftThreshold float64
	// DisableGuardian turns off the deadline-guardian checks during
	// exploration. ABLATION ONLY: it exists to quantify how many deadline
	// misses the guardian prevents (§4.2); never set it in production.
	DisableGuardian bool
}

// Acquisition names a multi-objective suggestion strategy.
type Acquisition string

// Supported acquisition strategies.
const (
	AcqEHVI   Acquisition = "ehvi"
	AcqParEGO Acquisition = "parego"
)

// suggester is the slice of the MBO machinery the controller depends on.
type suggester interface {
	Observe(obs ...mobo.Observation) error
	SuggestBatch(k int) ([]mobo.Suggestion, error)
}

func (o Options) withDefaults() Options {
	if o.Tau == 0 {
		o.Tau = 5
	}
	if o.StartFrac == 0 {
		o.StartFrac = 0.01
	}
	if o.MinStartPoints == 0 {
		o.MinStartPoints = 8
	}
	if o.MinExploredFrac == 0 {
		o.MinExploredFrac = 0.03
	}
	if o.HVGainThreshold == 0 {
		o.HVGainThreshold = 0.01
	}
	if o.MaxBatch == 0 {
		o.MaxBatch = 10
	}
	if o.Safety == 0 {
		o.Safety = 1.05
	}
	if o.FirstJobSlowdown == 0 {
		o.FirstJobSlowdown = 12
	}
	if o.MBORestarts == 0 {
		o.MBORestarts = 3
	}
	if o.MBOIters == 0 {
		o.MBOIters = 8
	}
	if o.Acquisition == "" {
		o.Acquisition = AcqEHVI
	}
	return o
}

func (o Options) validate() error {
	if o.Tau <= 0 {
		return fmt.Errorf("core: tau %v must be positive", o.Tau)
	}
	if o.StartFrac <= 0 || o.StartFrac > 1 {
		return fmt.Errorf("core: start fraction %v out of (0,1]", o.StartFrac)
	}
	if o.Safety < 1 {
		return fmt.Errorf("core: safety factor %v must be ≥ 1", o.Safety)
	}
	if o.FirstJobSlowdown < 1 {
		return fmt.Errorf("core: first-job slowdown bound %v must be ≥ 1", o.FirstJobSlowdown)
	}
	switch o.Acquisition {
	case AcqEHVI, AcqParEGO:
	default:
		return fmt.Errorf("core: unknown acquisition %q", o.Acquisition)
	}
	return nil
}

// aggObs accumulates repeated measurements of one configuration.
type aggObs struct {
	idx      int // candidate index
	jobs     int
	sumLat   float64
	sumE     float64
	duration float64
	// ewmaLat is the recent-window latency estimate for drift detection;
	// lastRound records when it was last refreshed so stale windows are
	// never mistaken for fresh ones.
	ewmaLat   float64
	ewmaInit  bool
	lastRound int
}

// predLatency is the latency estimate used for planning: the lifetime mean,
// bumped up by the recent window when that window is higher. Under upward
// drift (throttling) this makes plans pessimistic, which converts drift into
// early fallbacks instead of deadline misses.
func (a *aggObs) predLatency() float64 {
	m := a.meanLatency()
	if a.ewmaInit && a.ewmaLat > m {
		return a.ewmaLat
	}
	return m
}

func (a *aggObs) meanLatency() float64 { return a.sumLat / float64(a.jobs) }
func (a *aggObs) meanEnergy() float64  { return a.sumE / float64(a.jobs) }

// point is the mean observation as an (energy, latency) point.
func (a *aggObs) point() pareto.Point {
	return pareto.Point{X: a.meanEnergy(), Y: a.meanLatency()}
}

// Controller is the BoFL pace controller for one device and one FL task.
type Controller struct {
	opts  Options
	space device.Space

	candidates [][]float64 // normalized coordinates per flat index
	optimizer  suggester

	phase    Phase
	round    int
	queue    []int // candidate indices awaiting exploration
	xmaxIdx  int
	xmaxObs  *aggObs
	observed map[int]*aggObs
	// order holds the observed configurations in first-observation order,
	// the order they entered the optimizer. Everything that walks the
	// observations walks this list, so datasets, snapshots, fronts and
	// figures never depend on map iteration order.
	order []*aggObs

	deadlineSum   float64 // for T_avg over phase-1 rounds
	deadlineCount int
	lastHV        float64
	haveHV        bool
	readapts      int
	// remeasureXmax forces a fresh guardian measurement at the start of
	// the next round after a drift re-adaptation.
	remeasureXmax bool

	// sink receives domain metrics and spans; obs.Nop unless SetSink
	// installed a live telemetry backend.
	sink obs.Sink

	// Exploit-path scratch, reused across rounds: the observed points, the
	// front's positions in order, and the ILP plan's options, candidates
	// and execution slots.
	pts      []pareto.Point
	front    []int
	planOpts []ilp.Option
	planIdx  []int
	slots    []planSlot
}

var _ PaceController = (*Controller)(nil)

// New constructs a BoFL controller over the given DVFS space.
func New(space device.Space, opts Options) (*Controller, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}

	n := space.Size()
	candidates := make([][]float64, n)
	for i := 0; i < n; i++ {
		cfg, err := space.Config(i)
		if err != nil {
			return nil, err
		}
		norm, err := space.Normalize(cfg)
		if err != nil {
			return nil, err
		}
		candidates[i] = norm
	}
	optimizer, err := newSuggester(candidates, opts)
	if err != nil {
		return nil, err
	}

	// Quasi-random starting design (§4.2), with x_max forced to the front
	// so T(x_max) is known before any risky exploration.
	count := int(math.Ceil(opts.StartFrac * float64(n)))
	if count < opts.MinStartPoints {
		count = opts.MinStartPoints
	}
	starts, err := mobo.HaltonIndices(count, space.Dims())
	if err != nil {
		return nil, err
	}
	xmaxIdx, err := space.Index(space.Max())
	if err != nil {
		return nil, err
	}
	queue := make([]int, 0, len(starts)+1)
	queue = append(queue, xmaxIdx)
	for _, s := range starts {
		if s != xmaxIdx {
			queue = append(queue, s)
		}
	}

	return &Controller{
		opts:       opts,
		space:      space,
		candidates: candidates,
		optimizer:  optimizer,
		phase:      PhaseRandomExplore,
		queue:      queue,
		xmaxIdx:    xmaxIdx,
		observed:   make(map[int]*aggObs),
		sink:       obs.Nop,
	}, nil
}

// Phase returns the controller's current phase.
func (c *Controller) Phase() Phase { return c.phase }

// NumExplored returns the number of distinct configurations observed so far.
func (c *Controller) NumExplored() int { return len(c.observed) }

// Front returns the Pareto front of mean observations as (energy, latency)
// points.
func (c *Controller) Front() []pareto.Point {
	pos := c.frontPositions()
	if len(pos) == 0 {
		return nil
	}
	out := make([]pareto.Point, len(pos))
	for k, p := range pos {
		out[k] = c.pts[p]
	}
	return out
}

// ObservedPoints returns every explored configuration's mean observation as
// an (energy, latency) point, in first-observation order — the exploration
// cloud of Figure 11.
func (c *Controller) ObservedPoints() []pareto.Point {
	return slices.Clone(c.points())
}

// FrontIndices returns the candidate indices whose mean observations form the
// current Pareto front.
func (c *Controller) FrontIndices() []int {
	pos := c.frontPositions()
	out := make([]int, len(pos))
	for k, p := range pos {
		out[k] = c.order[p].idx
	}
	return out
}

// points fills the controller's point scratch with every observation's mean,
// in first-observation order, and returns it.
func (c *Controller) points() []pareto.Point {
	c.pts = c.pts[:0]
	for _, a := range c.order {
		c.pts = append(c.pts, a.point())
	}
	return c.pts
}

// frontPositions computes the observed Pareto front into the controller's
// scratch: positions in c.order (and c.pts) in ascending energy, exact ties
// going to the earlier observation. Valid until the next call.
func (c *Controller) frontPositions() []int {
	c.front = pareto.AppendFrontIndices(c.front[:0], c.points())
	return c.front
}

// ErrNoJobs is returned when RunRound is called with a non-positive job
// count.
var ErrNoJobs = errors.New("core: round has no jobs")

// observe folds a batch of job measurements on one configuration into the
// controller's state and the MBO dataset.
func (c *Controller) observe(index int, jobs int, sumLat, sumE float64) error {
	a, ok := c.observed[index]
	isNew := !ok
	if isNew {
		a = &aggObs{idx: index}
		c.observed[index] = a
		c.order = append(c.order, a)
	}
	a.jobs += jobs
	a.sumLat += sumLat
	a.sumE += sumE
	a.duration += sumLat
	a.lastRound = c.round
	if index == c.xmaxIdx {
		c.xmaxObs = a
	}
	if c.updateDrift(a, sumLat/float64(jobs)) {
		return c.readapt(a)
	}
	if !isNew {
		// Repeat executions (guardian drains, exploitation jobs) refine
		// the running means used by the ILP, but are not appended to
		// the GP dataset: the surrogate conditions on one aggregate
		// measurement per configuration, keeping the O(n³) fits sized
		// to the number of explored configurations.
		return nil
	}
	return c.optimizer.Observe(mobo.Observation{
		Index:   index,
		Energy:  sumE / float64(jobs),
		Latency: sumLat / float64(jobs),
	})
}

// newSuggester builds the configured MBO strategy.
func newSuggester(candidates [][]float64, opts Options) (suggester, error) {
	moboOpts := mobo.Options{
		Seed:     opts.Seed,
		Restarts: opts.MBORestarts,
		Iters:    opts.MBOIters,
	}
	switch opts.Acquisition {
	case AcqParEGO:
		return mobo.NewParEGO(candidates, moboOpts)
	default:
		return mobo.NewOptimizer(candidates, moboOpts)
	}
}

// hypervolume computes the hypervolume of the observed front against the
// worst-observed reference point (the paper's reference choice, §4.3).
func (c *Controller) hypervolume() (float64, error) {
	pts := c.points()
	ref, err := pareto.ReferenceFrom(pts)
	if err != nil {
		return 0, err
	}
	return pareto.Hypervolume(pts, ref), nil
}

// txmax returns the guardian configuration's planning latency (lifetime mean,
// bumped by the recent window under upward drift).
func (c *Controller) txmax() float64 {
	if c.xmaxObs == nil || c.xmaxObs.jobs == 0 {
		return 0
	}
	return c.xmaxObs.predLatency()
}
