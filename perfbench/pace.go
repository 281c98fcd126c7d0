package main

import (
	"fmt"

	"bofl/internal/core"
	"bofl/internal/device"
	"bofl/internal/experiment"
	"bofl/internal/fl"
)

// paceTasks is how many distinct tasks a pace run cycles through. A task's
// controller work varies with its deadlines and noise draws (the number of
// MBO rounds before exploitation, for one), so a run's median is taken over
// many tasks rather than one seed's.
const paceTasks = 64

// paceWorkload runs the first Figure 9 task (CIFAR10-ViT on the AGX, deadline
// ratio 2) under one BoFL controller with default options, driven round by
// round through RunRound/BetweenRounds with an executor over device.Meter.
// One iteration is one whole task: the controller's phases make single
// rounds non-stationary. Iteration n runs task n mod paceTasks, each with its
// own deadlines, noise and controller seed derived from the run's seed.
type paceWorkload struct {
	dev   *device.Device
	task  fl.TaskSpec
	tmin  float64
	seed  int64
	pr    *probe
	tasks map[int][]float64 // deadlines by task index, built on first use
}

func newPace(seed int64, rounds int, pr *probe) (*paceWorkload, error) {
	dev := device.JetsonAGX()
	tasks, err := fl.Tasks(dev, 2.0, rounds)
	if err != nil {
		return nil, err
	}
	task := tasks[0]
	tmin, err := fl.TMin(dev, task)
	if err != nil {
		return nil, err
	}
	return &paceWorkload{dev: dev, task: task, tmin: tmin, seed: seed, pr: pr, tasks: map[int][]float64{}}, nil
}

// taskSeed is the seed of task k: the run's seed for task 0, a hash of both
// otherwise.
func (w *paceWorkload) taskSeed(k int) int64 {
	if k == 0 {
		return w.seed
	}
	return int64(mix64(uint64(w.seed)<<16^uint64(k)) >> 1)
}

func (w *paceWorkload) deadlines(k int) ([]float64, error) {
	if d, ok := w.tasks[k]; ok {
		return d, nil
	}
	d, err := fl.SampleDeadlines(w.tmin, w.task.DeadlineRatio, w.task.Rounds, w.taskSeed(k))
	if err != nil {
		return nil, err
	}
	w.tasks[k] = d
	return d, nil
}

func (w *paceWorkload) iterate(n int) (outcome, error) {
	k := n % paceTasks
	seed := w.taskSeed(k)
	deadlines, err := w.deadlines(k)
	if err != nil {
		return outcome{}, err
	}
	ctrl, err := core.New(w.dev.Space(), core.Options{Seed: seed})
	if err != nil {
		return outcome{}, err
	}
	var pc core.PaceController = ctrl
	if w.pr != nil {
		ctrl.SetSink(newSpanSink(w.pr, nil))
		pc = &timedController{p: w.pr, next: ctrl}
	}
	meter := device.NewMeter(w.dev, device.DefaultNoise(), seed+1)
	exec := core.ExecutorFunc(func(c device.Config) (core.JobResult, error) {
		lat, err := w.dev.Latency(w.task.Workload, c)
		if err != nil {
			return core.JobResult{}, err
		}
		m, err := meter.Measure(w.task.Workload, c, lat)
		if err != nil {
			return core.JobResult{}, err
		}
		return core.JobResult{Latency: m.Latency, Energy: m.Energy}, nil
	})
	out := outcome{task: k, scheduled: len(deadlines)}
	jobs := w.task.Jobs()
	for r, d := range deadlines {
		rep, err := pc.RunRound(jobs, d, exec)
		if err != nil {
			return outcome{}, fmt.Errorf("pace: round %d: %w", r+1, err)
		}
		out.energyJ += rep.Energy
		if !rep.DeadlineMet {
			out.missed++
		}
		if _, err := pc.BetweenRounds(); err != nil {
			return outcome{}, fmt.Errorf("pace: between rounds %d: %w", r+1, err)
		}
	}
	return out, nil
}

// check replays task 0 through the experiment harness, which drives the same
// controller and meter by its own code, and requires the identical energy
// and deadline misses.
func (w *paceWorkload) check(first outcome) error {
	run, err := experiment.RunTask(w.runConfig(experiment.KindBoFL))
	if err != nil {
		return err
	}
	if run.TotalEnergy != first.energyJ || run.DeadlineMisses != first.missed {
		return fmt.Errorf("pace: task energy %v J / %d misses, experiment.RunTask gives %v J / %d",
			first.energyJ, first.missed, run.TotalEnergy, run.DeadlineMisses)
	}
	return nil
}

// regretPct runs the Oracle on task 0's deadlines and returns BoFL's energy
// over the Oracle's, minus 1, in percent.
func (w *paceWorkload) regretPct(first outcome) (float64, error) {
	run, err := experiment.RunTask(w.runConfig(experiment.KindOracle))
	if err != nil {
		return 0, err
	}
	return (first.energyJ/run.TotalEnergy - 1) * 100, nil
}

func (w *paceWorkload) runConfig(kind experiment.ControllerKind) experiment.RunConfig {
	return experiment.RunConfig{Device: w.dev, Task: w.task, Controller: kind, Seed: w.seed}
}

func (w *paceWorkload) close() {}
