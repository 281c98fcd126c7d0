package core

import (
	"slices"
	"testing"

	"bofl/internal/device"
	"bofl/internal/mobo"
)

// thermalExec simulates a board that heats up: after warmupJobs jobs, every
// configuration becomes `slowdown`× slower and √slowdown× hungrier.
type thermalExec struct {
	dev        *device.Device
	w          device.Workload
	jobs       int
	warmupJobs int
	slowdown   float64
}

func (e *thermalExec) RunJob(cfg device.Config) (JobResult, error) {
	lat, energy, err := e.dev.Perf(e.w, cfg)
	if err != nil {
		return JobResult{}, err
	}
	e.jobs++
	if e.jobs > e.warmupJobs {
		lat *= e.slowdown
		energy *= 1.25
	}
	return JobResult{Latency: lat, Energy: energy}, nil
}

func TestDriftDetectionTriggersReadapt(t *testing.T) {
	dev := device.JetsonAGX()
	space := smallSpace()
	c, err := New(space, Options{Seed: 3, Tau: 2, DriftThreshold: 0.2, MBORestarts: 1, MBOIters: 3})
	if err != nil {
		t.Fatal(err)
	}
	xmaxLat, err := dev.Latency(device.ViT, space.Max())
	if err != nil {
		t.Fatal(err)
	}
	// Throttle after ~8 rounds of 60 jobs; deadlines generous enough that
	// the 1.4× slowdown stays feasible.
	exec := &thermalExec{dev: dev, w: device.ViT, warmupJobs: 8 * 60, slowdown: 1.4}
	deadlines := mkDeadlines(xmaxLat*60*1.7, 2.2, 30, 5)
	sawExploitBefore := false
	misses := 0
	for r := 0; r < 30; r++ {
		rep, err := c.RunRound(60, deadlines[r], exec)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.DeadlineMet {
			misses++
			// A miss is only excusable in the transition window
			// (rounds 9–10): a tight deadline issued while the
			// landscape shifts under the controller can be
			// physically unsalvageable — by the time drift is
			// observable, even an x_max sprint no longer fits.
			if r < 8 || r > 10 {
				t.Errorf("round %d missed deadline outside the throttle transition (phase %v)", rep.Round, rep.Phase)
			}
		}
		if c.Phase() == PhaseExploit && c.Readapts() == 0 {
			sawExploitBefore = true
		}
		if _, err := c.BetweenRounds(); err != nil {
			t.Fatal(err)
		}
	}
	if !sawExploitBefore {
		t.Error("controller never reached exploitation before the throttle hit")
	}
	if misses > 1 {
		t.Errorf("%d deadline misses under throttling, want ≤1 (transition only)", misses)
	}
	if c.Readapts() == 0 {
		t.Error("drift never triggered a re-adaptation")
	}
	if c.Phase() != PhaseExploit {
		t.Errorf("controller should settle back into exploitation, stuck in %v", c.Phase())
	}
	// The recalibrated means must reflect the hot landscape: x_max's
	// stored mean should be ≈ slowdown × the cold latency.
	hot := c.txmax()
	if hot < xmaxLat*1.2 {
		t.Errorf("x_max mean %.4f not recalibrated (cold %.4f)", hot, xmaxLat)
	}
}

func TestDriftDisabledByDefault(t *testing.T) {
	dev := device.JetsonAGX()
	space := smallSpace()
	c, err := New(space, Options{Seed: 4, Tau: 2, MBORestarts: 1, MBOIters: 3})
	if err != nil {
		t.Fatal(err)
	}
	xmaxLat, err := dev.Latency(device.ViT, space.Max())
	if err != nil {
		t.Fatal(err)
	}
	exec := &thermalExec{dev: dev, w: device.ViT, warmupJobs: 8 * 60, slowdown: 1.3}
	deadlines := mkDeadlines(xmaxLat*60*1.8, 2.2, 25, 6)
	for r := 0; r < 25; r++ {
		if _, err := c.RunRound(60, deadlines[r], exec); err != nil {
			t.Fatal(err)
		}
		if _, err := c.BetweenRounds(); err != nil {
			t.Fatal(err)
		}
	}
	if c.Readapts() != 0 {
		t.Errorf("drift detection ran with threshold 0: %d readapts", c.Readapts())
	}
}

func TestAdaptiveBeatsStaticUnderThrottling(t *testing.T) {
	// Energy comparison on the same throttling trace: the adaptive
	// controller re-maps the hot landscape and should not lose to the
	// static one (whose exploitation plans are built on stale cold
	// statistics) by more than noise; typically it wins.
	dev := device.JetsonAGX()
	space := smallSpace()
	xmaxLat, err := dev.Latency(device.ViT, space.Max())
	if err != nil {
		t.Fatal(err)
	}
	deadlines := mkDeadlines(xmaxLat*60*1.8, 2.4, 40, 7)
	runWith := func(threshold float64) (energy float64, misses int) {
		c, err := New(space, Options{Seed: 5, Tau: 2, DriftThreshold: threshold, MBORestarts: 1, MBOIters: 3})
		if err != nil {
			t.Fatal(err)
		}
		exec := &thermalExec{dev: dev, w: device.ViT, warmupJobs: 8 * 60, slowdown: 1.45}
		for r := 0; r < 40; r++ {
			rep, err := c.RunRound(60, deadlines[r], exec)
			if err != nil {
				t.Fatal(err)
			}
			energy += rep.Energy
			if !rep.DeadlineMet {
				misses++
			}
			if _, err := c.BetweenRounds(); err != nil {
				t.Fatal(err)
			}
		}
		return energy, misses
	}
	adaptiveE, adaptiveMiss := runWith(0.2)
	staticE, _ := runWith(0)
	if adaptiveMiss > 0 {
		t.Errorf("adaptive controller missed %d deadlines", adaptiveMiss)
	}
	if adaptiveE > staticE*1.05 {
		t.Errorf("adaptive (%.0f J) clearly worse than static (%.0f J) under throttling", adaptiveE, staticE)
	}
}

func TestThermalDeviceModel(t *testing.T) {
	dev := device.JetsonAGX()
	td, err := device.NewThermalDevice(dev, device.DefaultThermal())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := device.NewThermalDevice(nil, device.DefaultThermal()); err == nil {
		t.Error("nil device accepted")
	}
	bad := device.DefaultThermal()
	bad.CriticalC = bad.ThrottleC
	if _, err := device.NewThermalDevice(dev, bad); err == nil {
		t.Error("invalid thermal model accepted")
	}

	cfg := dev.Space().Max()
	coldLat, _, err := td.Perf(device.ViT, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Sustained max-clock load must heat the board into throttling.
	for i := 0; i < 4000; i++ {
		if _, _, err := td.RunJob(device.ViT, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if td.Temperature() <= 60 {
		t.Errorf("temperature %.1f°C after sustained load, want > throttle point", td.Temperature())
	}
	hotLat, _, err := td.Perf(device.ViT, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hotLat <= coldLat*1.05 {
		t.Errorf("no throttling: cold %.4f vs hot %.4f", coldLat, hotLat)
	}
	// Cooling brings it back.
	td.Cool(3600)
	if td.Temperature() > 26 {
		t.Errorf("board did not cool: %.1f°C", td.Temperature())
	}
	td.Reset()
	if td.Temperature() != device.DefaultThermal().AmbientC {
		t.Error("reset did not restore ambient")
	}
	if td.Device() != dev {
		t.Error("Device() accessor broken")
	}
}

// TestReadaptKeepsFirstObservationOrder drives the throttled task of
// TestDriftDetectionTriggersReadapt and checks the MBO dataset the
// re-adaptation rebuilds: its observations must follow the order in which
// the configurations were first observed — the order the explored lists of
// the round reports give — on every run. A GP's posterior depends on its
// training order, so any other order makes the refit after a drift vary
// between runs of one seed.
func TestReadaptKeepsFirstObservationOrder(t *testing.T) {
	dev := device.JetsonAGX()
	space := smallSpace()
	xmaxLat, err := dev.Latency(device.ViT, space.Max())
	if err != nil {
		t.Fatal(err)
	}
	run := func() (got, want []int) {
		c, err := New(space, Options{Seed: 3, Tau: 2, DriftThreshold: 0.2, MBORestarts: 1, MBOIters: 3})
		if err != nil {
			t.Fatal(err)
		}
		exec := &thermalExec{dev: dev, w: device.ViT, warmupJobs: 8 * 60, slowdown: 1.4}
		deadlines := mkDeadlines(xmaxLat*60*1.7, 2.2, 30, 5)
		seen := map[int]bool{}
		for r := 0; r < 30; r++ {
			rep, err := c.RunRound(60, deadlines[r], exec)
			if err != nil {
				t.Fatal(err)
			}
			for _, idx := range rep.Explored {
				if !seen[idx] {
					seen[idx] = true
					want = append(want, idx)
				}
			}
			if _, err := c.BetweenRounds(); err != nil {
				t.Fatal(err)
			}
		}
		if c.Readapts() == 0 {
			t.Fatal("drift never triggered a re-adaptation")
		}
		opt, ok := c.optimizer.(*mobo.Optimizer)
		if !ok {
			t.Fatalf("optimizer is %T, want *mobo.Optimizer", c.optimizer)
		}
		for _, o := range opt.Observations() {
			got = append(got, o.Index)
		}
		return got, want
	}
	for i := 0; i < 3; i++ {
		got, want := run()
		if !slices.Equal(got, want) {
			t.Fatalf("run %d: optimizer observations %v, want first-observation order %v", i, got, want)
		}
	}
}
