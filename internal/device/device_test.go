package device

import (
	"math"
	"strconv"
	"testing"
	"testing/quick"
)

func TestSpaceSizesMatchTable1(t *testing.T) {
	if got := JetsonAGX().Space().Size(); got != 2100 {
		t.Errorf("AGX space size = %d, want 2100", got)
	}
	if got := JetsonTX2().Space().Size(); got != 936 {
		t.Errorf("TX2 space size = %d, want 936", got)
	}
}

func TestSpaceEndpointsMatchTable1(t *testing.T) {
	agx := JetsonAGX().Space()
	checks := []struct {
		name   string
		table  []Freq
		lo, hi Freq
		steps  int
	}{
		{"agx cpu", agx.CPU, 0.42, 2.26, 25},
		{"agx gpu", agx.GPU, 0.11, 1.38, 14},
		{"agx mem", agx.Mem, 0.20, 2.13, 6},
	}
	tx2 := JetsonTX2().Space()
	checks = append(checks,
		struct {
			name   string
			table  []Freq
			lo, hi Freq
			steps  int
		}{"tx2 cpu", tx2.CPU, 0.34, 2.03, 12},
		struct {
			name   string
			table  []Freq
			lo, hi Freq
			steps  int
		}{"tx2 gpu", tx2.GPU, 0.11, 1.30, 13},
		struct {
			name   string
			table  []Freq
			lo, hi Freq
			steps  int
		}{"tx2 mem", tx2.Mem, 0.41, 1.87, 6},
	)
	for _, c := range checks {
		if len(c.table) != c.steps {
			t.Errorf("%s: %d steps, want %d", c.name, len(c.table), c.steps)
		}
		if c.table[0] != c.lo || c.table[len(c.table)-1] != c.hi {
			t.Errorf("%s: range [%v, %v], want [%v, %v]", c.name, c.table[0], c.table[len(c.table)-1], c.lo, c.hi)
		}
	}
}

func TestSpaceRoundTrip(t *testing.T) {
	s := JetsonAGX().Space()
	for i := 0; i < s.Size(); i++ {
		cfg, err := s.Config(i)
		if err != nil {
			t.Fatal(err)
		}
		back, err := s.Index(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if back != i {
			t.Fatalf("round trip %d → %+v → %d", i, cfg, back)
		}
	}
	if _, err := s.Config(-1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := s.Config(s.Size()); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := s.Index(Config{CPU: 9, GPU: 9, Mem: 9}); err == nil {
		t.Error("foreign config accepted")
	}
}

func TestSpaceNormalize(t *testing.T) {
	s := JetsonAGX().Space()
	nmin, err := s.Normalize(s.Min())
	if err != nil {
		t.Fatal(err)
	}
	nmax, err := s.Normalize(s.Max())
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 3; d++ {
		if nmin[d] != 0 {
			t.Errorf("Normalize(min)[%d] = %v, want 0", d, nmin[d])
		}
		if nmax[d] != 1 {
			t.Errorf("Normalize(max)[%d] = %v, want 1", d, nmax[d])
		}
	}
}

func TestSpaceValidate(t *testing.T) {
	if err := JetsonAGX().Space().Validate(); err != nil {
		t.Errorf("AGX space invalid: %v", err)
	}
	bad := Space{CPU: []Freq{1, 1}, GPU: []Freq{1}, Mem: []Freq{1}}
	if err := bad.Validate(); err == nil {
		t.Error("non-ascending table accepted")
	}
	if err := (Space{}).Validate(); err == nil {
		t.Error("empty space accepted")
	}
}

func TestCalibrationMatchesTable2Tmin(t *testing.T) {
	// T_min = T(x_max) · W must reproduce Table 2 per device and task.
	tests := []struct {
		dev  *Device
		w    Workload
		jobs int
		tmin float64
	}{
		{JetsonAGX(), ViT, 200, 37.2},
		{JetsonAGX(), ResNet50, 180, 46.9},
		{JetsonAGX(), LSTM, 160, 46.1},
		{JetsonTX2(), ViT, 75, 36.0},
		{JetsonTX2(), ResNet50, 60, 49.2},
		{JetsonTX2(), LSTM, 80, 55.6},
	}
	for _, tt := range tests {
		lat, err := tt.dev.Latency(tt.w, tt.dev.Space().Max())
		if err != nil {
			t.Fatal(err)
		}
		got := lat * float64(tt.jobs)
		if math.Abs(got-tt.tmin)/tt.tmin > 1e-9 {
			t.Errorf("%s/%s: T_min = %v, want %v", tt.dev.Name(), tt.w, got, tt.tmin)
		}
	}
}

func TestLatencyMonotoneInEachAxis(t *testing.T) {
	// Raising any single clock never slows the job down.
	for _, dev := range []*Device{JetsonAGX(), JetsonTX2()} {
		s := dev.Space()
		for _, w := range Workloads() {
			for _, base := range []Config{s.Min(), s.Max(), {CPU: s.CPU[len(s.CPU)/2], GPU: s.GPU[len(s.GPU)/2], Mem: s.Mem[len(s.Mem)/2]}} {
				prev := math.Inf(1)
				for _, f := range s.CPU {
					c := base
					c.CPU = f
					lat, err := dev.Latency(w, c)
					if err != nil {
						t.Fatal(err)
					}
					if lat > prev+1e-12 {
						t.Fatalf("%s/%s: latency rose with CPU clock at %+v", dev.Name(), w, c)
					}
					prev = lat
				}
				prev = math.Inf(1)
				for _, f := range s.GPU {
					c := base
					c.GPU = f
					lat, err := dev.Latency(w, c)
					if err != nil {
						t.Fatal(err)
					}
					if lat > prev+1e-12 {
						t.Fatalf("%s/%s: latency rose with GPU clock at %+v", dev.Name(), w, c)
					}
					prev = lat
				}
			}
		}
	}
}

func TestPerfPositiveEverywhere(t *testing.T) {
	dev := JetsonAGX()
	s := dev.Space()
	for _, w := range Workloads() {
		for i := 0; i < s.Size(); i += 7 {
			cfg, err := s.Config(i)
			if err != nil {
				t.Fatal(err)
			}
			lat, energy, err := dev.Perf(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if lat <= 0 || energy <= 0 || math.IsNaN(lat) || math.IsNaN(energy) {
				t.Fatalf("%s at %+v: lat=%v energy=%v", w, cfg, lat, energy)
			}
		}
	}
}

func TestUnknownWorkloadRejected(t *testing.T) {
	dev := JetsonAGX()
	if _, err := dev.Latency("bert", dev.Space().Max()); err == nil {
		t.Error("unknown workload accepted by Latency")
	}
	if _, err := dev.Energy("bert", dev.Space().Max()); err == nil {
		t.Error("unknown workload accepted by Energy")
	}
	if _, _, err := dev.Perf("bert", dev.Space().Max()); err == nil {
		t.Error("unknown workload accepted by Perf")
	}
}

// Section 2.2 complexity (1): non-linearity. The paper's Figure 3 behaviour:
// with a slow CPU, ViT stops benefiting from faster GPU clocks, and at low
// GPU frequency a slow CPU is more energy-efficient than a fast one while at
// high GPU frequency it is not.
func TestViTBottleneckShift(t *testing.T) {
	dev := JetsonAGX()
	s := dev.Space()
	cfg := func(cpu, gpu Freq) Config { return Config{CPU: cpu, GPU: gpu, Mem: s.Mem[len(s.Mem)-1]} }
	slowCPU, fastCPU := s.CPU[0], s.CPU[len(s.CPU)-1]

	// Speedup from a faster GPU must be much larger when the CPU is fast.
	gpuLo, gpuHi := s.GPU[7], s.GPU[len(s.GPU)-1]
	latFast1, _ := dev.Latency(ViT, cfg(fastCPU, gpuLo))
	latFast2, _ := dev.Latency(ViT, cfg(fastCPU, gpuHi))
	latSlow1, _ := dev.Latency(ViT, cfg(slowCPU, gpuLo))
	latSlow2, _ := dev.Latency(ViT, cfg(slowCPU, gpuHi))
	gainFast := latFast1 / latFast2
	gainSlow := latSlow1 / latSlow2
	if gainFast <= gainSlow {
		t.Errorf("GPU speedup with fast CPU (%.3f) should exceed slow CPU (%.3f): CPU must bottleneck", gainFast, gainSlow)
	}

	// Energy crossover (Figure 3b): at low GPU clock, the slow CPU is more
	// efficient; at the highest GPU clock it is not (and costs ≈2× time).
	const lowGPU = 6
	eSlowLo, _ := dev.Energy(ViT, cfg(slowCPU, s.GPU[lowGPU]))
	eFastLo, _ := dev.Energy(ViT, cfg(fastCPU, s.GPU[lowGPU]))
	if eSlowLo >= eFastLo {
		t.Errorf("at GPU %.2f GHz slow CPU energy %v should beat fast CPU %v", s.GPU[lowGPU], eSlowLo, eFastLo)
	}
	eSlowHi, _ := dev.Energy(ViT, cfg(slowCPU, gpuHi))
	eFastHi, _ := dev.Energy(ViT, cfg(fastCPU, gpuHi))
	if eSlowHi < eFastHi*0.9 {
		t.Errorf("at max GPU clock a slow CPU should save little energy: slow %v vs fast %v", eSlowHi, eFastHi)
	}
	if latSlow2 < latFast2*1.4 {
		t.Errorf("at max GPU clock the slow CPU should cost ≈½ the speed: %v vs %v", latSlow2, latFast2)
	}
}

// Section 2.2 complexity (2): NN-model dependence. Figure 4 behaviour: LSTM's
// latency falls steeply with CPU clock while ViT/ResNet50 stay nearly flat;
// ResNet50's energy rises with CPU clock while LSTM's falls.
func TestModelDependence(t *testing.T) {
	dev := JetsonAGX()
	s := dev.Space()
	mid := Config{GPU: s.GPU[len(s.GPU)-1], Mem: s.Mem[len(s.Mem)-1]}
	lowCPU, highCPU := s.CPU[2], s.CPU[len(s.CPU)-4]

	ratio := func(w Workload) float64 {
		a := mid
		a.CPU = lowCPU
		b := mid
		b.CPU = highCPU
		la, _ := dev.Latency(w, a)
		lb, _ := dev.Latency(w, b)
		return la / lb
	}
	if r := ratio(LSTM); r < 1.6 {
		t.Errorf("LSTM latency should roughly halve with fast CPU, ratio %v", r)
	}
	if r := ratio(ViT); r > 1.5 {
		t.Errorf("ViT latency should be nearly flat vs CPU clock, ratio %v", r)
	}
	if r := ratio(ResNet50); r > 1.4 {
		t.Errorf("ResNet50 latency should be nearly flat vs CPU clock, ratio %v", r)
	}

	energyAt := func(w Workload, cpu Freq) float64 {
		c := mid
		c.CPU = cpu
		e, _ := dev.Energy(w, c)
		return e
	}
	if energyAt(ResNet50, highCPU) <= energyAt(ResNet50, lowCPU) {
		t.Error("ResNet50 energy should increase with CPU clock")
	}
	if energyAt(LSTM, highCPU) >= energyAt(LSTM, lowCPU) {
		t.Error("LSTM energy should decrease with CPU clock")
	}
}

// Section 2.2 complexity (3): hardware dependence. AGX at x_max must beat TX2
// at x_max on every workload, by workload-dependent factors.
func TestHardwareDependence(t *testing.T) {
	agx, tx2 := JetsonAGX(), JetsonTX2()
	for _, w := range Workloads() {
		la, ea, err := agx.Perf(w, agx.Space().Max())
		if err != nil {
			t.Fatal(err)
		}
		lt, et, err := tx2.Perf(w, tx2.Space().Max())
		if err != nil {
			t.Fatal(err)
		}
		if la >= lt {
			t.Errorf("%s: AGX latency %v should beat TX2 %v", w, la, lt)
		}
		if ea >= et {
			t.Errorf("%s: AGX energy %v should beat TX2 %v", w, ea, et)
		}
	}
	// The improvement is not uniform across models (ResNet50 gains most in
	// latency per Figure 5).
	rel := func(w Workload) float64 {
		la, _ := agx.Latency(w, agx.Space().Max())
		lt, _ := tx2.Latency(w, tx2.Space().Max())
		return la / lt
	}
	if !(rel(ResNet50) < rel(ViT)) {
		t.Errorf("ResNet50 latency ratio %v should beat ViT's %v", rel(ResNet50), rel(ViT))
	}
}

func TestDVFSLeverageMatchesPaperHeadline(t *testing.T) {
	// §1: a proper configuration choice yields ≈8× faster training and ≈4×
	// better energy efficiency across the space. Check the spread between
	// the best and worst configurations is of that order.
	dev := JetsonAGX()
	p, err := ProfileAll(dev, ViT)
	if err != nil {
		t.Fatal(err)
	}
	minLat, maxLat := math.Inf(1), 0.0
	minE, maxE := math.Inf(1), 0.0
	for _, pt := range p.Points {
		minLat = math.Min(minLat, pt.Latency)
		maxLat = math.Max(maxLat, pt.Latency)
		minE = math.Min(minE, pt.Energy)
		maxE = math.Max(maxE, pt.Energy)
	}
	if spread := maxLat / minLat; spread < 3 || spread > 40 {
		t.Errorf("latency spread %v not in plausible DVFS range", spread)
	}
	if spread := maxE / minE; spread < 2 || spread > 20 {
		t.Errorf("energy spread %v not in plausible DVFS range", spread)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"jetson-agx", "agx", "jetson-tx2", "tx2"} {
		if _, ok := ByName(name); !ok {
			t.Errorf("ByName(%q) failed", name)
		}
	}
	if _, ok := ByName("pixel"); ok {
		t.Error("unknown device accepted")
	}
}

func TestMeterDeterministicBySeed(t *testing.T) {
	dev := JetsonAGX()
	cfg := dev.Space().Max()
	a := NewMeter(dev, DefaultNoise(), 42)
	b := NewMeter(dev, DefaultNoise(), 42)
	ma, err := a.Measure(ViT, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := b.Measure(ViT, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ma != mb {
		t.Errorf("same seed differs: %+v vs %+v", ma, mb)
	}
}

func TestMeterNoiseShrinksWithDuration(t *testing.T) {
	dev := JetsonAGX()
	cfg := dev.Space().Max()
	trueLat, err := dev.Latency(ViT, cfg)
	if err != nil {
		t.Fatal(err)
	}
	spread := func(duration float64) float64 {
		m := NewMeter(dev, DefaultNoise(), 7)
		var sum float64
		const n = 2000
		for i := 0; i < n; i++ {
			obs, err := m.Measure(ViT, cfg, duration)
			if err != nil {
				t.Fatal(err)
			}
			d := math.Log(obs.Latency / trueLat)
			sum += d * d
		}
		return math.Sqrt(sum / n)
	}
	long, short := spread(5.0), spread(0.2)
	if short < 2*long {
		t.Errorf("short-observation noise (%v) should be much larger than long (%v)", short, long)
	}
}

func TestMeterRejectsUnknownWorkload(t *testing.T) {
	dev := JetsonAGX()
	m := NewMeter(dev, DefaultNoise(), 1)
	if _, err := m.Measure("bert", dev.Space().Max(), 5); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestNoiseModelValidate(t *testing.T) {
	if err := DefaultNoise().Validate(); err != nil {
		t.Errorf("default noise invalid: %v", err)
	}
	bad := []NoiseModel{
		{LatencySigma: -1, EnergySigma: 0, RefDuration: 5, MaxInflation: 1},
		{LatencySigma: 0, EnergySigma: 0, RefDuration: 0, MaxInflation: 1},
		{LatencySigma: 0, EnergySigma: 0, RefDuration: 5, MaxInflation: 0.5},
	}
	for i, n := range bad {
		if err := n.Validate(); err == nil {
			t.Errorf("bad noise model %d accepted", i)
		}
	}
}

func TestProfileFrontProperties(t *testing.T) {
	dev := JetsonAGX()
	for _, w := range Workloads() {
		p, err := ProfileAll(dev, w)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Points) != 2100 {
			t.Fatalf("profile has %d points", len(p.Points))
		}
		front := p.ParetoFront()
		if len(front) < 3 {
			t.Errorf("%s: front has only %d points — model too simple", w, len(front))
		}
		// Front points must be mutually non-dominated and x_max must
		// achieve the minimum latency.
		if got := p.MinLatency(); got <= 0 {
			t.Errorf("min latency %v", got)
		}
		xmaxLat, err := dev.Latency(w, dev.Space().Max())
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(xmaxLat-p.MinLatency()) > 1e-9 {
			t.Errorf("%s: x_max latency %v should be the global minimum %v", w, xmaxLat, p.MinLatency())
		}
	}
}

func TestEnergyScaleInvariantToWorkRescale(t *testing.T) {
	// Property: doubling the compute demand doubles both latency and
	// energy at any configuration (degree-1 homogeneity, the basis of the
	// calibration routine).
	f := func(ci, gi, mi uint8) bool {
		dev := JetsonAGX()
		s := dev.Space()
		cfg := Config{
			CPU: s.CPU[int(ci)%len(s.CPU)],
			GPU: s.GPU[int(gi)%len(s.GPU)],
			Mem: s.Mem[int(mi)%len(s.Mem)],
		}
		wp := dev.workloads[ViT]
		lat1 := dev.latency(wp, cfg)
		e1 := dev.energy(wp, cfg)
		wp.cpuWork *= 2
		wp.gpuWork *= 2
		wp.memWork *= 2
		lat2 := dev.latency(wp, cfg)
		e2 := dev.energy(wp, cfg)
		return math.Abs(lat2-2*lat1) < 1e-9 && math.Abs(e2-2*e1) < 1e-9*math.Max(1, e1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestClientIDFormat pins the fleet client id to "f" plus the decimal index,
// across digit-count boundaries, a 2^40 index and a negative one.
func TestClientIDFormat(t *testing.T) {
	for _, i := range []int{0, 9, 10, 99, 100, 123456, 1 << 40, -7, math.MinInt64} {
		if got, want := ClientID(i), "f"+strconv.Itoa(i); got != want {
			t.Errorf("ClientID(%d) = %q, want %q", i, got, want)
		}
	}
}

// clientIDSink keeps ClientID's result escaping, as it does in the fleet
// engine, so the compiler cannot place the string on the stack.
var clientIDSink string

// TestClientIDAllocs pins ClientID to one allocation, the returned string:
// the fleet engine formats one id per simulated client per round.
func TestClientIDAllocs(t *testing.T) {
	i := 123456
	if got := testing.AllocsPerRun(100, func() { clientIDSink = ClientID(i); i++ }); got > 1 {
		t.Fatalf("ClientID allocates %.1f times, want 1", got)
	}
}
