package experiment

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"bofl/internal/core"
	"bofl/internal/device"
	"bofl/internal/fl"
)

// fastOpts keeps controller tests quick: short τ and a cheap MBO budget.
func fastOpts() core.Options {
	return core.Options{Tau: 3, MBORestarts: 1, MBOIters: 3}
}

func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1()
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0].Configs != 2100 || rows[1].Configs != 936 {
		t.Errorf("config counts = %d, %d; want 2100, 936", rows[0].Configs, rows[1].Configs)
	}
	var buf bytes.Buffer
	if err := WriteTable1(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2100") {
		t.Error("render missing config count")
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	rows, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	// Spot-check the AGX T_min anchors.
	want := map[string]float64{"CIFAR10-ViT": 37.2, "ImageNet-ResNet50": 46.9, "IMDB-LSTM": 46.1}
	for _, r := range rows[:3] {
		if math.Abs(r.TMin-want[r.Task]) > 0.05 {
			t.Errorf("%s T_min = %v, want %v", r.Task, r.TMin, want[r.Task])
		}
	}
	var buf bytes.Buffer
	if err := WriteTable2(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestFigure2Leverage(t *testing.T) {
	d, err := Figure2(device.JetsonAGX(), device.ViT)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Points) != 2100 {
		t.Fatalf("cloud has %d points", len(d.Points))
	}
	if len(d.Front) < 10 {
		t.Errorf("front has only %d points", len(d.Front))
	}
	// The paper's headline: ≈8× speed and ≈4× energy leverage.
	if d.SpeedLeverage < 4 || d.SpeedLeverage > 30 {
		t.Errorf("speed leverage %v implausible", d.SpeedLeverage)
	}
	if d.EnergyLeverage < 2 || d.EnergyLeverage > 15 {
		t.Errorf("energy leverage %v implausible", d.EnergyLeverage)
	}
	var buf bytes.Buffer
	if err := WriteFigure2(&buf, d); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "leverage") {
		t.Error("render missing leverage lines")
	}
}

func TestFigure3ShowsCrossover(t *testing.T) {
	d, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.AtLow) != 14 || len(d.AtHigh) != 14 {
		t.Fatalf("sweep lengths %d/%d, want 14", len(d.AtLow), len(d.AtHigh))
	}
	// Diminishing returns with a slow CPU: the last GPU step should gain
	// far less at CPU-low than at CPU-high.
	gainLow := d.AtLow[6].Latency / d.AtLow[13].Latency
	gainHigh := d.AtHigh[6].Latency / d.AtHigh[13].Latency
	if gainHigh <= gainLow {
		t.Errorf("GPU speedup at high CPU (%.2f) should exceed low CPU (%.2f)", gainHigh, gainLow)
	}
	// Energy crossover: at a mid-low GPU clock the slow CPU is more
	// efficient; at the max clock it is not meaningfully better.
	if d.AtLow[6].Energy >= d.AtHigh[6].Energy {
		t.Error("no energy advantage for slow CPU at low GPU clock")
	}
	if d.AtLow[13].Energy < d.AtHigh[13].Energy*0.9 {
		t.Error("slow CPU should not save much energy at max GPU clock")
	}
	var buf bytes.Buffer
	if err := WriteFigure3(&buf, d); err != nil {
		t.Fatal(err)
	}
}

func TestFigure4ModelDependence(t *testing.T) {
	d, err := Figure4()
	if err != nil {
		t.Fatal(err)
	}
	lstm := d.Series[device.LSTM]
	vit := d.Series[device.ViT]
	resnet := d.Series[device.ResNet50]
	// LSTM speeds up steeply with CPU clock; ViT/ResNet50 barely.
	if r := lstm[2].Latency / lstm[len(lstm)-3].Latency; r < 1.6 {
		t.Errorf("LSTM CPU sensitivity %v too low", r)
	}
	if r := vit[2].Latency / vit[len(vit)-3].Latency; r > 1.5 {
		t.Errorf("ViT CPU sensitivity %v too high", r)
	}
	// ResNet50 energy rises with CPU clock; LSTM energy falls.
	if resnet[len(resnet)-1].Energy <= resnet[0].Energy {
		t.Error("ResNet50 energy should rise with CPU clock")
	}
	if lstm[len(lstm)-1].Energy >= lstm[0].Energy {
		t.Error("LSTM energy should fall with CPU clock")
	}
	var buf bytes.Buffer
	if err := WriteFigure4(&buf, d); err != nil {
		t.Fatal(err)
	}
}

func TestFigure5HardwareDependence(t *testing.T) {
	rows, err := Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.LatencyRatio >= 1 || r.EnergyRatio >= 1 {
			t.Errorf("%s: AGX should beat TX2: %+v", r.Workload, r)
		}
	}
	// Non-uniform improvement: ResNet50 gains most in latency (Table 2
	// derived; see EXPERIMENTS.md for the paper's internal inconsistency
	// on LSTM).
	if !(rows[1].LatencyRatio < rows[0].LatencyRatio) {
		t.Errorf("ResNet50 ratio %v should beat ViT %v", rows[1].LatencyRatio, rows[0].LatencyRatio)
	}
	var buf bytes.Buffer
	if err := WriteFigure5(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestRunTaskValidation(t *testing.T) {
	if _, err := RunTask(RunConfig{}); err == nil {
		t.Error("nil device accepted")
	}
	dev := device.JetsonAGX()
	tasks, err := fl.Tasks(dev, 2.0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunTask(RunConfig{Device: dev, Task: tasks[0], Rounds: 5, Controller: "nope"}); err == nil {
		t.Error("unknown controller accepted")
	}
}

// shortTask shrinks a task so full pipelines run quickly in tests.
func shortTask(t *testing.T, ratio float64) (dev *device.Device, task fl.TaskSpec) {
	t.Helper()
	dev = device.JetsonAGX()
	tasks, err := fl.Tasks(dev, ratio, 24)
	if err != nil {
		t.Fatal(err)
	}
	task = tasks[0]
	task.Minibatches = 20 // W = 100 instead of 200
	return dev, task
}

func TestEnergyComparisonPipeline(t *testing.T) {
	dev, task := shortTask(t, 2.5)
	cmp, err := EnergyComparisonFor(dev, task, 24, 3, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Rows) != 24 {
		t.Fatalf("got %d rows", len(cmp.Rows))
	}
	if cmp.Improvement <= 0 {
		t.Errorf("improvement %.3f should be positive", cmp.Improvement)
	}
	if cmp.Regret < 0 || cmp.Regret > 0.35 {
		t.Errorf("regret %.3f implausible", cmp.Regret)
	}
	if cmp.EndPhase1 == 0 || cmp.EndPhase2 < cmp.EndPhase1 {
		t.Errorf("phase boundaries %d/%d", cmp.EndPhase1, cmp.EndPhase2)
	}
	// In the exploitation tail BoFL must track the oracle closely.
	var tailB, tailO float64
	for _, r := range cmp.Rows[cmp.EndPhase2:] {
		tailB += r.BoFL
		tailO += r.Oracle
	}
	if tailO > 0 && tailB/tailO > 1.12 {
		t.Errorf("steady-state BoFL/Oracle = %.3f", tailB/tailO)
	}
	var buf bytes.Buffer
	if err := WriteEnergyComparison(&buf, cmp, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "improvement") {
		t.Error("render missing summary")
	}
}

func TestFigure11AndTable3Pipeline(t *testing.T) {
	dev, task := shortTask(t, 2.0)
	run, err := RunTask(RunConfig{
		Device:      dev,
		Task:        task,
		Rounds:      24,
		Controller:  KindBoFL,
		Seed:        5,
		CtrlOptions: fastOpts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	f11, err := Figure11For(dev, task, run)
	if err != nil {
		t.Fatal(err)
	}
	if f11.HVCoverage < 0.85 {
		t.Errorf("HV coverage %.2f, want ≥0.85", f11.HVCoverage)
	}
	if f11.ExploredFrac > 0.15 {
		t.Errorf("explored %.1f%% of the space — too much", f11.ExploredFrac*100)
	}
	if len(f11.BoFLFront) < 3 || len(f11.TrueFront) < 3 {
		t.Errorf("fronts too small: %d vs %d", len(f11.BoFLFront), len(f11.TrueFront))
	}

	t3, err := Table3For(run)
	if err != nil {
		t.Fatal(err)
	}
	if t3.TotalExp != f11.ExploredCount {
		t.Errorf("table 3 total %d != explored %d", t3.TotalExp, f11.ExploredCount)
	}
	if t3.TotalPareto == 0 {
		t.Error("no Pareto points found during exploration")
	}
	var phase1 bool
	for _, r := range t3.Rows {
		if r.Phase1 {
			phase1 = true
		}
		if r.ParetoCount > r.Explored {
			t.Errorf("round %d: pareto %d > explored %d", r.Round, r.ParetoCount, r.Explored)
		}
	}
	if !phase1 {
		t.Error("no phase-1 rows")
	}

	var buf bytes.Buffer
	if err := WriteFigure11(&buf, []*Figure11Data{f11}); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteFigure11CSV(&buf, f11); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "series,energy_j,latency_s") {
		t.Error("CSV header missing")
	}
	buf.Reset()
	if err := WriteTable3(&buf, []*Table3Data{t3}); err != nil {
		t.Fatal(err)
	}
}

func TestFigure12Pipeline(t *testing.T) {
	// Single reduced task, two ratios — the full grid runs in boflbench.
	dev, task := shortTask(t, 2.0)
	_ = dev
	cells := make([]Figure12Cell, 0, 2)
	for _, ratio := range []float64{2.0, 4.0} {
		tk := task
		tk.DeadlineRatio = ratio
		cmp, err := EnergyComparisonFor(device.JetsonAGX(), tk, 20, 9, fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, Figure12Cell{
			Task: tk.Name, Ratio: ratio, RatioLabel: ratioLabel(ratio),
			Improvement: cmp.Improvement, Regret: cmp.Regret,
		})
	}
	// Longer deadlines must improve savings vs Performant.
	if cells[1].Improvement <= cells[0].Improvement {
		t.Errorf("improvement should grow with deadline: %.3f → %.3f",
			cells[0].Improvement, cells[1].Improvement)
	}
	var buf bytes.Buffer
	if err := WriteFigure12(&buf, cells); err != nil {
		t.Fatal(err)
	}
}

func TestFigure13Pipeline(t *testing.T) {
	rows, err := Figure13(2.0, 16, 2, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6 (2 devices × 3 tasks)", len(rows))
	}
	for _, r := range rows {
		if r.MBORounds == 0 {
			t.Errorf("%s/%s: no MBO rounds recorded", r.Device, r.Task)
		}
		if r.OverheadFrac < 0 || r.OverheadFrac > 0.05 {
			t.Errorf("%s/%s: MBO overhead %.2f%% implausible", r.Device, r.Task, r.OverheadFrac*100)
		}
		if r.TotalTrainingEnergy <= 0 {
			t.Errorf("%s/%s: no training energy", r.Device, r.Task)
		}
	}
	var buf bytes.Buffer
	if err := WriteFigure13(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Error("empty input should render empty")
	}
	s := Sparkline([]float64{0, 1, 2, 3})
	if len([]rune(s)) != 4 {
		t.Errorf("sparkline length %d", len([]rune(s)))
	}
	if Sparkline([]float64{5, 5, 5}) == "" {
		t.Error("constant series should render")
	}
}

func TestVarianceStudyPipeline(t *testing.T) {
	dev, task := shortTask(t, 2.5)
	_ = task
	rows, err := VarianceStudy(dev, 2.5, 16, 2, 3, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Seeds != 2 {
			t.Errorf("%s: %d seeds", r.Task, r.Seeds)
		}
		if r.ImprovementMean <= 0 {
			t.Errorf("%s: improvement %v", r.Task, r.ImprovementMean)
		}
		if r.ImprovementStd < 0 || r.RegretStd < 0 {
			t.Errorf("%s: negative std", r.Task)
		}
		if r.TotalMisses != 0 {
			t.Errorf("%s: %d misses", r.Task, r.TotalMisses)
		}
	}
	if _, err := VarianceStudy(dev, 2.5, 4, 1, 3, fastOpts()); err == nil {
		t.Error("single-seed study accepted")
	}
	var buf bytes.Buffer
	if err := WriteVarianceStudy(&buf, rows, 2.5); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "±") {
		t.Error("render missing error bars")
	}
}

func TestThermalStudyPipeline(t *testing.T) {
	dev, task := shortTask(t, 2.5)
	rows, err := ThermalStudy(dev, task, 30, 4, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	byName := map[string]ThermalRow{}
	for _, r := range rows {
		byName[r.Controller] = r
		if r.TotalEnergy <= 0 {
			t.Errorf("%s: no energy", r.Controller)
		}
	}
	perf := byName["performant"]
	static := byName["bofl-static"]
	adaptive := byName["bofl-adaptive"]
	if perf.DeadlineMisses > 0 {
		t.Errorf("performant missed %d deadlines", perf.DeadlineMisses)
	}
	// The harsh enclosure must actually throttle the max-power baseline.
	if perf.FinalTempC < 46 {
		t.Errorf("performant final temp %.1f°C — enclosure not harsh enough", perf.FinalTempC)
	}
	// Both BoFL variants must beat Performant on energy; the adaptive one
	// must not miss more deadlines than the static one.
	if static.TotalEnergy >= perf.TotalEnergy || adaptive.TotalEnergy >= perf.TotalEnergy {
		t.Errorf("BoFL should save energy even while throttling: static %.0f adaptive %.0f perf %.0f",
			static.TotalEnergy, adaptive.TotalEnergy, perf.TotalEnergy)
	}
	if adaptive.DeadlineMisses > static.DeadlineMisses {
		t.Errorf("adaptation increased misses: %d vs %d", adaptive.DeadlineMisses, static.DeadlineMisses)
	}
	var buf bytes.Buffer
	if err := WriteThermalStudy(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "readapts") {
		t.Error("render missing readapts column")
	}
}

func TestRunTaskDeterministicBySeed(t *testing.T) {
	dev, task := shortTask(t, 2.0)
	a, err := RunTask(RunConfig{Device: dev, Task: task, Rounds: 8, Controller: KindBoFL, Seed: 11, CtrlOptions: fastOpts()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTask(RunConfig{Device: dev, Task: task, Rounds: 8, Controller: KindBoFL, Seed: 11, CtrlOptions: fastOpts()})
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalEnergy != b.TotalEnergy {
		t.Errorf("same seed, different energies: %v vs %v", a.TotalEnergy, b.TotalEnergy)
	}
}

func TestAblationControllersRun(t *testing.T) {
	dev, task := shortTask(t, 2.5)
	for _, kind := range []ControllerKind{KindRandom, KindLinearPace} {
		run, err := RunTask(RunConfig{
			Device:      dev,
			Task:        task,
			Rounds:      12,
			Controller:  kind,
			Seed:        7,
			CtrlOptions: fastOpts(),
		})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if run.TotalEnergy <= 0 {
			t.Errorf("%s: no energy", kind)
		}
	}
}

// TestFigure11ExploredOrderStable pins the order of Figure 11's exploration
// cloud: the controller lists its observations in first-observation order,
// so repeated Figure11For calls, and repeated runs of one seed, return
// Explored in the same order (and its CSV rows with it).
func TestFigure11ExploredOrderStable(t *testing.T) {
	dev, task := shortTask(t, 2.0)
	explored := func() []*Figure11Data {
		run, err := RunTask(RunConfig{
			Device: dev, Task: task, Rounds: 12, Controller: KindBoFL,
			Seed: 5, CtrlOptions: fastOpts(),
		})
		if err != nil {
			t.Fatal(err)
		}
		var out []*Figure11Data
		for i := 0; i < 2; i++ {
			f11, err := Figure11For(dev, task, run)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, f11)
		}
		return out
	}
	want := explored()[0].Explored
	if len(want) < 3 {
		t.Fatalf("only %d explored points", len(want))
	}
	for r := 0; r < 2; r++ {
		for i, f11 := range explored() {
			if !slices.Equal(f11.Explored, want) {
				t.Fatalf("run %d call %d: explored order differs:\n%v\n%v", r, i, f11.Explored, want)
			}
		}
	}
}
