package mobo

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"bofl/internal/obs"
	"bofl/internal/pareto"
)

// synthObjectives is a smooth synthetic two-objective test problem on a 2-D
// grid with a clear trade-off: energy falls as x rises, latency rises.
func synthObjectives(x []float64) (energy, latency float64) {
	energy = 2.0 - x[0] + 0.3*math.Sin(5*x[1]) + 0.5*x[1]*x[1]
	latency = 0.5 + x[0]*x[0] + 0.2*math.Cos(3*x[1])
	return math.Max(energy, 0.05), math.Max(latency, 0.05)
}

func gridCandidates(nx, ny int) [][]float64 {
	out := make([][]float64, 0, nx*ny)
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			out = append(out, []float64{float64(i) / float64(nx-1), float64(j) / float64(ny-1)})
		}
	}
	return out
}

func seedOptimizer(t *testing.T, cands [][]float64, seedIdx []int) *Optimizer {
	t.Helper()
	opt, err := NewOptimizer(cands, Options{Seed: 1, Restarts: 2, Iters: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range seedIdx {
		e, l := synthObjectives(cands[i])
		if err := opt.Observe(Observation{Index: i, Energy: e, Latency: l}); err != nil {
			t.Fatal(err)
		}
	}
	return opt
}

func TestNewOptimizerValidation(t *testing.T) {
	if _, err := NewOptimizer(nil, Options{}); err == nil {
		t.Error("empty candidates accepted")
	}
	if _, err := NewOptimizer([][]float64{{}}, Options{}); err == nil {
		t.Error("zero-dim candidates accepted")
	}
	if _, err := NewOptimizer([][]float64{{1}, {1, 2}}, Options{}); err == nil {
		t.Error("ragged candidates accepted")
	}
}

func TestObserveValidation(t *testing.T) {
	opt, err := NewOptimizer([][]float64{{0}, {1}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.Observe(Observation{Index: 5, Energy: 1, Latency: 1}); err == nil {
		t.Error("out-of-range index accepted")
	}
	if err := opt.Observe(Observation{Index: 0, X: []float64{1, 2}, Energy: 1, Latency: 1}); err == nil {
		t.Error("wrong-dim explicit point accepted")
	}
}

// spanCounter is a sink that counts the spans opened under each name.
type spanCounter struct {
	obs.NopSink
	n map[string]int
}

func (s *spanCounter) Span(name string, _ ...obs.Label) func() {
	s.n[name]++
	return func() {}
}

// countSpans installs a spanCounter on opt and returns a function reading
// how many EHVI scans it has recorded.
func countSpans(opt *Optimizer) func() int {
	sink := &spanCounter{n: map[string]int{}}
	opt.SetSink(sink)
	return func() int { return sink.n[obs.SpanEHVIScan] }
}

// TestObserveRejectsWholeBatch checks that a batch holding one bad
// observation records none of the batch: the observed count and the front
// stay as they were, and so do the surrogates and the last batch, which the
// next SuggestBatch serves unscanned and a rescan after Fit reproduces.
func TestObserveRejectsWholeBatch(t *testing.T) {
	cands := gridCandidates(10, 10)
	seeds, err := HaltonIndices(8, []int{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	opt := seedOptimizer(t, cands, seeds)
	scans := countSpans(opt)
	before, err := opt.SuggestBatch(4)
	if err != nil {
		t.Fatal(err)
	}
	n, front := opt.NumObserved(), opt.Front()
	good := Observation{Index: before[0].Index, Energy: 1, Latency: 1}
	for _, bad := range []Observation{
		{Index: len(cands), Energy: 1, Latency: 1},
		{Index: -1, Energy: 1, Latency: 1},
		{Index: 3, X: []float64{0.5}, Energy: 1, Latency: 1},
	} {
		if err := opt.Observe(good, bad); err == nil {
			t.Fatalf("batch with bad observation %+v accepted", bad)
		}
		if got := opt.NumObserved(); got != n {
			t.Fatalf("rejected batch changed NumObserved: %d → %d", n, got)
		}
		if !reflect.DeepEqual(opt.Front(), front) {
			t.Fatal("rejected batch changed the front")
		}
		after, err := opt.SuggestBatch(4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(after, before) {
			t.Fatalf("rejected batch changed the next batch:\n  %v\nvs\n  %v", before, after)
		}
	}
	if got := scans(); got != 1 {
		t.Errorf("%d EHVI scans, want 1: a rejected batch dropped the kept batch", got)
	}
	if err := opt.Fit(); err != nil {
		t.Fatal(err)
	}
	rescanned, err := opt.SuggestBatch(4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rescanned, before) {
		t.Fatalf("rescan after a rejected batch differs:\n  %v\nvs\n  %v", before, rescanned)
	}
}

// TestSuggestBatchReusesUnchangedBatch checks that a repeat call at the same
// k, with no Observe or Fit between, returns the last batch without an EHVI
// scan, that mutating a returned batch does not reach the kept one, and that
// a different k, a Fit or an Observe each rescan. Rescans on unchanged
// observations reproduce the kept batch exactly.
func TestSuggestBatchReusesUnchangedBatch(t *testing.T) {
	cands := gridCandidates(10, 10)
	seeds, err := HaltonIndices(8, []int{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	opt := seedOptimizer(t, cands, seeds)
	scans := countSpans(opt)
	suggest := func(k, wantScans int) []Suggestion {
		t.Helper()
		got, err := opt.SuggestBatch(k)
		if err != nil {
			t.Fatal(err)
		}
		if n := scans(); n != wantScans {
			t.Fatalf("after SuggestBatch(%d): %d EHVI scans, want %d", k, n, wantScans)
		}
		return got
	}

	got := suggest(5, 1)
	if len(got) != 5 {
		t.Fatalf("got %d suggestions, want 5", len(got))
	}
	want := slices.Clone(got)
	for i := 0; i < 2; i++ {
		got[0].Index, got[0].EHVI = -1, -1 // mutate the batch just returned
		if got = suggest(5, 1); !reflect.DeepEqual(got, want) {
			t.Fatalf("reuse %d returned\n  %v\nwant\n  %v", i+1, got, want)
		}
	}

	if got := suggest(3, 2); !reflect.DeepEqual(got, want[:3]) {
		t.Fatalf("SuggestBatch(3) = %v, want the first 3 of %v", got, want)
	}
	if got := suggest(5, 3); !reflect.DeepEqual(got, want) {
		t.Fatalf("rescan at k = 5 returned\n  %v\nwant\n  %v", got, want)
	}

	if err := opt.Fit(); err != nil {
		t.Fatal(err)
	}
	if got := suggest(5, 4); !reflect.DeepEqual(got, want) {
		t.Fatalf("rescan after Fit returned\n  %v\nwant\n  %v", got, want)
	}
	suggest(5, 4)

	e, l := synthObjectives(cands[want[0].Index])
	if err := opt.Observe(Observation{Index: want[0].Index, Energy: e, Latency: l}); err != nil {
		t.Fatal(err)
	}
	for _, s := range suggest(5, 5) {
		if s.Index == want[0].Index {
			t.Fatalf("batch after Observe suggests the observed index %d", s.Index)
		}
	}
}

func TestSuggestBeforeObserveFails(t *testing.T) {
	opt, err := NewOptimizer([][]float64{{0}, {1}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := opt.SuggestBatch(1); err == nil {
		t.Error("SuggestBatch before Observe should fail")
	}
	if err := opt.Fit(); err == nil {
		t.Error("Fit before Observe should fail")
	}
}

func TestSuggestBatchBasics(t *testing.T) {
	cands := gridCandidates(10, 10)
	seeds, err := HaltonIndices(8, []int{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	opt := seedOptimizer(t, cands, seeds)

	sugg, err := opt.SuggestBatch(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(sugg) == 0 {
		t.Fatal("no suggestions")
	}
	seen := make(map[int]bool)
	for _, s := range sugg {
		if s.Index < 0 || s.Index >= len(cands) {
			t.Fatalf("suggestion index %d out of range", s.Index)
		}
		if seen[s.Index] {
			t.Fatalf("duplicate suggestion %d", s.Index)
		}
		seen[s.Index] = true
		if opt.observed[s.Index] {
			t.Fatalf("suggested already-observed index %d", s.Index)
		}
		if s.EHVI < 0 {
			t.Fatalf("negative EHVI %v", s.EHVI)
		}
	}
}

func TestSuggestBatchZeroAndExhaustion(t *testing.T) {
	cands := gridCandidates(2, 2)
	opt := seedOptimizer(t, cands, []int{0, 1, 2})
	sugg, err := opt.SuggestBatch(0)
	if err != nil || sugg != nil {
		t.Errorf("SuggestBatch(0) = %v, %v; want nil, nil", sugg, err)
	}
	sugg, err = opt.SuggestBatch(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(sugg) != 1 {
		t.Errorf("only 1 unobserved candidate, got %d suggestions", len(sugg))
	}
}

func TestOptimizerFindsNearOptimalFront(t *testing.T) {
	// End-to-end: a handful of BO iterations must dominate most of the
	// true front's hypervolume while exploring a fraction of the space.
	cands := gridCandidates(20, 20)
	seeds, err := HaltonIndices(10, []int{20, 20})
	if err != nil {
		t.Fatal(err)
	}
	opt := seedOptimizer(t, cands, seeds)

	for round := 0; round < 5; round++ {
		sugg, err := opt.SuggestBatch(6)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range sugg {
			e, l := synthObjectives(cands[s.Index])
			if err := opt.Observe(Observation{Index: s.Index, Energy: e, Latency: l}); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Ground truth over the full grid.
	all := make([]pareto.Point, len(cands))
	for i, c := range cands {
		e, l := synthObjectives(c)
		all[i] = pareto.Point{X: e, Y: l}
	}
	ref, err := pareto.ReferenceFrom(all)
	if err != nil {
		t.Fatal(err)
	}
	trueHV := pareto.Hypervolume(all, ref)
	gotHV := pareto.Hypervolume(opt.Front(), ref)
	if frac := gotHV / trueHV; frac < 0.95 {
		t.Errorf("BO front covers %.1f%% of true hypervolume, want ≥95%%", frac*100)
	}
	if explored := opt.NumObserved(); explored > len(cands)/4 {
		t.Errorf("explored %d of %d candidates — too many", explored, len(cands))
	}
}

func TestObservationsReturnsCopy(t *testing.T) {
	opt := seedOptimizer(t, gridCandidates(3, 3), []int{0, 4})
	obs := opt.Observations()
	if len(obs) != 2 {
		t.Fatalf("got %d observations", len(obs))
	}
	obs[0].Energy = -1
	if opt.Observations()[0].Energy == -1 {
		t.Error("Observations exposes internal state")
	}
}

func TestHypervolumeAndReference(t *testing.T) {
	opt := seedOptimizer(t, gridCandidates(5, 5), []int{0, 6, 12, 18, 24})
	ref, err := opt.Reference()
	if err != nil {
		t.Fatal(err)
	}
	for _, ob := range opt.Observations() {
		if ob.Energy > ref.X+1e-12 || ob.Latency > ref.Y+1e-12 {
			t.Errorf("reference %v does not bound observation %+v", ref, ob)
		}
	}
	hv, err := opt.Hypervolume()
	if err != nil {
		t.Fatal(err)
	}
	if hv < 0 {
		t.Errorf("negative hypervolume %v", hv)
	}
}

func TestPosteriorAt(t *testing.T) {
	opt := seedOptimizer(t, gridCandidates(5, 5), []int{0, 6, 12, 18, 24})
	g, err := opt.PosteriorAt(12)
	if err != nil {
		t.Fatal(err)
	}
	e, l := synthObjectives(gridCandidates(5, 5)[12])
	if math.Abs(g.MuX-e)/e > 0.5 {
		t.Errorf("posterior energy mean %v far from observed %v", g.MuX, e)
	}
	if math.Abs(g.MuY-l)/l > 0.5 {
		t.Errorf("posterior latency mean %v far from observed %v", g.MuY, l)
	}
	if _, err := opt.PosteriorAt(-1); err == nil {
		t.Error("negative index accepted")
	}
}
