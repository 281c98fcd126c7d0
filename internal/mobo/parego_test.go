package mobo

import (
	"math"
	"reflect"
	"testing"

	"bofl/internal/pareto"
)

func TestNewParEGOValidation(t *testing.T) {
	if _, err := NewParEGO(nil, Options{}); err == nil {
		t.Error("empty candidates accepted")
	}
	if _, err := NewParEGO([][]float64{{}}, Options{}); err == nil {
		t.Error("zero-dim candidates accepted")
	}
	if _, err := NewParEGO([][]float64{{1}, {1, 2}}, Options{}); err == nil {
		t.Error("ragged candidates accepted")
	}
}

func TestParEGOObserveValidation(t *testing.T) {
	p, err := NewParEGO([][]float64{{0}, {1}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Observe(Observation{Index: 7}); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := p.SuggestBatch(1); err == nil {
		t.Error("suggest before observe accepted")
	}
}

// TestParEGOObserveRejectsWholeBatch checks that a batch holding one bad
// observation records none of the batch: the optimizer stays in step with a
// twin that never saw the batch, in its observed count and its next
// suggestions.
func TestParEGOObserveRejectsWholeBatch(t *testing.T) {
	cands := gridCandidates(6, 6)
	twins := make([]*ParEGO, 2)
	for i := range twins {
		p, err := NewParEGO(cands, Options{Seed: 4, Restarts: 1, Iters: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, idx := range []int{0, 7, 14, 21, 35} {
			e, l := synthObjectives(cands[idx])
			if err := p.Observe(Observation{Index: idx, Energy: e, Latency: l}); err != nil {
				t.Fatal(err)
			}
		}
		twins[i] = p
	}
	good := Observation{Index: 3, Energy: 1, Latency: 1}
	for _, bad := range []Observation{{Index: len(cands)}, {Index: 2, X: []float64{0.5}}} {
		if err := twins[1].Observe(good, bad); err == nil {
			t.Fatalf("batch with bad observation %+v accepted", bad)
		}
	}
	if a, b := twins[0].NumObserved(), twins[1].NumObserved(); a != b {
		t.Fatalf("rejected batches changed NumObserved: %d → %d", a, b)
	}
	want, err := twins[0].SuggestBatch(3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := twins[1].SuggestBatch(3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rejected batches changed the next batch:\n  %v\nvs\n  %v", want, got)
	}
}

func TestScalarize(t *testing.T) {
	// Equal weights, equal objectives: max + rho·sum.
	got := scalarize(1, 1, 0.5)
	want := 0.5 + 0.05*1.0
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("scalarize = %v, want %v", got, want)
	}
	// w=1 ignores the second objective's max term.
	if scalarize(0.2, 100, 1) > 0.2+0.05*0.2+1e-12 {
		t.Error("w=1 should zero out the second objective")
	}
}

func TestParEGOFindsGoodFront(t *testing.T) {
	cands := gridCandidates(15, 15)
	p, err := NewParEGO(cands, Options{Seed: 3, Restarts: 2, Iters: 5})
	if err != nil {
		t.Fatal(err)
	}
	seeds, err := HaltonIndices(10, []int{15, 15})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range seeds {
		e, l := synthObjectives(cands[i])
		if err := p.Observe(Observation{Index: i, Energy: e, Latency: l}); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 5; round++ {
		sugg, err := p.SuggestBatch(5)
		if err != nil {
			t.Fatal(err)
		}
		if len(sugg) == 0 {
			t.Fatal("no suggestions")
		}
		for _, s := range sugg {
			if p.observed[s.Index] {
				t.Fatalf("suggested already-observed %d", s.Index)
			}
			e, l := synthObjectives(cands[s.Index])
			if err := p.Observe(Observation{Index: s.Index, Energy: e, Latency: l}); err != nil {
				t.Fatal(err)
			}
		}
	}
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
	gotHV := pareto.Hypervolume(p.Front(), ref)
	if frac := gotHV / trueHV; frac < 0.85 {
		t.Errorf("ParEGO front covers %.1f%% of true hypervolume, want ≥85%%", frac*100)
	}
}

func TestParEGOBatchDistinct(t *testing.T) {
	cands := gridCandidates(6, 6)
	p, err := NewParEGO(cands, Options{Seed: 4, Restarts: 1, Iters: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 7, 14, 21, 28, 35} {
		e, l := synthObjectives(cands[i])
		if err := p.Observe(Observation{Index: i, Energy: e, Latency: l}); err != nil {
			t.Fatal(err)
		}
	}
	sugg, err := p.SuggestBatch(4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, s := range sugg {
		if seen[s.Index] {
			t.Fatalf("duplicate suggestion %d", s.Index)
		}
		seen[s.Index] = true
	}
	if sugg2, err := p.SuggestBatch(0); err != nil || sugg2 != nil {
		t.Errorf("SuggestBatch(0) = %v, %v", sugg2, err)
	}
}

func TestParEGOConstantObjectives(t *testing.T) {
	// Degenerate spans must not divide by zero.
	cands := gridCandidates(4, 4)
	p, err := NewParEGO(cands, Options{Seed: 5, Restarts: 1, Iters: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 5, 10} {
		if err := p.Observe(Observation{Index: i, Energy: 1, Latency: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.SuggestBatch(2); err != nil {
		t.Fatalf("constant objectives broke ParEGO: %v", err)
	}
}
