package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.median and
	// statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{3.5, 1.25, 9.0, 4.0, 2.0}, 3.5, 1.625, 6.5},
		{[]float64{0.91, 0.95, 0.93}, 0.93, 0.91, 0.95},
	} {
		q1, q3, err := quartiles(tc.xs)
		if err != nil {
			t.Fatal(err)
		}
		if m := median(tc.xs); m != tc.med || q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("%v: median %v quartiles %v %v, want %v %v %v", tc.xs, m, q1, q3, tc.med, tc.q1, tc.q3)
		}
	}
	if _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value should fail")
	}
}

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: the choice must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n, p int
		v    float64
	}{
		{11, 9, 1},    // the smallest sample is the only one with 10 beyond
		{20, 50, 10},  // p50: rank 10, samples 11..20 beyond
		{40, 75, 30},  // p75: rank 30
		{100, 90, 90}, // p90: rank 90
		{1000, 99, 990},
	} {
		p, v, ok := tailPercentile(ramp(tc.n))
		if !ok || p != tc.p || v != tc.v {
			t.Errorf("n=%d: p%d = %v (ok %v), want p%d = %v", tc.n, p, v, ok, tc.p, tc.v)
		}
		if beyond := tc.n - int(v); beyond < tailRank {
			t.Errorf("n=%d: only %d samples beyond", tc.n, beyond)
		}
	}
	if _, _, ok := tailPercentile(ramp(10)); ok {
		t.Error("10 samples cannot leave 10 beyond any percentile")
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 104, 98, 107, 101, 99, 103, 106, 102, 105}
	pairsOf := func(change []float64) [][2]float64 {
		var ps [][2]float64
		for i := range base {
			ps = append(ps, [2]float64{base[i], change[i]})
		}
		return ps
	}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}

	// A shift smaller than the base's spread wins every pair but stays
	// unresolved.
	inside := shift(-2)
	c, err := compareRuns(base, inside, pairsOf(inside), true, 0.1)
	if err != nil || c.verdict != verdictUnresolved || c.wins != 10 {
		t.Errorf("shift inside the spread: %+v, %v", c, err)
	}

	// A clean shift that wins 9 of 10 pairs is better.
	clean := shift(-12)
	clean[3] = base[3] + 1
	c, err = compareRuns(base, clean, pairsOf(clean), true, 0.1)
	if err != nil || c.verdict != verdictBetter || c.wins != 9 {
		t.Errorf("clean shift: %+v, %v", c, err)
	}

	// The same shift winning only 8 of 10 is unresolved.
	clean[4] = base[4] + 1
	if c, _ = compareRuns(base, clean, pairsOf(clean), true, 0.1); c.verdict != verdictUnresolved {
		t.Errorf("8 of 10 wins: %+v", c)
	}

	// A median more than the bound worse is worse; for a higher-is-better
	// metric the same values are better.
	slow := shift(15)
	if c, _ = compareRuns(base, slow, pairsOf(slow), true, 0.1); c.verdict != verdictWorse {
		t.Errorf("slower beyond the bound: %+v", c)
	}
	if c, _ = compareRuns(base, slow, pairsOf(slow), false, 0.1); c.verdict != verdictBetter {
		t.Errorf("higher is better: %+v", c)
	}
}

func TestSeedFixesInputs(t *testing.T) {
	p1, e1 := flatInputs(1, 20, 64)
	p2, e2 := flatInputs(1, 20, 64)
	p3, e3 := flatInputs(2, 20, 64)
	if !reflect.DeepEqual(p1, p2) || !reflect.DeepEqual(e1, e2) {
		t.Error("round-flat: same seed, different inputs")
	}
	if reflect.DeepEqual(p1, p3) || reflect.DeepEqual(e1, e3) {
		t.Error("round-flat: different seeds, same inputs")
	}

	g1, d1, err := httpData(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	g2, d2, _ := httpData(1, 2)
	g3, d3, _ := httpData(2, 2)
	if !reflect.DeepEqual(g1, g2) || !reflect.DeepEqual(d1, d2) {
		t.Error("round-http: same seed, different inputs")
	}
	if reflect.DeepEqual(g1, g3) || reflect.DeepEqual(d1, d3) {
		t.Error("round-http: different seeds, same inputs")
	}

	pa, _ := newPace(1, 10, nil)
	pb, _ := newPace(1, 10, nil)
	pc, _ := newPace(2, 10, nil)
	da, _ := pa.deadlines(3)
	db, _ := pb.deadlines(3)
	dc, _ := pc.deadlines(3)
	d0, _ := pa.deadlines(0)
	if !reflect.DeepEqual(da, db) || reflect.DeepEqual(da, dc) || reflect.DeepEqual(da, d0) {
		t.Error("pace: deadlines do not follow the seed and task")
	}

	global := []float64{0.5, -1, 2}
	u1, u2, u3 := make([]float64, 3), make([]float64, 3), make([]float64, 3)
	w1, w2, w3 := fleetUpdate(1)(7, global, u1), fleetUpdate(1)(7, global, u2), fleetUpdate(2)(7, global, u3)
	if w1 != w2 || !reflect.DeepEqual(u1, u2) {
		t.Error("fleet: same seed, different updates")
	}
	if w1 == w3 && reflect.DeepEqual(u1, u3) {
		t.Error("fleet: different seeds, same updates")
	}
}

// runOutcome builds a small workload from the seed, passes its set-up check
// and returns the outcome of two consecutive iterations.
func runOutcome(t *testing.T, build func(seed int64, pr *probe) (workload, error), seed int64) (outcome, outcome) {
	t.Helper()
	w, err := build(seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	first, err := w.iterate(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.check(first); err != nil {
		t.Fatal(err)
	}
	next, err := w.iterate(0)
	if err != nil {
		t.Fatal(err)
	}
	return first, next
}

func TestSeedFixesOutcomes(t *testing.T) {
	small := map[string]func(seed int64, pr *probe) (workload, error){
		"pace": func(seed int64, pr *probe) (workload, error) {
			return asWorkload(newPace(seed, 12, pr))
		},
		"round-flat": func(seed int64, pr *probe) (workload, error) {
			return asWorkload(newFlat(seed, 40, 3000, pr))
		},
		"round-http": func(seed int64, pr *probe) (workload, error) {
			return asWorkload(newRoundHTTP(seed, 3, pr))
		},
		"fleet": func(seed int64, pr *probe) (workload, error) {
			return asWorkload(newFleet(seed, 5000, 2, pr))
		},
	}
	for name, build := range small {
		t.Run(name, func(t *testing.T) {
			a, a2 := runOutcome(t, build, 1)
			b, _ := runOutcome(t, build, 1)
			if a != b || a != a2 {
				t.Errorf("seed 1 outcomes differ: %+v, %+v, %+v", a, a2, b)
			}
			if name == "fleet" || name == "pace" {
				if c, _ := runOutcome(t, build, 2); c == a {
					t.Errorf("seeds 1 and 2 give the same outcome %+v", a)
				}
			}
		})
	}
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json and the metrics the
// harness prints in step.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, s := range specs {
		want = append(want, s.name)
	}
	if got := names(b.Workloads, false); !reflect.DeepEqual(got, want) {
		t.Errorf("workloads %v, harness runs %v", got, want)
	}
	if got, want := names(b.EndToEnd, true), defNames(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end %v, harness reports %v", got, want)
	}
	if got, want := names(b.PerLayer, true), defNames(append(append([]metricDef(nil), perLayer...), outcomes...)); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer %v, harness reports %v", got, want)
	}
}

type named struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func names(list []named, withUnit bool) []string {
	var out []string
	for _, n := range list {
		if withUnit {
			out = append(out, n.Name+" "+n.Unit)
		} else {
			out = append(out, n.Name)
		}
	}
	return out
}

func defNames(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name+" "+d.unit)
	}
	return out
}
