package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchFile is the part of BENCHMARK.json the comparator reads.
type benchFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// Verdicts.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// comparison is one workload × metric row.
type comparison struct {
	baseMed, baseQ1, baseQ3 float64
	chgMed, chgQ1, chgQ3    float64
	wins, pairs             int
	verdict                 string
}

// compareRuns judges a change against a base from their per-run values of
// one metric, paired run for run (pairs[i] = {base, change}):
//   - better: the change wins at least nine tenths of the pairs, ties
//     counting for neither, and its median beats the base median by more
//     than the distance between the base's quartiles;
//   - worse: the change's median is worse than the base median by more than
//     bound, a share of the base median;
//   - unresolved otherwise.
func compareRuns(base, change []float64, pairs [][2]float64, lowerIsBetter bool, bound float64) (comparison, error) {
	var c comparison
	var err error
	if c.baseQ1, c.baseQ3, err = quartiles(base); err != nil {
		return c, err
	}
	if c.chgQ1, c.chgQ3, err = quartiles(change); err != nil {
		return c, err
	}
	c.baseMed, c.chgMed = median(base), median(change)
	// gain is how much better the change's median is, in the metric's units.
	gain := c.baseMed - c.chgMed
	if !lowerIsBetter {
		gain = -gain
	}
	for _, p := range pairs {
		d := p[0] - p[1]
		if !lowerIsBetter {
			d = -d
		}
		if d > 0 {
			c.wins++
		}
	}
	c.pairs = len(pairs)
	switch {
	case c.pairs > 0 && c.wins*10 >= 9*c.pairs && gain > c.baseQ3-c.baseQ1:
		c.verdict = verdictBetter
	case -gain > bound*math.Abs(c.baseMed):
		c.verdict = verdictWorse
	default:
		c.verdict = verdictUnresolved
	}
	return c, nil
}

// readResults loads the untraced results of one result set.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace == 0 {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// pairRuns pairs base and change runs by seed, or in file order when the two
// sets share no seed.
func pairRuns(base, change []result, metric string) [][2]float64 {
	bySeed := map[int64]result{}
	for _, r := range base {
		bySeed[r.Host.Seed] = r
	}
	var pairs [][2]float64
	for _, c := range change {
		if b, ok := bySeed[c.Host.Seed]; ok {
			pairs = append(pairs, [2]float64{b.Metrics[metric].Value, c.Metrics[metric].Value})
		}
	}
	if len(pairs) > 0 {
		return pairs
	}
	for i := 0; i < min(len(base), len(change)); i++ {
		pairs = append(pairs, [2]float64{base[i].Metrics[metric].Value, change[i].Metrics[metric].Value})
	}
	return pairs
}

// outcomeMismatches lists the runs whose deterministic outcomes differ from
// another run of the same workload and seed, in either set.
func outcomeMismatches(runs []result) []string {
	type key struct {
		workload string
		seed     int64
	}
	first := map[key]result{}
	var bad []string
	for _, r := range runs {
		k := key{r.Workload, r.Host.Seed}
		f, ok := first[k]
		if !ok {
			first[k] = r
			continue
		}
		for _, d := range outcomes {
			if d.name != "fail_ratio" && f.Outcomes[d.name] != r.Outcomes[d.name] {
				bad = append(bad, fmt.Sprintf("%s seed %d %s: %v vs %v",
					r.Workload, r.Host.Seed, d.name, f.Outcomes[d.name].Value, r.Outcomes[d.name].Value))
			}
		}
	}
	return bad
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare BASE.jsonl CHANGE.jsonl (run from the directory holding BENCHMARK.json)")
		return 2
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 1
	}
	var bench benchFile
	if err := json.Unmarshal(raw, &bench); err != nil {
		fmt.Fprintf(stderr, "perfbench compare: BENCHMARK.json: %v\n", err)
		return 1
	}
	base, err := readResults(args[0])
	if err == nil {
		var change []result
		change, err = readResults(args[1])
		if err == nil {
			err = printComparison(stdout, bench, base, change)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 1
	}
	return 0
}

func printComparison(w io.Writer, bench benchFile, base, change []result) error {
	byWorkload := func(rs []result) map[string][]result {
		m := map[string][]result{}
		for _, r := range rs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	bw, cw := byWorkload(base), byWorkload(change)
	var names []string
	for name := range bw {
		if _, ok := cw[name]; ok {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("the result sets share no workload")
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-11s %-18s %-35s %-35s %8s %6s  %s\n",
		"workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "shift", "won", "verdict")
	for _, name := range names {
		b, c := bw[name], cw[name]
		for _, m := range bench.EndToEnd {
			var bv, cv []float64
			for _, r := range b {
				bv = append(bv, r.Metrics[m.Name].Value)
			}
			for _, r := range c {
				cv = append(cv, r.Metrics[m.Name].Value)
			}
			row, err := compareRuns(bv, cv, pairRuns(b, c, m.Name), m.Better == "lower", m.Bound)
			if err != nil {
				return fmt.Errorf("%s %s: %w", name, m.Name, err)
			}
			fmt.Fprintf(w, "%-11s %-18s %-35s %-35s %+7.2f%% %6s  %s\n", name, m.Name,
				fmt.Sprintf("%.5g [%.5g, %.5g] %s", row.baseMed, row.baseQ1, row.baseQ3, m.Unit),
				fmt.Sprintf("%.5g [%.5g, %.5g] %s", row.chgMed, row.chgQ1, row.chgQ3, m.Unit),
				(row.chgMed/row.baseMed-1)*100, fmt.Sprintf("%d/%d", row.wins, row.pairs), row.verdict)
		}
	}
	failed := func(rs []result) (n int) {
		for _, r := range rs {
			if r.Failed > 0 {
				n++
			}
		}
		return n
	}
	fmt.Fprintf(w, "runs with failed iterations or checks: base %d of %d, change %d of %d\n",
		failed(base), len(base), failed(change), len(change))
	if bad := outcomeMismatches(append(append([]result(nil), base...), change...)); len(bad) > 0 {
		fmt.Fprintf(w, "outcomes differ between runs of one seed:\n")
		for _, s := range bad {
			fmt.Fprintf(w, "  %s\n", s)
		}
	} else {
		fmt.Fprintf(w, "outcomes (energy_kj, deadline_miss_ratio, regret_pct) identical across runs of each seed\n")
	}
	return nil
}
