// Command perfbench is the repository's benchmark. It runs closed-loop
// workloads — the next iteration starts only when the previous one returned —
// checks the outputs, and prints the metrics by name with their units; the
// last line of standard output is one JSON object.
//
//	perfbench --workload pace --seed 1 --seconds 20 --trace 0
//	perfbench --workload all --seed 1
//	perfbench compare base.jsonl change.jsonl
//
// An untraced run (--trace 0) reports the end-to-end metrics. A traced run
// (--trace 1) alternates traced and untraced iterations and reports the
// per-layer split of the traced ones, timed from this package alone: by
// wrapping the public interfaces the program calls through and by summing
// the spans it already emits.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"bofl/internal/parallel"
)

// outcome is what one iteration produced, beyond its time. It is a pure
// function of the seed and the task: every iteration of a run that repeats a
// task must reproduce it exactly.
type outcome struct {
	task      int // which of the workload's tasks ran; 0 where there is one
	energyJ   float64
	scheduled int // rounds (pace) or client-rounds scheduled
	missed    int // of which missed their deadline
}

// workload is one benchmark workload, built from the seed.
type workload interface {
	// iterate runs iteration n and checks its outputs. Iterations that
	// share n do the same work.
	iterate(n int) (outcome, error)
	// check runs the set-up-time output check; it may run an extra,
	// untimed iteration.
	check(first outcome) error
	close()
}

type spec struct {
	name string
	// serial workloads run with a pool width of 1. pace does: with its
	// surrogate fits and scans fanned out over two vCPUs, its iter_s spread
	// reached 25% of the median over ten runs, as the speed of two busy
	// threads shifts with their placement.
	serial bool
	// cycle is how many distinct tasks the workload's iterations go through
	// (1 where every iteration does the same work). A run measures whole
	// cycles, so its mix of tasks does not change with the speed of the code.
	cycle int
	build func(seed int64, pr *probe) (workload, error)
	// blocking is the share of one traced iteration, in ms, that the layers
	// on its blocking path account for.
	blocking func(m map[string]float64) float64
}

// Workload sizes. Changing one changes what the benchmark measures.
const (
	paceRounds   = 100
	flatClients  = 1000
	flatDim      = 65_536
	httpClients  = 8
	fleetClients = 200_000
)

var specs = []spec{
	{
		name:   "pace",
		serial: true,
		cycle:  paceTasks,
		build: func(seed int64, pr *probe) (workload, error) {
			return asWorkload(newPace(seed, paceRounds, pr))
		},
		blocking: func(m map[string]float64) float64 {
			return m["device.measure_ms"] + m["core.round_self_ms"] + m["core.between_rounds_ms"]
		},
	},
	{
		name: "round-flat",
		build: func(seed int64, pr *probe) (workload, error) {
			return asWorkload(newFlat(seed, flatClients, flatDim, pr))
		},
		// The turnstile serializes the folds, and each pool worker takes a
		// contiguous run of participants, so a worker's calls and folds
		// alternate on one thread: both sit on the blocking path.
		blocking: func(m map[string]float64) float64 {
			return m["fl.client_ms"] + m["fl.contribute_ms"] + m["exact.add_ms"] +
				m["fl.commit_ms"] + m["exact.round_ms"]
		},
	},
	{
		name: "round-http",
		build: func(seed int64, pr *probe) (workload, error) {
			return asWorkload(newRoundHTTP(seed, httpClients, pr))
		},
		// Clients run pool-width at a time inside the execute phase; their
		// layers are reported as sums over clients.
		blocking: func(m map[string]float64) float64 {
			return m["fl.execute_ms"] + m["fl.commit_ms"] + m["exact.round_ms"]
		},
	},
	{
		name: "fleet",
		build: func(seed int64, pr *probe) (workload, error) {
			return asWorkload(newFleet(seed, fleetClients, fleetWorkers(), pr))
		},
		// Shards run on every worker; their CPU time over the worker count is
		// the wall time they cover.
		blocking: func(m map[string]float64) float64 {
			return (m["fleet.update_ms"] + m["fleet.engine_cpu_ms"]) / float64(fleetWorkers())
		},
	},
}

// asWorkload drops the typed nil a failed constructor returns.
func asWorkload[W workload](w W, err error) (workload, error) {
	if err != nil {
		return nil, err
	}
	return w, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload: pace, round-flat, round-http, fleet or all")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 20, "measured duration per workload")
	trace := fs.Int("trace", 0, "1 reports the per-layer split instead of the end-to-end metrics")
	out := fs.String("out", "", "append each result as one JSON line to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: need --trace 0|1 and --seconds > 0")
		return 2
	}
	var todo []spec
	for _, s := range specs {
		if *name == "all" || *name == s.name {
			todo = append(todo, s)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}

	// Load threads stay within the processors: GOMAXPROCS and the shared
	// pool are capped at nproc.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), nproc))

	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1}
	var results []result
	for _, s := range todo {
		width := runtime.GOMAXPROCS(0)
		if s.serial {
			width = 1
		}
		parallel.SetWorkers(width)
		res, err := runWorkload(s, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", s.name, err)
			return 1
		}
		res.print(stdout)
		if *out != "" {
			if err := res.appendTo(*out); err != nil {
				fmt.Fprintf(stderr, "perfbench: %v\n", err)
				return 1
			}
		}
		results = append(results, res)
	}
	line, err := json.Marshal(summary(results))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
}

// setups is how many times a run sets its workload up; setup_s is the
// median.
const setups = 5

// minIterations keeps the tail percentile at p50 or above, and gives a traced
// run ten iterations of each kind.
const minIterations = 2 * tailRank

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's run. It is printed, and appended to the --out
// file as one JSON line.
type result struct {
	Schema     string                 `json:"schema"`
	Workload   string                 `json:"workload"`
	Trace      int                    `json:"trace"`
	Seconds    float64                `json:"seconds"`
	Host       hostFacts              `json:"host"`
	Iterations int                    `json:"iterations"`
	TailPct    int                    `json:"tail_percentile,omitempty"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Errors     []string               `json:"errors,omitempty"`
	Metrics    map[string]metricValue `json:"metrics"`      // as in the final output line
	Outcomes   map[string]metricValue `json:"outcomes"`     // deterministic at a fixed seed
	Samples    []float64              `json:"iter_seconds"` // untraced iteration times, in run order
}

const maxErrors = 5

func (r *result) fail(err error) {
	r.Failed++
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, err.Error())
	}
}

func runWorkload(s spec, cfg runConfig) (result, error) {
	res := result{
		Schema: "perfbench-v1", Workload: s.name, Seconds: cfg.seconds,
		Host: readHost(cfg.seed), Metrics: map[string]metricValue{}, Outcomes: map[string]metricValue{},
	}
	var pr *probe
	if cfg.trace {
		res.Trace = 1
		pr = newProbe()
	}

	// Set-up: construction through the end of the first, untimed iteration,
	// lazy allocation included. It is repeated and the median reported.
	var setup []float64
	var w workload
	var first outcome
	res.Attempted++
	for i := 0; i < setups; i++ {
		if w != nil {
			w.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if w, err = s.build(cfg.seed, pr); err != nil {
			return res, err
		}
		prev := first
		if first, err = w.iterate(0); err != nil {
			w.close()
			return res, fmt.Errorf("set-up iteration: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
		if i > 0 && first != prev {
			res.fail(fmt.Errorf("set-up %d: outcome %+v, set-up %d gave %+v", i+1, first, i, prev))
		}
	}
	defer w.close()

	if err := w.check(first); err != nil {
		res.fail(fmt.Errorf("set-up check: %w", err))
	}
	regret := 0.0
	if p, ok := w.(*paceWorkload); ok {
		var err error
		if regret, err = p.regretPct(first); err != nil {
			return res, fmt.Errorf("oracle: %w", err)
		}
	}

	// Measurement: a closed loop of whole cycles, stopped at the cycle
	// boundary nearest the configured time. A traced run interleaves
	// untraced iterations, against which tracing's overhead is measured.
	var plain, traced []float64
	var layers []map[string]float64
	seen := map[int]outcome{0: first}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	limit := time.Duration(cfg.seconds * float64(time.Second))
	cycle := max(s.cycle, 1)
	if cfg.trace {
		cycle *= 2
	}
	for i := 0; ; i++ {
		if i%cycle == 0 && i >= minIterations {
			elapsed := time.Since(start)
			if halfCycle := elapsed / time.Duration(2*i/cycle); elapsed+halfCycle >= limit {
				break
			}
		}
		on := cfg.trace && i%2 == 1
		var pool0 parallel.PoolStats
		var gc0 uint32
		var pause0 uint64
		if on {
			pr.take()
			pool0 = parallel.Stats()
			gc0, pause0 = gcSnapshot()
			pr.on.Store(true)
		}
		// A traced run gives each task to one untraced and one traced
		// iteration, so tracing's overhead compares like with like.
		n := i
		if cfg.trace {
			n = i / 2
		}
		t0 := time.Now()
		o, err := w.iterate(n)
		wall := time.Since(t0)
		res.Attempted++
		if on {
			pr.on.Store(false)
			pool1 := parallel.Stats()
			gc1, pause1 := gcSnapshot()
			m := layerValues(traceSample{
				raw:     pr.take(),
				fanouts: pool1.Fanouts - pool0.Fanouts,
				helpers: pool1.HelperAcquires - pool0.HelperAcquires,
				gc:      gc1 - gc0,
				pauseNs: pause1 - pause0,
			})
			wallMs := float64(wall) / 1e6
			m["attrib.unattributed_pct"] = (wallMs - s.blocking(m)) / wallMs * 100
			layers = append(layers, m)
			traced = append(traced, wall.Seconds())
		} else {
			plain = append(plain, wall.Seconds())
		}
		if err != nil {
			res.fail(err)
			continue
		}
		if ref, ok := seen[o.task]; !ok {
			seen[o.task] = o
		} else if o != ref {
			res.fail(fmt.Errorf("iteration %d: outcome %+v, earlier run of the task %+v", i+1, o, ref))
		}
	}
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	// Two collections: the first moves sync.Pool contents to their victim
	// caches, the second frees them.
	runtime.GC()
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)

	iters := float64(len(plain) + len(traced))
	res.Iterations = len(plain) + len(traced)
	res.Samples = plain
	res.Correct = res.Failed == 0
	set := func(dst map[string]metricValue, name, unit string, v float64) {
		dst[name] = metricValue{Value: v, Unit: unit}
	}
	set(res.Outcomes, "energy_kj", "kJ", first.energyJ/1e3)
	set(res.Outcomes, "deadline_miss_ratio", "ratio", float64(first.missed)/float64(first.scheduled))
	set(res.Outcomes, "regret_pct", "%", regret)
	set(res.Outcomes, "fail_ratio", "ratio", float64(res.Failed)/float64(res.Attempted))

	if !cfg.trace {
		p, tail, ok := tailPercentile(plain)
		if !ok {
			return res, errors.New("too few iterations for a tail percentile")
		}
		res.TailPct = p
		set(res.Metrics, "setup_s", "s", median(setup))
		set(res.Metrics, "iter_s", "s", median(plain))
		set(res.Metrics, "iter_tail_s", "s", tail)
		set(res.Metrics, "alloc_mb_per_iter", "MB", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6/iters)
		set(res.Metrics, "live_heap_mb", "MB", float64(live.HeapAlloc)/1e6)
		return res, nil
	}
	for _, d := range perLayer {
		var xs []float64
		for _, m := range layers {
			xs = append(xs, m[d.name])
		}
		set(res.Metrics, d.name, d.unit, median(xs))
	}
	set(res.Metrics, "cpu_s_per_iter", "s", cpu.Seconds()/iters)
	set(res.Metrics, "trace.overhead_pct", "%", (median(traced)/median(plain)-1)*100)
	for name, v := range res.Outcomes {
		res.Metrics[name] = v
	}
	return res, nil
}

// print writes the human-readable report: host facts, then one line per
// metric with its unit.
func (r *result) print(w io.Writer) {
	h := r.Host
	fmt.Fprintf(w, "# %s trace=%d seed=%d nproc=%d gomaxprocs=%d pool_width=%d go=%s cpu=%q\n",
		r.Workload, r.Trace, h.Seed, h.NumCPU, h.GOMAXPROCS, h.PoolWidth, h.GoVersion, h.CPUModel)
	fmt.Fprintf(w, "# %s iterations=%d attempted=%d failed=%d", r.Workload, r.Iterations, r.Attempted, r.Failed)
	if r.TailPct > 0 {
		fmt.Fprintf(w, " iter_tail_s=p%d", r.TailPct)
	}
	fmt.Fprintln(w)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "# %s error: %s\n", r.Workload, e)
	}
	defs := endToEnd
	if r.Trace == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%s %s %.6g %s\n", r.Workload, d.name, r.Metrics[d.name].Value, d.unit)
	}
	for _, d := range outcomes {
		fmt.Fprintf(w, "%s %s %.6g %s\n", r.Workload, d.name, r.Outcomes[d.name].Value, d.unit)
	}
}

func (r *result) appendTo(path string) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report is the final line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summary folds the results into the final line. With one workload its
// metrics keep their names; with several each is prefixed by its workload.
func summary(results []result) report {
	rep := report{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range results {
		rep.Correct = rep.Correct && r.Correct
		rep.Attempted += r.Attempted
		rep.Failed += r.Failed
		for name, v := range r.Metrics {
			if len(results) > 1 {
				name = r.Workload + "." + name
			}
			rep.Metrics[name] = v
		}
	}
	return rep
}
