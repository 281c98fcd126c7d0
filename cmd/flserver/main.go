// Command flserver orchestrates a federated learning task over HTTP client
// daemons (cmd/flclient): per round it selects participants, assigns a
// deadline, dispatches training and aggregates the updates with the
// configured strategy (-aggregator: fedavg, fedprox, fednova or scaffold).
//
// Usage:
//
//	flserver -clients http://127.0.0.1:8071,http://127.0.0.1:8072 -rounds 20
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"bofl/internal/faultinject"
	"bofl/internal/fl"
	"bofl/internal/ml"
	"bofl/internal/obs"
	"bofl/internal/obs/ledger"
	"bofl/internal/parallel"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "flserver:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("flserver", flag.ContinueOnError)
	var (
		clients  = fs.String("clients", "", "comma-separated client base URLs to dial directly")
		checkin  = fs.String("checkin", "", "listen address for client check-ins (Figure 1 step 1), e.g. :8070")
		minPool  = fs.Int("min-pool", 1, "with -checkin: wait until this many clients registered")
		rounds   = fs.Int("rounds", 20, "FL rounds")
		jobs     = fs.Int("jobs", 100, "jobs (minibatches) per round")
		ratio    = fs.Float64("ratio", 2.0, "deadline ratio T_max/T_min")
		perRound = fs.Int("per-round", 0, "participants per round (0 = all)")
		seed     = fs.Int64("seed", 1, "random seed")
		timeout  = fs.Duration("timeout", 5*time.Minute, "per-round HTTP timeout")
		admin    = fs.String("admin", "", "serve /metrics, /healthz, /v1/telemetry and /v1/ledger on this address (empty = off)")
		hold     = fs.Duration("hold", 0, "keep the process (and admin endpoints) alive this long after the last round")
		pprofFlg = fs.String("pprof", "", "also serve net/http/pprof on this address (empty = off)")
		fanout   = fs.Int("fanout", 0, "round dispatch width: max concurrent participant requests (0 = GOMAXPROCS)")

		aggName = fs.String("aggregator", "fedavg", "aggregation strategy: fedavg, fedprox, fednova or scaffold")
		proxMu  = fs.Float64("prox-mu", 0, "with -aggregator fedprox: proximal term coefficient μ")

		treeFanout = fs.Int("tree-fanout", 0, "hierarchical aggregation: children per tree aggregator node (0 = flat fold, ≥2 = tree)")
		tierQuorum = fs.Float64("tier-quorum", 0, "with -tree-fanout: fraction of an aggregator's children that must deliver or its whole subtree drops (0 = off)")

		quorum      = fs.Float64("quorum", 0, "fraction of selected clients whose updates must arrive for a round to commit (0 = legacy strict/tolerant semantics, >0 implies dropout tolerance)")
		retries     = fs.Int("retries", 1, "attempts per participant per round (1 = no retries)")
		retryBudget = fs.Int("retry-budget", 0, "total retries allowed across all participants per round (0 = unbounded)")
		attemptTO   = fs.Duration("attempt-timeout", 0, "per-attempt timeout before a participant is stripped as a straggler (0 = unbounded)")

		chaosSeed     = fs.Int64("chaos-seed", 0, "seed for the deterministic fault plan (0 = chaos off)")
		chaosDrop     = fs.Float64("chaos-drop", 0, "per-attempt probability a client drops before training")
		chaosCrash    = fs.Float64("chaos-crash", 0, "per-attempt probability a client trains but dies before reporting")
		chaosTimeout  = fs.Float64("chaos-timeout", 0, "per-attempt probability a client hangs past the attempt timeout")
		chaosCorrupt  = fs.Float64("chaos-corrupt", 0, "per-attempt probability a client ships a corrupt frame (quarantines it)")
		chaosStraggle = fs.Float64("chaos-straggle", 0, "per-attempt probability a client straggles")
		chaosStragMin = fs.Duration("chaos-straggle-min", 0, "minimum injected straggler delay")
		chaosStragMax = fs.Duration("chaos-straggle-max", 30*time.Second, "maximum injected straggler delay")
		chaosFlaky    = fs.Int("chaos-flaky", 0, "every client fails its first N attempts per round, then recovers")

		ledgerPath = fs.String("ledger", "", "journal every round's ledger events to this JSONL file (empty = off)")
		ledgerMax  = fs.Int("ledger-max", 0, "in-memory ledger ring size in events (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// How many clients the round can select — URL count when dialing
	// directly, the check-in floor otherwise.
	poolHint := *minPool
	if *clients != "" {
		poolHint = 0
		for _, url := range strings.Split(*clients, ",") {
			if strings.TrimSpace(url) != "" {
				poolHint++
			}
		}
	}
	requested := *fanout
	if requested <= 0 {
		requested = parallel.Workers()
	}
	dispatch, err := validateDispatch(requested, *treeFanout, *tierQuorum, poolHint, *retryBudget)
	if err != nil {
		return err
	}
	if dispatch < requested {
		fmt.Printf("dispatch width clamped %d -> %d: a depth-%d tree of fanout %d cannot fold more leaves concurrently\n",
			requested, dispatch, treeDepth(*treeFanout, poolHint), *treeFanout)
	}
	parallel.SetWorkers(dispatch)
	var policy faultinject.Policy
	if *chaosSeed != 0 {
		policy = &faultinject.Plan{
			Seed: *chaosSeed,
			Default: faultinject.Profile{
				FlakyAttempts: *chaosFlaky,
				Drop:          *chaosDrop,
				Crash:         *chaosCrash,
				Timeout:       *chaosTimeout,
				Corrupt:       *chaosCorrupt,
				Straggle:      *chaosStraggle,
				StraggleMin:   *chaosStragMin,
				StraggleMax:   *chaosStragMax,
			},
		}
		fmt.Printf("chaos plan armed (seed %d)\n", *chaosSeed)
	}

	global, err := ml.NewMLP(8, 16, 4, 42)
	if err != nil {
		return err
	}
	var selector fl.Selector = fl.AllSelector{}
	if *perRound > 0 {
		selector = fl.NewRandomSelector(*seed)
	}
	// The round ledger is always on: it is cheap (structured appends into a
	// bounded ring) and it is the artifact the post-mortem tooling
	// (boflprofile -ledger, GET /v1/ledger) reads.
	led := ledger.New(*ledgerMax)
	if *ledgerPath != "" {
		f, err := os.Create(*ledgerPath)
		if err != nil {
			return fmt.Errorf("ledger sink: %w", err)
		}
		defer func() {
			_ = led.Flush()
			_ = f.Close()
		}()
		led.SetSink(f)
		fmt.Printf("ledger journal -> %s\n", *ledgerPath)
	}
	agg, err := fl.NewAggregator(*aggName, *proxMu)
	if err != nil {
		return err
	}
	if agg.Name() != fl.AlgFedAvg {
		fmt.Printf("aggregation strategy: %s\n", agg.Name())
	}
	var tree *fl.TreeConfig
	if *treeFanout > 0 {
		tree = &fl.TreeConfig{Fanout: *treeFanout, TierQuorum: *tierQuorum}
		fmt.Printf("hierarchical aggregation: fanout %d, tier quorum %v\n", *treeFanout, *tierQuorum)
	}
	srv, err := fl.NewServer(fl.ServerConfig{
		InitialParams:        global.Params(),
		Jobs:                 *jobs,
		DeadlineRatio:        *ratio,
		Selector:             selector,
		ParticipantsPerRound: *perRound,
		Seed:                 *seed,
		Quorum:               *quorum,
		Tree:                 tree,
		Retry: fl.RetryConfig{
			MaxAttempts:    *retries,
			AttemptTimeout: *attemptTO,
			Budget:         *retryBudget,
			Seed:           *seed,
		},
		FaultPolicy: policy,
		Ledger:      led,
		Aggregator:  agg,
	})
	if err != nil {
		return err
	}
	// Server-side telemetry: the server folds client round reports into the
	// BoFL domain instruments, so one scrape of the admin endpoint shows
	// federation-wide energy, deadline misses and controller phases.
	tel := obs.NewBoFL(obs.Real{})
	srv.SetSink(tel)
	if *admin != "" {
		mux := http.NewServeMux()
		tel.Mount(mux)
		mux.Handle("GET /v1/ledger", led.Handler())
		go func() {
			if err := obs.NewServer(*admin, mux).ListenAndServe(); err != nil {
				fmt.Fprintln(os.Stderr, "flserver: admin listener:", err)
			}
		}()
		fmt.Printf("admin endpoints on %s (/metrics /healthz /v1/telemetry /v1/ledger)\n", *admin)
	}
	if *pprofFlg != "" {
		obs.ServePprof(*pprofFlg)
		fmt.Printf("pprof on http://%s/debug/pprof/\n", *pprofFlg)
	}
	switch {
	case *checkin != "":
		// Figure 1, step 1: wait for devices to check in.
		reg := fl.NewRegistry(*timeout)
		httpSrv := obs.NewServer(*checkin, reg.Handler())
		go func() {
			if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "flserver: check-in listener:", err)
			}
		}()
		defer httpSrv.Close()
		fmt.Printf("waiting for %d client(s) to check in on %s\n", *minPool, *checkin)
		for reg.Len() < *minPool {
			time.Sleep(200 * time.Millisecond)
		}
		for _, p := range reg.Participants() {
			if ss, ok := p.(interface{ SetSink(obs.Sink) }); ok {
				ss.SetSink(tel)
			}
			srv.Register(p)
			fmt.Printf("registered %s via check-in\n", p.ID())
		}
	case *clients != "":
		for _, url := range strings.Split(*clients, ",") {
			url = strings.TrimSpace(url)
			if url == "" {
				continue
			}
			p, err := fl.DialParticipant(url, *timeout)
			if err != nil {
				return err
			}
			p.SetSink(tel)
			srv.Register(p)
			fmt.Printf("registered %s at %s\n", p.ID(), url)
		}
	default:
		return fmt.Errorf("need -clients or -checkin")
	}
	if err := orchestrate(srv, *rounds, os.Stdout); err != nil {
		return err
	}
	// Make the journal durable before any hold period: a scraper (or a CI
	// smoke kill) must find every committed round on disk already.
	if err := led.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "flserver: ledger sink: %v\n", err)
	}
	if *hold > 0 {
		// Leave the admin endpoints scrapeable after the run — the CI smoke
		// test curls /metrics once the rounds are done.
		fmt.Printf("holding for %v\n", *hold)
		time.Sleep(*hold)
	}
	return nil
}

// orchestrate drives the federation for the given number of rounds, printing
// per-round summaries.
func orchestrate(srv *fl.Server, rounds int, out io.Writer) error {
	for r := 0; r < rounds; r++ {
		res, err := srv.RunRound()
		if err != nil {
			return err
		}
		var energy float64
		misses := 0
		for _, rep := range res.Reports {
			energy += rep.Energy
			if !rep.DeadlineMet {
				misses++
			}
		}
		casualties := ""
		if len(res.Dropped) > 0 {
			casualties = fmt.Sprintf(", %d dropped (%d stragglers, %d quarantined)",
				len(res.Dropped), len(res.Stragglers), len(res.Quarantined))
		}
		fmt.Fprintf(out, "round %3d: deadline %6.1fs, %d participants, %8.1f J, %d misses%s, trace %s\n",
			res.Round, res.Deadline, len(res.Responses), energy, misses, casualties, res.TraceID)
	}
	fmt.Fprintln(out, "done; global model aggregated over", rounds, "rounds")
	return nil
}

// treeDepth is the number of aggregation tiers a fanout-ary tree needs over a
// pool of the given size (1 when the whole pool fits under one node).
func treeDepth(fanout, pool int) int {
	if fanout < 2 || pool <= 0 {
		return 0
	}
	depth := 1
	for span := fanout; span < pool; span *= fanout {
		depth++
	}
	return depth
}

// validateDispatch reconciles -fanout (dispatch width), -tree-fanout
// (aggregation tree shape) and -retry-budget before any round runs, returning
// the dispatch width to install.
//
// Two rules govern the interplay:
//
//  1. The fold turnstile admits leaves in index order, so a tree of depth d
//     can have at most tree-fanout × d leaf slots making fold progress at
//     once (one open group per tier); a wider dispatch only parks goroutines
//     at the turnstile. The width is clamped to that bound — a fix, not an
//     error.
//  2. A positive -retry-budget is shared by all concurrent attempts. If the
//     dispatch width exceeds the budget, which attempts draw the last budget
//     tokens becomes a goroutine-scheduling accident: the same seed could
//     journal different "budget" verdicts on different machines, and chaos
//     replays stop being deterministic. That config is rejected.
func validateDispatch(workers, treeFanout int, tierQuorum float64, pool, retryBudget int) (int, error) {
	if treeFanout != 0 && treeFanout < 2 {
		return 0, fmt.Errorf("-tree-fanout %d must be 0 (flat) or ≥ 2", treeFanout)
	}
	if tierQuorum < 0 || tierQuorum > 1 {
		return 0, fmt.Errorf("-tier-quorum %v must be in [0, 1]", tierQuorum)
	}
	if tierQuorum > 0 && treeFanout == 0 {
		return 0, fmt.Errorf("-tier-quorum %v needs -tree-fanout", tierQuorum)
	}
	if workers < 1 {
		return 0, fmt.Errorf("dispatch width %d must be ≥ 1", workers)
	}
	if treeFanout >= 2 && pool > 0 {
		if bound := treeFanout * treeDepth(treeFanout, pool); workers > bound {
			workers = bound
		}
	}
	if retryBudget > 0 && workers > retryBudget {
		return 0, fmt.Errorf(
			"dispatch width %d exceeds -retry-budget %d: concurrent attempts would spend the shared budget in scheduling order and straggler verdicts would not replay; lower -fanout or raise -retry-budget",
			workers, retryBudget)
	}
	return workers, nil
}
