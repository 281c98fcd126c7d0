// Command flclient runs an FL client daemon: a simulated edge device that
// trains a shared model on local synthetic data under BoFL pace control and
// serves the training endpoint over HTTP for cmd/flserver.
//
// Usage:
//
//	flclient -listen :8071 -id edge-0 -device agx -seed 1
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"bofl/internal/core"
	"bofl/internal/device"
	"bofl/internal/fl"
	"bofl/internal/ml"
	"bofl/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "flclient:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("flclient", flag.ContinueOnError)
	listen := fs.String("listen", ":8071", "HTTP listen address")
	server := fs.String("server", "", "optional flserver check-in URL, e.g. http://127.0.0.1:8070")
	advertise := fs.String("advertise", "", "base URL the server should dial back (default http://127.0.0.1<listen>)")
	checkinRetries := fs.Int("checkin-retries", 5, "check-in attempts against an unreachable server")
	checkinTimeout := fs.Duration("checkin-timeout", 10*time.Second, "per-attempt check-in deadline")
	pprofAddr := fs.String("pprof", "", "also serve net/http/pprof on this address (empty = off)")
	noSpans := fs.Bool("no-span-report", false, "ignore server trace contexts and return no client span summaries in round reports")
	cfg, err := parseClientFlags(fs, args)
	if err != nil {
		return err
	}
	client, err := buildClient(cfg)
	if err != nil {
		return err
	}
	if *server != "" {
		// Figure 1, step 1: announce ourselves to the server.
		base := *advertise
		if base == "" {
			base = "http://127.0.0.1" + *listen
		}
		go func() {
			time.Sleep(300 * time.Millisecond) // let the listener come up
			// Each attempt is context-bounded, so a dead or hung server
			// can't wedge the daemon; backoff doubles between attempts.
			req := fl.CheckinRequest{ClientID: cfg.id, BaseURL: base, Device: cfg.devName}
			backoff := 500 * time.Millisecond
			for attempt := 0; ; attempt++ {
				ctx, cancel := context.WithTimeout(context.Background(), *checkinTimeout)
				err := fl.CheckInContext(ctx, *server, req, *checkinTimeout)
				cancel()
				if err == nil {
					fmt.Printf("checked in with %s as %s\n", *server, cfg.id)
					return
				}
				if attempt+1 >= *checkinRetries {
					fmt.Fprintln(os.Stderr, "flclient: check-in:", err)
					return
				}
				fmt.Fprintf(os.Stderr, "flclient: check-in attempt %d: %v (retrying in %v)\n",
					attempt+1, err, backoff)
				time.Sleep(backoff)
				backoff *= 2
			}
		}()
	}
	// Live telemetry: the daemon's mux serves /metrics, /healthz and
	// /v1/telemetry alongside the training endpoints, and the sink threads
	// down through the client into its pace controller.
	tel := obs.NewBoFL(obs.Real{})
	ml.SetSink(tel)
	handler := fl.NewClientHandler(client)
	handler.SetTelemetry(tel)
	if *noSpans {
		handler.SetNoSpanReport(true)
	}
	if *pprofAddr != "" {
		obs.ServePprof(*pprofAddr)
		fmt.Printf("pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}
	fmt.Printf("flclient %s (%s, %s pacing) listening on %s (introspection: /metrics /healthz /v1/telemetry)\n",
		cfg.id, cfg.devName, cfg.controller, *listen)
	return obs.NewServer(*listen, handler).ListenAndServe()
}

// clientConfig holds the daemon's construction parameters.
type clientConfig struct {
	id         string
	devName    string
	controller string
	seed       int64
	examples   int
}

// parseClientFlags registers the daemon's flags on fs and parses args.
func parseClientFlags(fs *flag.FlagSet, args []string) (clientConfig, error) {
	var cfg clientConfig
	fs.StringVar(&cfg.id, "id", "edge-0", "client identifier")
	fs.StringVar(&cfg.devName, "device", "agx", "device: agx or tx2")
	fs.StringVar(&cfg.controller, "controller", "bofl", "pace controller: bofl or performant")
	fs.Int64Var(&cfg.seed, "seed", 1, "random seed (also shards the synthetic data)")
	fs.IntVar(&cfg.examples, "examples", 256, "local dataset size")
	if err := fs.Parse(args); err != nil {
		return clientConfig{}, err
	}
	return cfg, nil
}

// buildClient constructs the FL client the daemon serves.
func buildClient(cfg clientConfig) (*fl.Client, error) {
	dev, ok := device.ByName(cfg.devName)
	if !ok {
		return nil, fmt.Errorf("unknown device %q", cfg.devName)
	}

	// The demo federation trains an 8-feature 4-class MLP; every client
	// must build the same architecture so parameter vectors align.
	model, err := ml.NewMLP(8, 16, 4, 42)
	if err != nil {
		return nil, err
	}
	data, err := ml.Blobs(cfg.examples, 8, 4, 0.6, cfg.seed)
	if err != nil {
		return nil, err
	}

	var pace core.PaceController
	switch cfg.controller {
	case "bofl":
		pace, err = core.New(dev.Space(), core.Options{Seed: cfg.seed, Tau: 5})
	case "performant":
		pace, err = core.NewPerformant(dev.Space())
	default:
		return nil, fmt.Errorf("unknown controller %q", cfg.controller)
	}
	if err != nil {
		return nil, err
	}

	return fl.NewClient(fl.ClientConfig{
		ID:         cfg.id,
		Device:     dev,
		Workload:   device.ViT,
		Model:      model,
		Data:       data,
		BatchSize:  32,
		LearnRate:  0.15,
		Controller: pace,
		Seed:       cfg.seed,
	})
}
