// Command boflprofile exhaustively profiles a simulated device's DVFS space
// for one workload — the offline step that produces the Oracle baseline — and
// emits the profile (optionally as JSON) plus its true Pareto front.
//
// It also doubles as the round-ledger post-mortem tool: point it at a JSONL
// journal written by flserver -ledger (or GET /v1/ledger) to roll attempt
// verdicts up into per-client energy/latency/wire attribution, or stitch one
// round's events into a Chrome trace.
//
// Usage:
//
//	boflprofile -device agx -workload vit
//	boflprofile -device tx2 -workload resnet50 -json profile.json
//	boflprofile -ledger run.ledger.jsonl
//	boflprofile -ledger run.ledger.jsonl -round 3 -chrome round3.json
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"bofl/internal/device"
	"bofl/internal/obs"
	"bofl/internal/obs/ledger"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "boflprofile:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("boflprofile", flag.ContinueOnError)
	var (
		devName  = fs.String("device", "agx", "device: agx or tx2")
		workload = fs.String("workload", "vit", "workload: vit, resnet50 or lstm")
		jsonPath = fs.String("json", "", "write the full profile as JSON to this path")
		pprofFlg = fs.String("pprof", "", "serve net/http/pprof on this address during the sweep (empty = off)")

		ledgerPath = fs.String("ledger", "", "summarize a round-ledger JSONL journal instead of profiling")
		round      = fs.Int("round", 0, "with -ledger: narrow to one round (0 = all)")
		chromePath = fs.String("chrome", "", "with -ledger: also write the selected events as a Chrome trace to this path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pprofFlg != "" {
		obs.ServePprof(*pprofFlg)
	}
	if *ledgerPath != "" {
		return summarizeLedger(*ledgerPath, *round, *chromePath, out)
	}
	dev, ok := device.ByName(*devName)
	if !ok {
		return fmt.Errorf("unknown device %q", *devName)
	}
	profile, err := device.ProfileAll(dev, device.Workload(*workload))
	if err != nil {
		return err
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(profile); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d profile points to %s\n", len(profile.Points), *jsonPath)
	}

	front := profile.ParetoFront()
	fmt.Fprintf(out, "%s / %s: %d configurations, %d on the Pareto front, T_min %.3fs per minibatch\n",
		dev.Name(), *workload, len(profile.Points), len(front), profile.MinLatency())
	fmt.Fprintln(out, "pareto front (energy-ascending):")
	fmt.Fprintln(out, "cpu(GHz)  gpu(GHz)  mem(GHz)  latency(s)  energy(J)")
	for _, i := range front {
		p := profile.Points[i]
		fmt.Fprintf(out, "%7.2f  %8.2f  %8.2f  %10.3f  %9.3f\n",
			float64(p.Config.CPU), float64(p.Config.GPU), float64(p.Config.Mem), p.Latency, p.Energy)
	}
	return nil
}

// summarizeLedger reads a round-ledger JSONL journal and prints the roll-up:
// round outcomes plus per-client attempt/verdict/energy attribution. With
// chromePath set the selected events are additionally stitched into a Chrome
// trace on deterministic virtual-time lanes (one lane per client).
//
// A journal whose last line is cut short, as a server killed mid-write
// leaves it, is summarized up to that line after one warning naming it; a
// malformed line with more data after it still fails.
func summarizeLedger(path string, round int, chromePath string, out io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	lines := &lineCounter{r: f}
	events, err := ledger.ReadJSONL(lines)
	f.Close()
	// The reader hit the end of the journal inside an event. If each complete
	// event ended its own line and the cut one has no newline, only the last
	// line is torn; any other newline means a malformed line came first.
	if errors.Is(err, io.ErrUnexpectedEOF) && lines.n == len(events) {
		fmt.Fprintf(out, "warning: %s: line %d is cut short; summarizing the %d complete events before it\n",
			path, len(events)+1, len(events))
	} else if err != nil {
		return err
	}
	if round > 0 {
		kept := events[:0:0]
		for _, ev := range events {
			if ev.Round == round {
				kept = append(kept, ev)
			}
		}
		events = kept
	}
	if len(events) == 0 {
		return fmt.Errorf("no ledger events in %s (round filter %d)", path, round)
	}

	s := ledger.Summarize(events)
	fmt.Fprintf(out, "ledger %s: %d events, %d rounds (%d commits, %d aborts, %d quorum commits), %d attempts\n",
		path, len(events), s.Rounds, s.Commits, s.Aborts, s.Quorums, s.Attempts)
	fmt.Fprintf(out, "totals: %.1f J, %.1f s busy, %d wire bytes\n", s.EnergyJ, s.LatencyS, s.WireBytes)
	fmt.Fprintln(out, "client           attempts  folded  retries  drops  crashes  stragglers  corrupt  quarantines   energy(J)  latency(s)   wire(B)")
	for _, c := range s.Clients {
		fmt.Fprintf(out, "%-16s %8d  %6d  %7d  %5d  %7d  %10d  %7d  %11d  %10.1f  %10.1f  %8d\n",
			c.Client, c.Attempts, c.Folded, c.Retries, c.Drops, c.Crashes,
			c.Stragglers, c.Corrupt, c.Quarantines, c.EnergyJoules, c.LatencySecs,
			c.WireTxBytes+c.WireRxBytes)
	}

	if chromePath != "" {
		spans := stitchLedger(events)
		cf, err := os.Create(chromePath)
		if err != nil {
			return err
		}
		defer cf.Close()
		if err := obs.WriteEventsChrome(cf, spans); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d trace events to %s\n", len(spans), chromePath)
	}
	return nil
}

// lineCounter counts the newlines read through it.
type lineCounter struct {
	r io.Reader
	n int
}

func (c *lineCounter) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += bytes.Count(p[:n], []byte{'\n'})
	return n, err
}

// stitchLedger reconstructs a viewable trace from ledger events. The ledger
// records no wall-clock times (by design — that is what makes it replayable),
// so lanes are laid out in deterministic virtual time: each client's attempts
// advance its own cursor by injected delay + backoff + reported latency, and
// round markers are instants at the round's start.
func stitchLedger(events []ledger.Event) []obs.SpanEvent {
	const ns = int64(1e9)
	cursors := map[string]int64{} // client → virtual ns consumed
	var spans []obs.SpanEvent
	var roundStart int64
	for _, ev := range events {
		var labels obs.Labels
		if ev.TraceID != "" {
			labels = append(labels, obs.L(obs.LabelTraceID, ev.TraceID))
		}
		switch ev.Kind {
		case ledger.KindRoundBegin:
			// New round: every client lane restarts at the slowest lane seen
			// so far, keeping rounds visually sequential.
			for _, c := range cursors {
				if c > roundStart {
					roundStart = c
				}
			}
			for id := range cursors {
				cursors[id] = roundStart
			}
			labels = append(labels, obs.L("selected", fmt.Sprint(ev.Selected)))
			spans = append(spans, obs.SpanEvent{
				Name: "bofl_" + obs.SpanFLRound, Start: roundStart, Instant: true, Labels: labels,
			})
		case ledger.KindAttempt:
			start := max(cursors[ev.Client], roundStart)
			dur := ev.DelayNs + ev.BackoffNs + int64(ev.LatencySeconds*float64(ns))
			labels = append(labels, obs.L("client", ev.Client), obs.L("verdict", ev.Verdict))
			if ev.SpanID != "" {
				labels = append(labels, obs.L(obs.LabelSpanID, ev.SpanID))
			}
			spans = append(spans, obs.SpanEvent{
				Name: obs.SpanFLAttempt + "/" + ev.Verdict, Start: start, Dur: dur, Labels: labels,
			})
			cursors[ev.Client] = start + dur
		default:
			at := roundStart
			for _, c := range cursors {
				if c > at {
					at = c
				}
			}
			labels = append(labels, obs.L("kind", ev.Kind))
			if ev.Client != "" {
				labels = append(labels, obs.L("client", ev.Client))
			}
			spans = append(spans, obs.SpanEvent{
				Name: "ledger_" + ev.Kind, Start: at, Instant: true, Labels: labels,
			})
		}
	}
	return spans
}
