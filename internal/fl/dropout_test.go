package fl

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"bofl/internal/core"
	"bofl/internal/obs/ledger"
)

// flakyParticipant fails (or misses deadlines) on a schedule.
type flakyParticipant struct {
	id        string
	failRound map[int]bool // rounds on which Round errors
	missRound map[int]bool // rounds on which the deadline is missed
}

func (p *flakyParticipant) ID() string                        { return p.id }
func (p *flakyParticipant) TMinFor(jobs int) (float64, error) { return float64(jobs), nil }

func (p *flakyParticipant) Round(req RoundRequest) (RoundResponse, error) {
	if p.failRound[req.Round] {
		return RoundResponse{}, errors.New("device dropped out")
	}
	return RoundResponse{
		ClientID:    p.id,
		Params:      req.Params,
		NumExamples: 10,
		Report: core.RoundReport{
			Round:       req.Round,
			Energy:      1,
			DeadlineMet: !p.missRound[req.Round],
		},
	}, nil
}

func newDropoutServer(t *testing.T, tolerate bool) *Server {
	t.Helper()
	srv, err := NewServer(ServerConfig{
		InitialParams:    []float64{1, 2, 3},
		Jobs:             10,
		DeadlineRatio:    2,
		Seed:             1,
		TolerateDropouts: tolerate,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestDropoutToleranceKeepsSurvivors(t *testing.T) {
	srv := newDropoutServer(t, true)
	healthy := &flakyParticipant{id: "healthy"}
	crasher := &flakyParticipant{id: "crasher", failRound: map[int]bool{1: true}}
	misser := &flakyParticipant{id: "misser", missRound: map[int]bool{1: true}}
	srv.Register(healthy)
	srv.Register(crasher)
	srv.Register(misser)

	res, err := srv.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Responses) != 1 || res.Responses[0].ClientID != "healthy" {
		t.Errorf("responses = %+v, want only healthy", res.Responses)
	}
	if len(res.Dropped) != 2 {
		t.Errorf("dropped = %v, want crasher and misser", res.Dropped)
	}

	// Next round everyone is healthy again and participates.
	res, err = srv.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Responses) != 3 || len(res.Dropped) != 0 {
		t.Errorf("round 2: %d responses, %d dropped", len(res.Responses), len(res.Dropped))
	}
}

func TestDropoutAllFailedIsError(t *testing.T) {
	srv := newDropoutServer(t, true)
	srv.Register(&flakyParticipant{id: "a", failRound: map[int]bool{1: true}})
	srv.Register(&flakyParticipant{id: "b", failRound: map[int]bool{1: true}})
	if _, err := srv.RunRound(); err == nil {
		t.Error("round with zero survivors accepted")
	}
}

func TestStrictModeAbortsOnFailure(t *testing.T) {
	srv := newDropoutServer(t, false)
	srv.Register(&flakyParticipant{id: "a"})
	srv.Register(&flakyParticipant{id: "b", failRound: map[int]bool{1: true}})
	if _, err := srv.RunRound(); err == nil {
		t.Error("strict server tolerated a failure")
	}
}

func TestStrictModeKeepsDeadlineMissers(t *testing.T) {
	// Without tolerance, a miss is reported but not excluded — the legacy
	// behaviour relied on by the evaluation harness.
	srv := newDropoutServer(t, false)
	srv.Register(&flakyParticipant{id: "a", missRound: map[int]bool{1: true}})
	res, err := srv.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Responses) != 1 {
		t.Errorf("responses = %d", len(res.Responses))
	}
}

// TestStrictModeQuarantinesEveryCorruptFrame: a strict round aborts on its
// first failed participant, but a corrupt frame from a participant listed
// after that failure is still quarantined, as a tolerant round would, and
// the ledger journals the quarantine before the abort.
func TestStrictModeQuarantinesEveryCorruptFrame(t *testing.T) {
	led := ledger.New(0)
	srv, err := NewServer(ServerConfig{
		InitialParams: []float64{1, 2, 3},
		Jobs:          10,
		DeadlineRatio: 2,
		Seed:          1,
		Ledger:        led,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Register(&stubParticipant{id: "a", err: errors.New("device dropped out")})
	srv.Register(&stubParticipant{id: "b", err: fmt.Errorf("%w: bad checksum", ErrCorruptFrame)})
	srv.Register(&stubParticipant{id: "c"})
	srv.Register(&stubParticipant{id: "d", err: fmt.Errorf("%w: truncated", ErrCorruptFrame)})
	if _, err := srv.RunRound(); err == nil || !strings.Contains(err.Error(), "participant a") {
		t.Fatalf("strict round: err %v, want the abort for participant a", err)
	}
	quarantined := srv.QuarantinedIDs()
	slices.Sort(quarantined)
	if !slices.Equal(quarantined, []string{"b", "d"}) {
		t.Errorf("quarantined %v, want [b d]", quarantined)
	}
	var got []string
	for _, ev := range led.Events() {
		if ev.Kind == ledger.KindQuarantine || ev.Kind == ledger.KindAbort {
			got = append(got, ev.Kind+":"+ev.Client)
		}
	}
	if want := []string{"quarantine:b", "quarantine:d", "abort:"}; !slices.Equal(got, want) {
		t.Errorf("ledger journaled %v, want %v", got, want)
	}
}
