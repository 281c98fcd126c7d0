package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bofl/internal/device"
	"bofl/internal/obs/ledger"
)

func TestRunProfileText(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-device", "tx2", "-workload", "lstm"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "936 configurations") {
		t.Errorf("output missing space size:\n%s", out)
	}
	if !strings.Contains(out, "pareto front") {
		t.Errorf("output missing front:\n%s", out)
	}
}

func TestRunProfileJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "profile.json")
	var buf bytes.Buffer
	if err := run([]string{"-device", "agx", "-workload", "vit", "-json", path}, &buf); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var p device.Profile
	if err := json.Unmarshal(raw, &p); err != nil {
		t.Fatal(err)
	}
	if len(p.Points) != 2100 {
		t.Errorf("profile has %d points", len(p.Points))
	}
}

func TestRunProfileErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-device", "nope"}, &buf); err == nil {
		t.Error("unknown device accepted")
	}
	if err := run([]string{"-workload", "nope"}, &buf); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestSummarizeTornLedger: a journal cut inside its last line, as a server
// killed mid-write leaves it, is summarized from its complete events after
// one warning naming the cut line; a malformed line with data after it still
// fails the summary.
func TestSummarizeTornLedger(t *testing.T) {
	var journal bytes.Buffer
	err := ledger.WriteJSONL(&journal, []ledger.Event{
		{Seq: 1, Kind: ledger.KindRoundBegin, Round: 1, Deadline: 2.5, Selected: 1},
		{Seq: 2, Kind: ledger.KindAttempt, Round: 1, Client: "edge-0", Verdict: ledger.VerdictOK, EnergyJoules: 12.5},
		{Seq: 3, Kind: ledger.KindCommit, Round: 1, Survivors: 1},
		{Seq: 4, Kind: ledger.KindAttempt, Round: 2, Client: "edge-0", Verdict: ledger.VerdictOK, EnergyJoules: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	full := journal.Bytes()
	last := bytes.LastIndexByte(full[:len(full)-1], '\n') + 1
	dir := t.TempDir()
	for _, cut := range []int{last + 1, last + 2, (last + len(full)) / 2, len(full) - 3} {
		path := filepath.Join(dir, "torn.jsonl")
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := run([]string{"-ledger", path}, &buf); err != nil {
			t.Fatalf("journal cut at byte %d of %d: %v", cut, len(full), err)
		}
		out := buf.String()
		if strings.Count(out, "warning:") != 1 || !strings.Contains(out, "line 4 is cut short") {
			t.Errorf("journal cut at byte %d: want one warning naming line 4, got:\n%s", cut, out)
		}
		if !strings.Contains(out, ": 3 events, 1 rounds") {
			t.Errorf("journal cut at byte %d: want the three complete events summarized, got:\n%s", cut, out)
		}
	}

	malformed := append(append(bytes.Clone(full[:last]), `{"seq":4,"kind":`+"\n"...), full[last:]...)
	path := filepath.Join(dir, "malformed.jsonl")
	if err := os.WriteFile(path, malformed, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-ledger", path}, new(bytes.Buffer)); err == nil {
		t.Error("a malformed line followed by data was summarized")
	}
}
