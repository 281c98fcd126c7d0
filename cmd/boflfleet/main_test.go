package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

func TestRunFleetSmoke(t *testing.T) {
	err := run([]string{
		"-clients", "500", "-dim", "16", "-fanout", "8",
		"-jobs", "1", "-rounds", "2", "-tier-quorum", "0.5",
		"-chaos-drop", "0.05",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunLedgerCap(t *testing.T) {
	path := t.TempDir() + "/fleet.jsonl"
	err := run([]string{
		"-clients", "256", "-dim", "8", "-fanout", "4",
		"-jobs", "1", "-rounds", "1",
		"-ledger", path, "-ledger-cap", "10",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nonesuch"},
		{"-clients", "0"},
		{"-fanout", "1"},
		{"-quorum", "1.5"},
	} {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		} else if !strings.Contains(err.Error(), ":") {
			t.Errorf("args %v: unhelpful error %q", args, err)
		}
	}
}

// TestFleetSmokePinned runs CI's fleet-smoke shape and pins its committed
// root hash and ledger digest, so any change to what the fleet folds or
// journals shows up as a failing tier-1 test rather than a drifted CI log.
// Both values are the same at every -workers setting and GOMAXPROCS.
func TestFleetSmokePinned(t *testing.T) {
	const (
		wantHash   = "fnv64a:361d2cc46e8cf8f8"
		wantLedger = "ac9d1a4a09862f4aeae1afff62efe5ac56df06f0d35c3b447a9412b259992919"
	)
	for _, workers := range []string{"1", "0"} {
		path := t.TempDir() + "/fleet.jsonl"
		out := captureStdout(t, func() error {
			return run([]string{
				"-clients", "20000", "-dim", "128", "-fanout", "16", "-rounds", "2",
				"-tier-quorum", "0.5", "-chaos-drop", "0.04", "-chaos-crash", "0.02",
				"-chaos-seed", "20260807", "-ledger", path, "-workers", workers,
			})
		})
		if !strings.Contains(out, "root hash "+wantHash+" ") {
			t.Errorf("-workers %s: root hash moved from %s:\n%s", workers, wantHash, out)
		}
		journal, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(journal)); got != wantLedger {
			t.Errorf("-workers %s: ledger sha256 %s, want %s", workers, got, wantLedger)
		}
	}
}

// captureStdout returns what fn writes to os.Stdout.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	read := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		read <- b
	}()
	runErr := fn()
	os.Stdout = stdout
	w.Close()
	out := <-read
	r.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	return string(out)
}
