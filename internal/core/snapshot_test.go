package core

import (
	"bytes"
	"testing"

	"bofl/internal/device"
	"bofl/internal/obs"
)

func trainedController(t *testing.T, rounds int) (*Controller, *device.Device) {
	t.Helper()
	dev := device.JetsonAGX()
	space := smallSpace()
	c, err := New(space, Options{Seed: 9, Tau: 2})
	if err != nil {
		t.Fatal(err)
	}
	exec := newSimExec(t, dev, device.ViT, 12)
	xmaxLat, err := dev.Latency(device.ViT, space.Max())
	if err != nil {
		t.Fatal(err)
	}
	deadlines := mkDeadlines(xmaxLat*60*1.1, 2.5, rounds, 41)
	for r := 0; r < rounds; r++ {
		if _, err := c.RunRound(60, deadlines[r], exec); err != nil {
			t.Fatal(err)
		}
		if _, err := c.BetweenRounds(); err != nil {
			t.Fatal(err)
		}
	}
	return c, dev
}

func TestSnapshotRoundTrip(t *testing.T) {
	orig, dev := trainedController(t, 15)
	var buf bytes.Buffer
	if err := orig.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	restored, err := New(smallSpace(), Options{Seed: 9, Tau: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.ReadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if restored.Phase() != orig.Phase() {
		t.Errorf("phase %v, want %v", restored.Phase(), orig.Phase())
	}
	if restored.NumExplored() != orig.NumExplored() {
		t.Errorf("explored %d, want %d", restored.NumExplored(), orig.NumExplored())
	}
	of, rf := orig.Front(), restored.Front()
	if len(of) != len(rf) {
		t.Fatalf("front sizes %d vs %d", len(rf), len(of))
	}
	for i := range of {
		if of[i] != rf[i] {
			t.Errorf("front[%d] = %v, want %v", i, rf[i], of[i])
		}
	}

	// The restored controller must keep operating safely — and because it
	// restored into the exploitation phase, it must not re-explore.
	exec := newSimExec(t, dev, device.ViT, 90)
	xmaxLat, err := dev.Latency(device.ViT, smallSpace().Max())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := restored.RunRound(60, xmaxLat*60*1.8, exec)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.DeadlineMet {
		t.Error("restored controller missed a deadline")
	}
	if restored.Phase() == PhaseExploit && len(rep.Explored) > 0 {
		t.Errorf("restored exploit-phase controller explored %d configs", len(rep.Explored))
	}
}

func TestSnapshotPreservesRoundCounter(t *testing.T) {
	orig, dev := trainedController(t, 5)
	snap := orig.Snapshot()
	restored, err := New(smallSpace(), Options{Seed: 9, Tau: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	exec := newSimExec(t, dev, device.ViT, 91)
	xmaxLat, err := dev.Latency(device.ViT, smallSpace().Max())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := restored.RunRound(60, xmaxLat*60*2, exec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Round != 6 {
		t.Errorf("round counter %d, want 6", rep.Round)
	}
}

func TestRestoreValidation(t *testing.T) {
	c, err := New(smallSpace(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	good := Snapshot{Version: snapshotVersion, Phase: PhaseRandomExplore, SpaceSize: smallSpace().Size()}
	if err := c.Restore(good); err != nil {
		t.Fatalf("minimal snapshot rejected: %v", err)
	}
	bad := []Snapshot{
		{Version: 99, Phase: PhaseRandomExplore, SpaceSize: smallSpace().Size()},
		{Version: snapshotVersion, Phase: 0, SpaceSize: smallSpace().Size()},
		{Version: snapshotVersion, Phase: PhaseExploit, SpaceSize: 5},
		{Version: snapshotVersion, Phase: PhaseExploit, SpaceSize: smallSpace().Size(), Queue: []int{-1}},
		{Version: snapshotVersion, Phase: PhaseExploit, SpaceSize: smallSpace().Size(),
			Observations: []obsSnapshot{{Index: 99999, Jobs: 1, SumLat: 1, SumE: 1}}},
		{Version: snapshotVersion, Phase: PhaseExploit, SpaceSize: smallSpace().Size(),
			Observations: []obsSnapshot{{Index: 0, Jobs: 0, SumLat: 1, SumE: 1}}},
	}
	for i, s := range bad {
		if err := c.Restore(s); err == nil {
			t.Errorf("bad snapshot %d accepted", i)
		}
	}
}

// TestRestoreReplaysPhaseTransitions is the server-restart-mid-round
// property: two controllers restored from the same snapshot and driven by
// identical (same-seed) executors must walk through identical phase
// transitions, observed via the controller phase gauge. This is what makes a
// crash/restore during an FL run invisible to the pace-control trajectory.
func TestRestoreReplaysPhaseTransitions(t *testing.T) {
	orig, dev := trainedController(t, 10) // mid-run: before exploitation settles
	snap := orig.Snapshot()

	xmaxLat, err := dev.Latency(device.ViT, smallSpace().Max())
	if err != nil {
		t.Fatal(err)
	}
	const contRounds = 8
	deadlines := mkDeadlines(xmaxLat*60*1.1, 2.5, contRounds, 77)

	// continuation restores the snapshot into a fresh controller and runs it
	// forward, returning the phase-gauge value after every round.
	continuation := func(execSeed int64) []float64 {
		t.Helper()
		tel := obs.NewBoFL(obs.Real{})
		c, err := New(smallSpace(), Options{Seed: 9, Tau: 2})
		if err != nil {
			t.Fatal(err)
		}
		c.SetSink(tel)
		if err := c.Restore(snap); err != nil {
			t.Fatal(err)
		}
		gauge := tel.Registry.Gauge(obs.MetricControllerPhase, "")
		if got := gauge.Value(); got != float64(snap.Phase) {
			t.Fatalf("phase gauge %v right after restore, want %v", got, float64(snap.Phase))
		}
		exec := newSimExec(t, dev, device.ViT, execSeed)
		phases := make([]float64, 0, contRounds)
		for r := 0; r < contRounds; r++ {
			if _, err := c.RunRound(60, deadlines[r], exec); err != nil {
				t.Fatal(err)
			}
			if _, err := c.BetweenRounds(); err != nil {
				t.Fatal(err)
			}
			phases = append(phases, gauge.Value())
		}
		return phases
	}

	a, b := continuation(55), continuation(55)
	transitions := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round %d after restore: phase gauge %v vs %v — restore is not replayable", i+1, a[i], b[i])
		}
		if i > 0 && a[i] != a[i-1] {
			transitions++
		}
	}
	if a[0] != float64(snap.Phase) && transitions == 0 {
		t.Logf("note: no phase transition inside the continuation window (phases %v)", a)
	}
}

func TestReadSnapshotRejectsGarbage(t *testing.T) {
	c, err := New(smallSpace(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ReadSnapshot(bytes.NewReader([]byte("not json"))); err == nil {
		t.Error("garbage accepted")
	}
}

func TestRestoreFailureLeavesControllerUsable(t *testing.T) {
	c, dev := trainedController(t, 8)
	before := c.NumExplored()
	// A failing restore must not corrupt the live state.
	if err := c.Restore(Snapshot{Version: 99}); err == nil {
		t.Fatal("bad snapshot accepted")
	}
	if c.NumExplored() != before {
		t.Error("failed restore mutated observations")
	}
	exec := newSimExec(t, dev, device.ViT, 92)
	if _, err := c.RunRound(60, 100, exec); err != nil {
		t.Errorf("controller unusable after failed restore: %v", err)
	}
}

// TestSnapshotBytesDeterministic pins the snapshot's observation order: two
// snapshots of one controller are byte-identical, and a controller restored
// from one writes it back unchanged, because Restore rebuilds the
// first-observation order from the snapshot's order.
func TestSnapshotBytesDeterministic(t *testing.T) {
	c, _ := trainedController(t, 15)
	var a, b bytes.Buffer
	if err := c.WriteSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("two snapshots of one controller differ:\n%s\n%s", a.Bytes(), b.Bytes())
	}
	restored, err := New(smallSpace(), Options{Seed: 9, Tau: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.ReadSnapshot(bytes.NewReader(a.Bytes())); err != nil {
		t.Fatal(err)
	}
	var r bytes.Buffer
	if err := restored.WriteSnapshot(&r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Bytes(), a.Bytes()) {
		t.Fatalf("restored controller's snapshot differs from the one it was restored from")
	}
}

// TestRestoreRejectsDuplicateObservation: a snapshot lists each
// configuration once; a repeated index is malformed.
func TestRestoreRejectsDuplicateObservation(t *testing.T) {
	c, _ := trainedController(t, 6)
	s := c.Snapshot()
	s.Observations = append(s.Observations, s.Observations[0])
	fresh, err := New(smallSpace(), Options{Seed: 9, Tau: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(s); err == nil {
		t.Fatal("snapshot with a duplicated observation accepted")
	}
}

// FuzzReadSnapshot feeds arbitrary bytes to ReadSnapshot on a fresh
// controller over smallSpace(). It must never panic. When a restore
// succeeds, the snapshot the controller then writes must read back and
// write out byte-identical, and two RunRound/BetweenRounds cycles must not
// panic; they may fail, since a hostile snapshot can leave nothing to run.
// The seed corpus in testdata/fuzz/FuzzReadSnapshot holds a 15-round
// snapshot, bare and minimal ones, and one input per rejection in Restore.
func FuzzReadSnapshot(f *testing.F) {
	space := smallSpace()
	dev := device.JetsonAGX()
	xmaxLat, err := dev.Latency(device.ViT, space.Max())
	if err != nil {
		f.Fatal(err)
	}
	fresh := func(t *testing.T) *Controller {
		c, err := New(space, Options{Seed: 9, Tau: 2})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := fresh(t)
		if c.ReadSnapshot(bytes.NewReader(data)) != nil {
			return
		}
		var written, again bytes.Buffer
		if err := c.WriteSnapshot(&written); err != nil {
			t.Fatal(err)
		}
		reread := fresh(t)
		if err := reread.ReadSnapshot(bytes.NewReader(written.Bytes())); err != nil {
			t.Fatalf("a written snapshot does not read back: %v\n%s", err, written.Bytes())
		}
		if err := reread.WriteSnapshot(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(written.Bytes(), again.Bytes()) {
			t.Fatalf("snapshot changed through a write and read:\n%s\nthen\n%s", written.Bytes(), again.Bytes())
		}
		exec := newSimExec(t, dev, device.ViT, 1)
		for range 2 {
			c.RunRound(10, xmaxLat*10*2, exec)
			c.BetweenRounds()
		}
	})
}
