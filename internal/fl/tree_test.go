package fl

// Hierarchical aggregation properties. The tentpole invariant: a tree round's
// committed global model is bit-identical to the flat streaming fold (and the
// batch reference) on the same selection, for any fanout, ragged tail and
// pool width — the exact accumulator makes the fold associative, so tree
// shape cannot change a single bit.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"bofl/internal/exact"
	"bofl/internal/obs/ledger"
	"bofl/internal/parallel"
)

// treeServer builds a math-participant fleet with an aggregation tree.
func treeServer(t *testing.T, dim, clients int, tree *TreeConfig) *Server {
	t.Helper()
	init := make([]float64, dim)
	for i := range init {
		init[i] = math.Sin(float64(i + 1))
	}
	srv, err := NewServer(ServerConfig{
		InitialParams: init,
		Jobs:          10,
		DeadlineRatio: 2,
		Seed:          9,
		Tree:          tree,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < clients; i++ {
		srv.Register(&mathParticipant{id: fmt.Sprintf("c%03d", i), idx: i, num: 1 + i%17})
	}
	return srv
}

func bitwiseEqual(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d params vs %d", label, len(got), len(want))
	}
	for j := range got {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s: param %d: %x != %x", label, j,
				math.Float64bits(got[j]), math.Float64bits(want[j]))
		}
	}
}

// TestTreeMatchesFlatFold sweeps fanouts 2..64 and ragged client counts at
// GOMAXPROCS 1 and 4: every tree commit must equal the flat commit bitwise.
func TestTreeMatchesFlatFold(t *testing.T) {
	const dim = 257
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		prevW := parallel.SetWorkers(procs)
		for _, clients := range []int{1, 5, 31, 64, 100} {
			flat := treeServer(t, dim, clients, nil)
			if _, err := flat.RunRound(); err != nil {
				t.Fatal(err)
			}
			want := flat.GlobalParams()
			for _, fanout := range []int{2, 3, 7, 16, 64} {
				srv := treeServer(t, dim, clients, &TreeConfig{Fanout: fanout})
				res, err := srv.RunRound()
				if err != nil {
					t.Fatalf("procs %d clients %d fanout %d: %v", procs, clients, fanout, err)
				}
				if len(res.Responses) != clients {
					t.Fatalf("fanout %d: %d responses", fanout, len(res.Responses))
				}
				bitwiseEqual(t, fmt.Sprintf("procs %d clients %d fanout %d", procs, clients, fanout),
					srv.GlobalParams(), want)
			}
		}
		parallel.SetWorkers(prevW)
		runtime.GOMAXPROCS(prev)
	}
}

// TestTreeMatchesBatchAggregate rides the existing reference: a tree round
// with dropouts must commit exactly what the batch aggregate computes over
// the surviving responses.
func TestTreeMatchesBatchAggregate(t *testing.T) {
	const dim, clients = 64, 50
	srv := treeServer(t, dim, clients, &TreeConfig{Fanout: 4})
	srv.cfg.TolerateDropouts = true
	// Rebuild responses the reference needs before the round consumes them.
	var surviving []RoundResponse
	global := srv.GlobalParams()
	for i, p := range srv.pool {
		mp := p.(*mathParticipant)
		if i%7 == 3 {
			mp.fail = true
			continue
		}
		surviving = append(surviving, RoundResponse{
			ClientID: mp.id, Params: mp.update(global), NumExamples: mp.num,
		})
	}
	if _, err := srv.RunRound(); err != nil {
		t.Fatal(err)
	}
	want, err := BatchAggregate(FedAvg{}, global, surviving, 10)
	if err != nil {
		t.Fatal(err)
	}
	bitwiseEqual(t, "tree vs batch over survivors", srv.GlobalParams(), want)
}

// TestTreePartialMergeProperty is the satellite fold-merge property test:
// folding pre-aggregated (sum, weight) partials in tier order is bit-identical
// to the flat in-order fold, across arbitrary tree shapes — fanout 2..64,
// ragged leaf counts — and GOMAXPROCS 1/4. It drives the exact accumulators
// directly (no server), so the property is isolated from orchestration.
func TestTreePartialMergeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	const dim = 33
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for trial := 0; trial < 30; trial++ {
			leaves := 1 + rng.Intn(300)
			fanout := 2 + rng.Intn(63)
			updates := make([][]float64, leaves)
			weights := make([]int64, leaves)
			for i := range updates {
				updates[i] = make([]float64, dim)
				for j := range updates[i] {
					updates[i][j] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(40)-20)
				}
				weights[i] = int64(1 + rng.Intn(100))
			}
			// Flat in-order fold.
			flat := exact.NewVec(dim)
			var flatW int64
			for i := range updates {
				flat.AddScaled(float64(weights[i]), updates[i])
				flatW += weights[i]
			}
			flatSum := make([]float64, dim)
			flat.RoundTo(flatSum)

			// Tiered fold: leaves → fanout-sized partials → one root, merged
			// through the serialized wire form.
			root := exact.NewVec(dim)
			var rootW int64
			for lo := 0; lo < leaves; lo += fanout {
				hi := lo + fanout
				if hi > leaves {
					hi = leaves
				}
				part := exact.NewVec(dim)
				var w int64
				for i := lo; i < hi; i++ {
					part.AddScaled(float64(weights[i]), updates[i])
					w += weights[i]
				}
				var buf bytes.Buffer
				pa := PartialAggregate{Round: 1, LeafLo: lo, LeafHi: hi - 1,
					Survivors: hi - lo, Weight: w, Sum: part.Serialize()}
				if err := EncodePartialAggregate(&buf, pa); err != nil {
					t.Fatal(err)
				}
				dec, err := DecodePartialAggregate(&buf)
				if err != nil {
					t.Fatal(err)
				}
				if err := root.Absorb(dec.Sum); err != nil {
					t.Fatal(err)
				}
				rootW += dec.Weight
			}
			rootSum := make([]float64, dim)
			root.RoundTo(rootSum)
			if rootW != flatW {
				t.Fatalf("trial %d: weight %d != %d", trial, rootW, flatW)
			}
			bitwiseEqual(t, fmt.Sprintf("procs %d trial %d (leaves %d fanout %d)",
				procs, trial, leaves, fanout), rootSum, flatSum)
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestTierQuorumSubtreeDrop checks the per-tier quorum path: a group whose
// survivors fall below ⌈q·children⌉ is dropped whole, the round commits the
// batch aggregate over the remaining leaves, and the ledger journals the
// subtree drop.
func TestTierQuorumSubtreeDrop(t *testing.T) {
	const dim, clients, fanout = 48, 32, 4
	led := ledger.New(0)
	srv := treeServer(t, dim, clients, &TreeConfig{Fanout: fanout, TierQuorum: 0.5})
	srv.cfg.Ledger = led
	// Kill 3 of 4 leaves in the third tier-0 group (leaves 8..11): 1/4 < 0.5,
	// so the whole group must drop — including its healthy leaf 9.
	var surviving []RoundResponse
	global := srv.GlobalParams()
	for i, p := range srv.pool {
		mp := p.(*mathParticipant)
		if i == 8 || i == 10 || i == 11 {
			mp.fail = true
			continue
		}
		if i == 9 {
			continue // healthy, but its subtree drops
		}
		surviving = append(surviving, RoundResponse{
			ClientID: mp.id, Params: mp.update(global), NumExamples: mp.num,
		})
	}
	res, err := srv.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Responses) != clients-4 {
		t.Fatalf("%d responses, want %d", len(res.Responses), clients-4)
	}
	foundHealthy := false
	for _, id := range res.Dropped {
		if id == "c009" {
			foundHealthy = true
		}
	}
	if !foundHealthy {
		t.Fatalf("leaf c009 not in Dropped: %v", res.Dropped)
	}
	want, err := BatchAggregate(FedAvg{}, global, surviving, 10)
	if err != nil {
		t.Fatal(err)
	}
	bitwiseEqual(t, "subtree drop vs batch over survivors", srv.GlobalParams(), want)

	drops, partials := 0, 0
	for _, ev := range led.Events() {
		switch ev.Kind {
		case ledger.KindSubtreeDrop:
			drops++
			if ev.Tier != 0 || ev.Survivors != 1 || ev.Selected != 4 {
				t.Fatalf("subtree drop event %+v", ev)
			}
		case ledger.KindPartial:
			partials++
			if ev.Weight <= 0 || ev.WireTxBytes <= 0 {
				t.Fatalf("partial event %+v", ev)
			}
		}
	}
	if drops != 1 {
		t.Fatalf("%d subtree drops, want 1", drops)
	}
	// 8 tier-0 groups minus the dropped one, plus 2 tier-1 nodes and 1 root
	// close: the exact count depends on shape, but there must be more than
	// the surviving tier-0 groups alone.
	if partials < 8 {
		t.Fatalf("%d partials journaled", partials)
	}
}

// TestTreeSpineMemoryBounded pins the O(depth·params) bound: a deep tree over
// many leaves keeps the spine at exactly depth+1 accumulators.
func TestTreeSpineMemoryBounded(t *testing.T) {
	const dim, clients, fanout = 16, 200, 2
	srv := treeServer(t, dim, clients, &TreeConfig{Fanout: fanout})
	if _, err := srv.RunRound(); err != nil {
		t.Fatal(err)
	}
	depth := int(math.Ceil(math.Log(float64(clients)) / math.Log(fanout)))
	// The spine accumulates the fold vector: model dims plus the
	// aggregator's statistic slots.
	perAcc := exact.VecBytes(dim + srv.Aggregator().ExtraDim(dim))
	got := srv.tree.MemoryBytes()
	if max := int64(depth+1) * perAcc; got > max {
		t.Fatalf("spine %d bytes exceeds depth bound %d", got, max)
	}
}

// TestPartialFrameRejectedByRoundDecoders pins the codec boundary: a partial
// frame must be ErrCorruptFrame to both round decoders, and a round frame
// must be rejected by the partial decoder.
func TestPartialFrameRejectedByRoundDecoders(t *testing.T) {
	v := exact.NewVec(3)
	v.Add([]float64{1, 2, 3})
	var buf bytes.Buffer
	if err := EncodePartialAggregate(&buf, PartialAggregate{Round: 1, Weight: 2, Sum: v.Serialize()}); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	if _, err := DecodeRoundRequest(bytes.NewReader(frame)); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("round request decoder accepted a partial frame: %v", err)
	}
	if _, err := DecodeRoundResponse(bytes.NewReader(frame)); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("round response decoder accepted a partial frame: %v", err)
	}
	var rbuf bytes.Buffer
	if err := EncodeRoundRequest(&rbuf, RoundRequest{Round: 1, Params: []float64{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePartialAggregate(&rbuf); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("partial decoder accepted a round frame: %v", err)
	}
}

// TestPartialAggregateRoundTrip checks frame fidelity for the full metadata
// and an exact window carrying specials.
func TestPartialAggregateRoundTrip(t *testing.T) {
	v := exact.NewVec(4)
	v.AddScaled(3, []float64{1e-300, 2, -5e200, math.Inf(1)})
	v.AddScaled(2, []float64{4, -2, 1e-10, 7})
	want := make([]float64, 4)
	v.RoundTo(want)

	pa := PartialAggregate{
		Round: 7, Tier: 2, Node: 5, LeafLo: 128, LeafHi: 191,
		Survivors: 60, Weight: 12345, Sum: v.Serialize(),
	}
	var buf bytes.Buffer
	if err := EncodePartialAggregate(&buf, pa); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodePartialAggregate(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Round != 7 || dec.Tier != 2 || dec.Node != 5 || dec.LeafLo != 128 ||
		dec.LeafHi != 191 || dec.Survivors != 60 || dec.Weight != 12345 {
		t.Fatalf("meta mismatch: %+v", dec)
	}
	merged := exact.NewVec(4)
	if err := merged.Absorb(dec.Sum); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 4)
	merged.RoundTo(got)
	for j := range want {
		gb, wb := math.Float64bits(got[j]), math.Float64bits(want[j])
		if gb != wb && !(math.IsNaN(got[j]) && math.IsNaN(want[j])) {
			t.Fatalf("param %d: %x != %x", j, gb, wb)
		}
	}
}

// TestTreeConfigValidation pins NewServer's tree validation.
func TestTreeConfigValidation(t *testing.T) {
	base := ServerConfig{InitialParams: []float64{1}, Jobs: 1, DeadlineRatio: 2}
	for _, bad := range []*TreeConfig{
		{Fanout: 0}, {Fanout: 1}, {Fanout: -3},
		{Fanout: 2, TierQuorum: -0.1}, {Fanout: 2, TierQuorum: 1.5},
	} {
		cfg := base
		cfg.Tree = bad
		if _, err := NewServer(cfg); err == nil {
			t.Fatalf("config %+v accepted", bad)
		}
	}
	cfg := base
	cfg.Tree = &TreeConfig{Fanout: 2, TierQuorum: 0.5}
	if _, err := NewServer(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestTreePipelinedClosesMatchSerial pins the async tier-0 close pipeline:
// with pool workers available, group closes frame their partials off the
// turnstile and commit in enqueue order, so the committed model AND the
// ledger JSONL must be byte-identical to the single-worker serial walk —
// with subtree drops and dropouts interleaved. Run with -race to check the
// snapshot hand-off.
func TestTreePipelinedClosesMatchSerial(t *testing.T) {
	const dim, clients, fanout = 96, 61, 3 // ragged everywhere
	run := func(workersN int) ([]float64, []byte) {
		prevW := parallel.SetWorkers(workersN)
		defer parallel.SetWorkers(prevW)
		led := ledger.New(0)
		srv := treeServer(t, dim, clients, &TreeConfig{Fanout: fanout, TierQuorum: 0.5})
		srv.cfg.Ledger = led
		srv.cfg.TolerateDropouts = true
		for i, p := range srv.pool {
			if i%9 == 2 || i%9 == 5 { // 2 of 3 leaves gone in some groups
				p.(*mathParticipant).fail = true
			}
		}
		for r := 0; r < 2; r++ {
			if _, err := srv.RunRound(); err != nil {
				t.Fatalf("workers=%d round %d: %v", workersN, r, err)
			}
		}
		var buf bytes.Buffer
		if err := led.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return srv.GlobalParams(), buf.Bytes()
	}
	wantModel, wantJSONL := run(1)
	for _, w := range []int{2, 4} {
		model, jsonl := run(w)
		bitwiseEqual(t, fmt.Sprintf("workers=%d model", w), model, wantModel)
		if !bytes.Equal(jsonl, wantJSONL) {
			t.Fatalf("workers=%d: ledger JSONL diverges from serial (%d vs %d bytes)",
				w, len(jsonl), len(wantJSONL))
		}
	}
}
