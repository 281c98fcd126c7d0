package fl

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"bofl/internal/core"
	"bofl/internal/device"
	"bofl/internal/ml"
)

// TestMLPFederationPinned runs perfbench round-http's federation at seed 1
// for six rounds: eight 32×256×32 MLP clients on 16-example batches under a
// Performant controller, folded through a fanout-2 tree. It pins the SHA-256
// of the committed model's float64 bits, in process and over loopback
// daemons on the binary codec. A change to the training kernel, the codec's
// pooled vectors or the fold that moves one bit of the model fails here.
func TestMLPFederationPinned(t *testing.T) {
	const want = "c334e0b4940852745099b5861a25ca866d30caa6b3f8501836c55e23c34077da"
	for _, overHTTP := range []bool{false, true} {
		if got := mlpFederationDigest(t, overHTTP, 6); got != want {
			t.Errorf("over HTTP %v: committed model sha256 %s, want %s", overHTTP, got, want)
		}
	}
}

// mlpFederationDigest builds round-http's federation, runs it and returns
// the committed model's digest.
func mlpFederationDigest(t *testing.T, overHTTP bool, rounds int) string {
	t.Helper()
	const seed, clients = 1, 8
	global, err := ml.NewMLP(32, 256, 32, seed)
	if err != nil {
		t.Fatal(err)
	}
	examples, err := ml.Blobs(clients*128, 32, 32, 1.0, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := ml.Partition(examples, clients)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		InitialParams: append([]float64(nil), global.Params()...),
		Jobs:          8,
		DeadlineRatio: 2,
		Seed:          seed,
		Tree:          &TreeConfig{Fanout: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	dev := device.JetsonAGX()
	for i := 0; i < clients; i++ {
		model, err := ml.NewMLP(32, 256, 32, seed+int64(i)+2)
		if err != nil {
			t.Fatal(err)
		}
		perf, err := core.NewPerformant(dev.Space())
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewClient(ClientConfig{
			ID: fmt.Sprintf("daemon-%d", i), Device: dev, Workload: device.ViT,
			Model: model, Data: shards[i], BatchSize: 16, LearnRate: 0.05,
			Controller: perf, Noise: device.NoiseModel{RefDuration: 5, MaxInflation: 1},
			Seed: seed + int64(i) + 1000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !overHTTP {
			srv.Register(&LocalParticipant{Client: c})
			continue
		}
		ts := httptest.NewServer(NewClientHandler(c))
		t.Cleanup(ts.Close)
		p, err := DialParticipant(ts.URL, 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if p.Codec() != CodecBinary {
			t.Fatalf("%s negotiated %q", p.ID(), p.Codec())
		}
		srv.Register(p)
	}
	for r := 0; r < rounds; r++ {
		if _, err := srv.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	h := sha256.New()
	var b [8]byte
	for _, v := range srv.GlobalParams() {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
