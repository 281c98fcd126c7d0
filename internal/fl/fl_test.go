package fl

import (
	"fmt"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"bofl/internal/core"
	"bofl/internal/device"
	"bofl/internal/ml"
)

func TestTasksMatchTable2(t *testing.T) {
	agx := device.JetsonAGX()
	specs, err := Tasks(agx, 2.0, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		name          string
		b, e, n, jobs int
		tmin          float64
	}{
		{"CIFAR10-ViT", 32, 5, 40, 200, 37.2},
		{"ImageNet-ResNet50", 8, 2, 90, 180, 46.9},
		{"IMDB-LSTM", 8, 4, 40, 160, 46.1},
	}
	for i, w := range want {
		s := specs[i]
		if s.Name != w.name || s.BatchSize != w.b || s.Epochs != w.e || s.Minibatches != w.n {
			t.Errorf("spec %d = %+v, want %+v", i, s, w)
		}
		if s.Jobs() != w.jobs {
			t.Errorf("%s: jobs %d, want %d", s.Name, s.Jobs(), w.jobs)
		}
		tmin, err := TMin(agx, s)
		if err != nil {
			t.Fatal(err)
		}
		if diff := tmin - w.tmin; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("%s: T_min %v, want %v", s.Name, tmin, w.tmin)
		}
	}

	tx2 := device.JetsonTX2()
	specsTX2, err := Tasks(tx2, 2.0, 100)
	if err != nil {
		t.Fatal(err)
	}
	wantN := []int{15, 30, 20}
	for i, s := range specsTX2 {
		if s.Minibatches != wantN[i] {
			t.Errorf("tx2 %s: N = %d, want %d", s.Name, s.Minibatches, wantN[i])
		}
	}
}

func TestTaskValidation(t *testing.T) {
	bad := TaskSpec{Name: "x", BatchSize: 0, Epochs: 1, Minibatches: 1, Rounds: 1, DeadlineRatio: 2}
	if err := bad.Validate(); err == nil {
		t.Error("batch size 0 accepted")
	}
	bad = TaskSpec{Name: "x", BatchSize: 1, Epochs: 1, Minibatches: 1, Rounds: 1, DeadlineRatio: 0.5}
	if err := bad.Validate(); err == nil {
		t.Error("ratio < 1 accepted")
	}
}

func TestSampleDeadlines(t *testing.T) {
	ds, err := SampleDeadlines(40, 2.0, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 100 {
		t.Fatalf("got %d deadlines", len(ds))
	}
	for _, d := range ds {
		if d < 40 || d > 80 {
			t.Fatalf("deadline %v outside [40, 80]", d)
		}
	}
	ds2, err := SampleDeadlines(40, 2.0, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds {
		if ds[i] != ds2[i] {
			t.Fatal("deadlines not deterministic per seed")
		}
	}
	if _, err := SampleDeadlines(0, 2, 10, 1); err == nil {
		t.Error("tmin 0 accepted")
	}
	if _, err := SampleDeadlines(40, 0.5, 10, 1); err == nil {
		t.Error("ratio < 1 accepted")
	}
	if _, err := SampleDeadlines(40, 2, 0, 1); err == nil {
		t.Error("0 rounds accepted")
	}
}

// newTestClient builds a Performant-paced client on a tiny dataset.
func newTestClient(t *testing.T, id string, seed int64) *Client {
	t.Helper()
	dev := device.JetsonAGX()
	model, err := ml.NewMLP(8, 8, 4, seed)
	if err != nil {
		t.Fatal(err)
	}
	data, err := ml.Blobs(64, 8, 4, 0.6, seed)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := core.NewPerformant(dev.Space())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(ClientConfig{
		ID:         id,
		Device:     dev,
		Workload:   device.ViT,
		Model:      model,
		Data:       data,
		BatchSize:  8,
		LearnRate:  0.2,
		Controller: ctrl,
		Seed:       seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewClientValidation(t *testing.T) {
	dev := device.JetsonAGX()
	model, err := ml.NewMLP(4, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := ml.Blobs(8, 4, 2, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := core.NewPerformant(dev.Space())
	if err != nil {
		t.Fatal(err)
	}
	cases := []ClientConfig{
		{Device: dev, Workload: device.ViT, Model: model, Data: data, BatchSize: 4, LearnRate: 0.1, Controller: ctrl},
		{ID: "a", Workload: device.ViT, Model: model, Data: data, BatchSize: 4, LearnRate: 0.1, Controller: ctrl},
		{ID: "a", Device: dev, Workload: device.ViT, Model: model, BatchSize: 4, LearnRate: 0.1, Controller: ctrl},
		{ID: "a", Device: dev, Workload: device.ViT, Model: model, Data: data, BatchSize: 4, Controller: ctrl},
		{ID: "a", Device: dev, Workload: device.ViT, Model: model, Data: data, BatchSize: 0, LearnRate: 0.1, Controller: ctrl},
	}
	for i, cfg := range cases {
		if _, err := NewClient(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	// A NaN or infinite rate would make every parameter non-finite on the
	// first step, and the exact fold would carry that into the global model.
	for _, lr := range []float64{-0.1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := ClientConfig{ID: "a", Device: dev, Workload: device.ViT, Model: model, Data: data,
			BatchSize: 4, LearnRate: lr, Controller: ctrl}
		if _, err := NewClient(cfg); err == nil {
			t.Errorf("learning rate %v accepted", lr)
		}
	}
}

func TestClientTrainRoundAdvancesClockAndModel(t *testing.T) {
	c := newTestClient(t, "c0", 1)
	before, err := c.Model().Loss(flattenBatches(c.batches))
	if err != nil {
		t.Fatal(err)
	}
	start := c.Clock().Now()
	rep, err := c.TrainRound(1, 40, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.DeadlineMet {
		t.Error("performant round missed a generous deadline")
	}
	if c.Clock().Now().Sub(start) <= 0 {
		t.Error("virtual clock did not advance")
	}
	if c.TotalEnergy() <= 0 {
		t.Error("no energy charged")
	}
	for i := 0; i < 5; i++ {
		if _, err := c.TrainRound(2+i, 40, 100); err != nil {
			t.Fatal(err)
		}
	}
	after, err := c.Model().Loss(flattenBatches(c.batches))
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Errorf("training did not reduce loss: %v → %v", before, after)
	}
}

func flattenBatches(batches [][]ml.Example) []ml.Example {
	var out []ml.Example
	for _, b := range batches {
		out = append(out, b...)
	}
	return out
}

func TestClientSetParamsValidation(t *testing.T) {
	c := newTestClient(t, "c0", 1)
	if err := c.SetParams(make([]float64, 3)); err == nil {
		t.Error("wrong-length params accepted")
	}
	p := c.Params()
	p[0] = 42
	if err := c.SetParams(p); err != nil {
		t.Fatal(err)
	}
	if c.Params()[0] != 42 {
		t.Error("SetParams did not install values")
	}
	// Params must return a copy.
	q := c.Params()
	q[0] = -1
	if c.Params()[0] == -1 {
		t.Error("Params exposes internal state")
	}
}

// buildFederation wires n in-process clients to a server, all sharing one
// global MLP on a blobs task.
func buildFederation(t *testing.T, n int, selector Selector, perRound int) (*Server, []*Client, []ml.Example) {
	t.Helper()
	dev := device.JetsonAGX()
	global, err := ml.NewMLP(8, 10, 4, 99)
	if err != nil {
		t.Fatal(err)
	}
	all, err := ml.Blobs(400+n*100, 8, 4, 0.6, 5)
	if err != nil {
		t.Fatal(err)
	}
	test := all[:100]
	shards, err := ml.Partition(all[100:], n)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		InitialParams:        global.Params(),
		Jobs:                 30,
		DeadlineRatio:        2.0,
		Selector:             selector,
		ParticipantsPerRound: perRound,
		Seed:                 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*Client, n)
	for i := 0; i < n; i++ {
		model, err := ml.NewMLP(8, 10, 4, 99) // same architecture
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := core.NewPerformant(dev.Space())
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewClient(ClientConfig{
			ID:         fmt.Sprintf("client-%d", i),
			Device:     dev,
			Workload:   device.ViT,
			Model:      model,
			Data:       shards[i],
			BatchSize:  8,
			LearnRate:  0.15,
			Controller: ctrl,
			Seed:       int64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
		srv.Register(&LocalParticipant{Client: c})
	}
	return srv, clients, test
}

func TestFedAvgConverges(t *testing.T) {
	srv, _, test := buildFederation(t, 4, AllSelector{}, 0)
	results, err := srv.Run(12)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 12 {
		t.Fatalf("ran %d rounds", len(results))
	}
	eval, err := ml.NewMLP(8, 10, 4, 99)
	if err != nil {
		t.Fatal(err)
	}
	copy(eval.Params(), srv.GlobalParams())
	acc, err := ml.Accuracy(eval, test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.85 {
		t.Errorf("federated accuracy %v, want ≥0.85", acc)
	}
	// Every round met its deadline (Performant pacing).
	for _, res := range results {
		for _, rep := range res.Reports {
			if !rep.DeadlineMet {
				t.Errorf("round %d missed deadline", res.Round)
			}
		}
		if res.Deadline <= 0 {
			t.Errorf("round %d deadline %v", res.Round, res.Deadline)
		}
	}
}

func TestRandomSelectorSubsets(t *testing.T) {
	srv, _, _ := buildFederation(t, 5, NewRandomSelector(1), 2)
	res, err := srv.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Responses) != 2 {
		t.Errorf("selected %d participants, want 2", len(res.Responses))
	}
}

func TestServerValidation(t *testing.T) {
	if _, err := NewServer(ServerConfig{Jobs: 1, DeadlineRatio: 2}); err == nil {
		t.Error("missing params accepted")
	}
	if _, err := NewServer(ServerConfig{InitialParams: []float64{1}, Jobs: 0, DeadlineRatio: 2}); err == nil {
		t.Error("jobs 0 accepted")
	}
	if _, err := NewServer(ServerConfig{InitialParams: []float64{1}, Jobs: 1, DeadlineRatio: 0.5}); err == nil {
		t.Error("ratio < 1 accepted")
	}
	srv, err := NewServer(ServerConfig{InitialParams: []float64{1}, Jobs: 1, DeadlineRatio: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.RunRound(); err == nil {
		t.Error("round with no participants accepted")
	}
	if _, err := srv.Run(0); err == nil {
		t.Error("0 rounds accepted")
	}
}

func TestHTTPTransportRoundTrip(t *testing.T) {
	c := newTestClient(t, "http-client", 21)
	ts := httptest.NewServer(NewClientHandler(c))
	defer ts.Close()

	p, err := DialParticipant(ts.URL, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if p.ID() != "http-client" {
		t.Errorf("id = %q", p.ID())
	}
	tmin, err := p.TMinFor(40)
	if err != nil {
		t.Fatal(err)
	}
	if tmin <= 0 {
		t.Errorf("tmin %v", tmin)
	}
	if _, err := p.TMinFor(0); err == nil {
		t.Error("jobs 0 accepted")
	}
	resp, err := p.Round(RoundRequest{Round: 1, Params: c.Params(), Jobs: 20, Deadline: 60})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ClientID != "http-client" || len(resp.Params) != len(c.Params()) {
		t.Errorf("bad response: client %q, %d params", resp.ClientID, len(resp.Params))
	}
	if !resp.Report.DeadlineMet {
		t.Error("remote round missed deadline")
	}
}

// TestHTTPRoundResponseOwnedByCaller checks that a caller of
// HTTPParticipant.Round owns the Params it is given: they match the daemon's
// replica after the round, and later rounds, whose decoded vectors come from
// the codec's pool on both sides, leave them alone.
func TestHTTPRoundResponseOwnedByCaller(t *testing.T) {
	c := newTestClient(t, "owner", 23)
	ts := httptest.NewServer(NewClientHandler(c))
	defer ts.Close()
	p, err := DialParticipant(ts.URL, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	global := c.Params()
	first, err := p.Round(RoundRequest{Round: 1, Params: global, Jobs: 5, Deadline: 60})
	if err != nil {
		t.Fatal(err)
	}
	kept := c.Params()
	for r := 2; r <= 4; r++ {
		if _, err := p.Round(RoundRequest{Round: r, Params: global, Jobs: 5, Deadline: 60}); err != nil {
			t.Fatal(err)
		}
	}
	if len(first.Params) != len(kept) {
		t.Fatalf("response has %d params, replica %d", len(first.Params), len(kept))
	}
	for i, v := range kept {
		if math.Float64bits(first.Params[i]) != math.Float64bits(v) {
			t.Fatalf("param %d = %v after later rounds, the round-1 replica held %v", i, first.Params[i], v)
		}
	}
}

func TestHTTPTransportErrors(t *testing.T) {
	if _, err := DialParticipant("http://127.0.0.1:1", time.Second); err == nil {
		t.Error("dead endpoint accepted")
	}
	c := newTestClient(t, "http-client", 22)
	ts := httptest.NewServer(NewClientHandler(c))
	defer ts.Close()
	p, err := DialParticipant(ts.URL, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Bad round request (wrong param length) must surface as an error.
	if _, err := p.Round(RoundRequest{Round: 1, Params: []float64{1}, Jobs: 5, Deadline: 60}); err == nil {
		t.Error("wrong param length accepted")
	}
}

func TestEndToEndBoflFederation(t *testing.T) {
	// One BoFL-paced client in a federation: the FL loop must run through
	// all three phases without missing deadlines while the model improves.
	dev := device.JetsonAGX()
	space := dev.Space()
	model, err := ml.NewMLP(8, 10, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	data, err := ml.Blobs(300, 8, 4, 0.6, 8)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := core.New(space, core.Options{Seed: 5, Tau: 2, MBORestarts: 1, MBOIters: 3})
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(ClientConfig{
		ID:         "bofl-client",
		Device:     dev,
		Workload:   device.ViT,
		Model:      model,
		Data:       data[:240],
		BatchSize:  8,
		LearnRate:  0.15,
		Controller: ctrl,
		Seed:       6,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		InitialParams: model.Params(),
		Jobs:          60,
		DeadlineRatio: 2.5,
		Seed:          4,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Register(&LocalParticipant{Client: client})
	results, err := srv.Run(18)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		for _, rep := range res.Reports {
			if !rep.DeadlineMet {
				t.Errorf("round %d missed deadline (phase %v)", res.Round, rep.Phase)
			}
		}
	}
	eval, err := ml.NewMLP(8, 10, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	copy(eval.Params(), srv.GlobalParams())
	acc, err := ml.Accuracy(eval, data[240:])
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.8 {
		t.Errorf("accuracy %v after 18 BoFL rounds, want ≥0.8", acc)
	}
}
