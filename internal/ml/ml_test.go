package ml

import (
	"math"
	"testing"
)

// gradCheck compares analytic gradients against central finite differences.
func gradCheck(t *testing.T, m Model, batch []Example, tol float64) {
	t.Helper()
	grads, _, err := m.Gradients(batch)
	if err != nil {
		t.Fatal(err)
	}
	params := m.Params()
	const eps = 1e-5
	checked := 0
	for i := 0; i < len(params); i += 1 + len(params)/160 { // sample ~160 params
		orig := params[i]
		params[i] = orig + eps
		lp, err := m.Loss(batch)
		if err != nil {
			t.Fatal(err)
		}
		params[i] = orig - eps
		lm, err := m.Loss(batch)
		if err != nil {
			t.Fatal(err)
		}
		params[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if diff := math.Abs(numeric - grads[i]); diff > tol*(1+math.Abs(numeric)) {
			t.Errorf("param %d: analytic %v vs numeric %v", i, grads[i], numeric)
		}
		checked++
	}
	want := len(params)
	if want > 15 {
		want = 15
	}
	if checked < want {
		t.Fatalf("only %d of %d params checked", checked, len(params))
	}
}

func TestLinearGradients(t *testing.T) {
	m, err := NewLinear(5, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := Blobs(8, 5, 3, 0.8, 2)
	if err != nil {
		t.Fatal(err)
	}
	gradCheck(t, m, batch, 1e-4)
}

func TestMLPGradients(t *testing.T) {
	m, err := NewMLP(6, 7, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := Blobs(6, 6, 4, 0.8, 4)
	if err != nil {
		t.Fatal(err)
	}
	gradCheck(t, m, batch, 1e-4)
}

func TestLSTMGradients(t *testing.T) {
	m, err := NewLSTMClassifier(12, 4, 5, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := Sentiment(4, 12, 6, 0.2, 6)
	if err != nil {
		t.Fatal(err)
	}
	gradCheck(t, m, batch, 1e-3)
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewLinear(0, 3, 1); err == nil {
		t.Error("linear in=0 accepted")
	}
	if _, err := NewLinear(3, 1, 1); err == nil {
		t.Error("linear out=1 accepted")
	}
	if _, err := NewMLP(3, 0, 2, 1); err == nil {
		t.Error("mlp hidden=0 accepted")
	}
	if _, err := NewLSTMClassifier(0, 2, 2, 2, 1); err == nil {
		t.Error("lstm vocab=0 accepted")
	}
}

func TestBatchValidation(t *testing.T) {
	lin, err := NewLinear(3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lin.Loss(nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := lin.Loss([]Example{{Features: []float64{1}, Label: 0}}); err == nil {
		t.Error("short features accepted")
	}
	if _, err := lin.Loss([]Example{{Features: []float64{1, 2, 3}, Label: 5}}); err == nil {
		t.Error("label out of range accepted")
	}
	lstm, err := NewLSTMClassifier(4, 2, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lstm.Loss([]Example{{Seq: nil, Label: 0}}); err == nil {
		t.Error("empty sequence accepted")
	}
	if _, err := lstm.Loss([]Example{{Seq: []int{99}, Label: 0}}); err == nil {
		t.Error("token out of vocab accepted")
	}
}

func TestSGDValidation(t *testing.T) {
	m, err := NewLinear(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := SGD(m, make([]float64, 3), 0.1); err == nil {
		t.Error("mismatched gradient length accepted")
	}
	for _, lr := range []float64{0, -0.1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := SGD(m, make([]float64, m.NumParams()), lr); err == nil {
			t.Errorf("learning rate %v accepted", lr)
		}
	}
}

func trainToAccuracy(t *testing.T, m Model, train, test []Example, lr float64, epochs, batchSize int) float64 {
	t.Helper()
	batches, err := Batches(train, batchSize)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < epochs; e++ {
		for _, b := range batches {
			if _, err := TrainStep(m, b, lr); err != nil {
				t.Fatal(err)
			}
		}
	}
	acc, err := Accuracy(m, test)
	if err != nil {
		t.Fatal(err)
	}
	return acc
}

func TestLinearLearnsBlobs(t *testing.T) {
	data, err := Blobs(600, 8, 4, 0.6, 11)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewLinear(8, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	acc := trainToAccuracy(t, m, data[:500], data[500:], 0.3, 10, 16)
	if acc < 0.9 {
		t.Errorf("linear accuracy %v, want ≥0.9", acc)
	}
}

func TestMLPLearnsBlobs(t *testing.T) {
	data, err := Blobs(600, 8, 4, 0.6, 12)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMLP(8, 16, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	acc := trainToAccuracy(t, m, data[:500], data[500:], 0.2, 15, 16)
	if acc < 0.9 {
		t.Errorf("mlp accuracy %v, want ≥0.9", acc)
	}
}

func TestLSTMLearnsSentiment(t *testing.T) {
	data, err := Sentiment(400, 20, 8, 0.2, 13)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewLSTMClassifier(20, 6, 8, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	acc := trainToAccuracy(t, m, data[:320], data[320:], 0.5, 25, 8)
	if acc < 0.9 {
		t.Errorf("lstm accuracy %v, want ≥0.9", acc)
	}
}

func TestTrainStepReducesLoss(t *testing.T) {
	data, err := Blobs(64, 5, 3, 0.5, 21)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMLP(5, 8, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	before, err := m.Loss(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := TrainStep(m, data, 0.2); err != nil {
			t.Fatal(err)
		}
	}
	after, err := m.Loss(data)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Errorf("loss did not decrease: %v → %v", before, after)
	}
}

func TestBlobsValidation(t *testing.T) {
	if _, err := Blobs(0, 3, 2, 0.5, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Blobs(10, 3, 1, 0.5, 1); err == nil {
		t.Error("classes=1 accepted")
	}
	if _, err := Blobs(10, 3, 2, 0, 1); err == nil {
		t.Error("spread=0 accepted")
	}
}

func TestSentimentValidation(t *testing.T) {
	if _, err := Sentiment(0, 10, 5, 0.1, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Sentiment(10, 2, 5, 0.1, 1); err == nil {
		t.Error("tiny vocab accepted")
	}
	if _, err := Sentiment(10, 10, 5, 1.0, 1); err == nil {
		t.Error("mix=1 accepted")
	}
}

func TestPartition(t *testing.T) {
	data, err := Blobs(10, 2, 2, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := Partition(data, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 {
		t.Fatalf("got %d parts", len(parts))
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total != 10 {
		t.Errorf("partition lost examples: %d", total)
	}
	if _, err := Partition(data, 0); err == nil {
		t.Error("0 parts accepted")
	}
}

func TestBatches(t *testing.T) {
	data, err := Blobs(10, 2, 2, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := Batches(data, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 3 || len(bs[0]) != 4 || len(bs[2]) != 2 {
		t.Errorf("batch shapes wrong: %d batches", len(bs))
	}
	if _, err := Batches(data, 0); err == nil {
		t.Error("size 0 accepted")
	}
}

func TestAccuracyEmptyInput(t *testing.T) {
	m, err := NewLinear(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Accuracy(m, nil); err == nil {
		t.Error("empty eval set accepted")
	}
}

func TestDataDeterministicBySeed(t *testing.T) {
	a, err := Blobs(20, 4, 3, 0.5, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Blobs(20, 4, 3, 0.5, 99)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Label != b[i].Label || a[i].Features[0] != b[i].Features[0] {
			t.Fatal("Blobs not deterministic by seed")
		}
	}
}
