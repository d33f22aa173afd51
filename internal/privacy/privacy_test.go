package privacy

import (
	"testing"

	"websnap/internal/nn"
	"websnap/internal/tensor"
)

// smallFront builds a one-conv front network (the minimum the paper's
// privacy constraint requires: at least one layer to denature the input).
func smallFront(t *testing.T) *nn.Network {
	t.Helper()
	in, err := nn.NewInput("data", 1, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := nn.NewConv("conv1", 1, 4, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	net, err := nn.NewNetwork("front", in, conv)
	if err != nil {
		t.Fatal(err)
	}
	net.InitWeights(7)
	return net
}

func trueInput(t *testing.T, shape ...int) *tensor.Tensor {
	t.Helper()
	in, err := tensor.New(shape...)
	if err != nil {
		t.Fatal(err)
	}
	r := newRNG(12345)
	d := in.Data()
	for i := range d {
		d[i] = r.uniform()
	}
	return in
}

// TestReconstructionWithFrontModel demonstrates the attack the paper cites:
// holding the front model, hill climbing recovers the input substantially
// better than an uninformed random guess.
func TestReconstructionWithFrontModel(t *testing.T) {
	front := smallFront(t)
	truth := trueInput(t, 1, 4, 4)
	feat, err := front.Forward(truth)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := RandomBaselineMSE(truth, 50, 99)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Reconstruct(front, feat, AttackOptions{
		Iterations: 8000, StepSize: 0.3, BatchSize: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := MSE(res.Reconstruction, truth)
	if err != nil {
		t.Fatal(err)
	}
	if got > baseline/2 {
		t.Errorf("attack with front model: reconstruction MSE %.4f vs baseline %.4f — attack should work",
			got, baseline)
	}
	if res.FeatureLoss < 0 {
		t.Error("negative feature loss")
	}
}

// TestAttackReducesItsObjective: the hill climb must strictly improve its
// own feature-matching loss over a random start.
func TestAttackReducesItsObjective(t *testing.T) {
	front := smallFront(t)
	truth := trueInput(t, 1, 4, 4)
	feat, err := front.Forward(truth)
	if err != nil {
		t.Fatal(err)
	}
	short, err := Reconstruct(front, feat, AttackOptions{Iterations: 10, StepSize: 0.3, BatchSize: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	long, err := Reconstruct(front, feat, AttackOptions{Iterations: 5000, StepSize: 0.3, BatchSize: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if long.FeatureLoss >= short.FeatureLoss {
		t.Errorf("longer attack did not improve: %.6f vs %.6f", long.FeatureLoss, short.FeatureLoss)
	}
}

// TestWrongFrontModelDefeatsAttack models the paper's defense: "by not
// sending the front part of the DNN model, we can prevent the server from
// reconstructing the input from the feature data." An attacker forced to
// guess the front model (different weights) reconstructs no better than the
// random baseline.
func TestWrongFrontModelDefeatsAttack(t *testing.T) {
	front := smallFront(t)
	truth := trueInput(t, 1, 4, 4)
	feat, err := front.Forward(truth)
	if err != nil {
		t.Fatal(err)
	}
	guessedFront := smallFront(t)
	guessedFront.InitWeights(999999) // attacker's wrong guess at the withheld model
	res, err := Reconstruct(guessedFront, feat, AttackOptions{
		Iterations: 8000, StepSize: 0.3, BatchSize: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := MSE(res.Reconstruction, truth)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := RandomBaselineMSE(truth, 50, 99)
	if err != nil {
		t.Fatal(err)
	}
	if got < baseline/2 {
		t.Errorf("attack with wrong model should fail: MSE %.4f vs baseline %.4f", got, baseline)
	}
}

func TestReconstructValidation(t *testing.T) {
	front := smallFront(t)
	feat := tensor.MustNew(4, 4, 4)
	opts := AttackOptions{Iterations: 1, StepSize: 0.25, BatchSize: 1, Seed: 1}
	if _, err := Reconstruct(nil, feat, opts); err == nil {
		t.Error("nil front should fail")
	}
	if _, err := Reconstruct(front, nil, opts); err == nil {
		t.Error("nil feature should fail")
	}
	if _, err := Reconstruct(front, feat, AttackOptions{}); err == nil {
		t.Error("zero options should fail")
	}
}

func TestMSE(t *testing.T) {
	a, _ := tensor.FromSlice([]float32{1, 2}, 2)
	b, _ := tensor.FromSlice([]float32{1, 4}, 2)
	got, err := MSE(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("MSE = %v, want 2", got)
	}
	c := tensor.MustNew(3)
	if _, err := MSE(a, c); err == nil {
		t.Error("shape mismatch should fail")
	}
}

func TestRandomBaselineMSE(t *testing.T) {
	truth := trueInput(t, 1, 8, 8)
	got, err := RandomBaselineMSE(truth, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Two independent U[0,1) draws have E[(x-y)^2] = 1/6.
	if got < 0.1 || got > 0.25 {
		t.Errorf("baseline = %.4f, want ~1/6", got)
	}
	if _, err := RandomBaselineMSE(truth, 0, 1); err == nil {
		t.Error("zero trials should fail")
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := newRNG(42), newRNG(42)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("rng not deterministic")
		}
	}
	v := newRNG(1).uniform()
	if v < 0 || v >= 1 {
		t.Errorf("uniform out of range: %v", v)
	}
}
