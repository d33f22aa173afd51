// Package privacy quantifies the paper's privacy argument for partial
// inference (§III.B.2): feature data leaving the client is not easily
// recognizable, and — unless the attacker holds the front part of the DNN —
// the input cannot be reconstructed from it. It implements the
// hill-climbing reconstruction attack the paper cites ([17], Mahendran &
// Vedaldi) in a gradient-free form, scored against a random-guess baseline.
package privacy

import (
	"errors"
	"fmt"

	"websnap/internal/nn"
	"websnap/internal/tensor"
)

// AttackOptions tunes the reconstruction attack.
type AttackOptions struct {
	// Iterations is the number of hill-climbing steps.
	Iterations int
	// StepSize is the initial perturbation magnitude; it decays as the
	// search progresses.
	StepSize float32
	// BatchSize is how many input coordinates are perturbed per step.
	BatchSize int
	// Seed makes the attack deterministic.
	Seed uint64
}

// AttackResult reports a reconstruction attempt.
type AttackResult struct {
	// Reconstruction is the attacker's best input estimate.
	Reconstruction *tensor.Tensor
	// FeatureLoss is the final distance between the reconstruction's
	// feature and the target feature (the attack's own objective).
	FeatureLoss float64
	// Iterations actually performed.
	Iterations int
}

// Reconstruct runs the hill-climbing attack: given the front sub-network
// and the observed feature data, search for an input whose feature matches.
// This models an edge server that has obtained the front model; withholding
// the front model denies the attacker this function entirely.
func Reconstruct(front *nn.Network, feature *tensor.Tensor, opts AttackOptions) (AttackResult, error) {
	if front == nil || feature == nil {
		return AttackResult{}, errors.New("privacy: nil front network or feature")
	}
	if opts.Iterations <= 0 || opts.BatchSize <= 0 || opts.StepSize <= 0 {
		return AttackResult{}, fmt.Errorf("privacy: invalid attack options %+v", opts)
	}
	inShape := front.InputShape()
	guess, err := tensor.New(inShape...)
	if err != nil {
		return AttackResult{}, err
	}
	rng := newRNG(opts.Seed)
	gd := guess.Data()
	for i := range gd {
		gd[i] = rng.uniform()
	}
	best, err := featureLoss(front, guess, feature)
	if err != nil {
		return AttackResult{}, err
	}
	idx := make([]int, opts.BatchSize)
	old := make([]float32, opts.BatchSize)
	for it := 0; it < opts.Iterations; it++ {
		// Step size anneals linearly to 10% over the run.
		step := opts.StepSize * (1 - 0.9*float32(it)/float32(opts.Iterations))
		for j := 0; j < opts.BatchSize; j++ {
			k := int(rng.next() % uint64(len(gd)))
			idx[j] = k
			old[j] = gd[k]
			gd[k] = clamp01(gd[k] + (rng.uniform()*2-1)*step)
		}
		loss, err := featureLoss(front, guess, feature)
		if err != nil {
			return AttackResult{}, err
		}
		if loss < best {
			best = loss
		} else {
			for j := opts.BatchSize - 1; j >= 0; j-- {
				gd[idx[j]] = old[j]
			}
		}
	}
	return AttackResult{Reconstruction: guess, FeatureLoss: best, Iterations: opts.Iterations}, nil
}

func featureLoss(front *nn.Network, input, target *tensor.Tensor) (float64, error) {
	out, err := front.Forward(input)
	if err != nil {
		return 0, err
	}
	d, err := tensor.SumSquaredDiff(out, target)
	if err != nil {
		return 0, err
	}
	return d / float64(target.Len()), nil
}

func clamp01(v float32) float32 {
	switch {
	case v < 0:
		return 0
	case v > 1:
		return 1
	default:
		return v
	}
}

// MSE returns the mean squared error between two equal-shaped tensors —
// the reconstruction-quality metric.
func MSE(a, b *tensor.Tensor) (float64, error) {
	d, err := tensor.SumSquaredDiff(a, b)
	if err != nil {
		return 0, err
	}
	return d / float64(a.Len()), nil
}

// RandomBaselineMSE estimates the expected MSE an attacker achieves with no
// information at all (a uniform random guess against the true input),
// averaged over trials. Reconstruction quality should be judged against
// this prior.
func RandomBaselineMSE(truth *tensor.Tensor, trials int, seed uint64) (float64, error) {
	if trials <= 0 {
		return 0, errors.New("privacy: trials must be positive")
	}
	rng := newRNG(seed)
	var total float64
	guess, err := tensor.New(truth.Shape()...)
	if err != nil {
		return 0, err
	}
	for t := 0; t < trials; t++ {
		gd := guess.Data()
		for i := range gd {
			gd[i] = rng.uniform()
		}
		m, err := MSE(guess, truth)
		if err != nil {
			return 0, err
		}
		total += m
	}
	return total / float64(trials), nil
}

// rng is a small deterministic xorshift64* generator.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed*2685821657736338717 + 1} }

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 2685821657736338717
}

// uniform returns a float32 in [0, 1).
func (r *rng) uniform() float32 {
	return float32(r.next()>>40) / (1 << 24)
}
