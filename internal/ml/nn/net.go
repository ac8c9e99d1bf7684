// Package nn implements small feed-forward neural networks with
// manual backpropagation: a domain-adversarial network (DANN) with a
// gradient reversal layer.
// The DANN is the transfer mechanism behind the DTAL* baseline (Kasai
// et al., 2019): a shared encoder feeds a label head trained on source
// labels and a domain head whose gradient is reversed into the
// encoder, pushing the encoder towards domain-invariant features.
package nn

import (
	"math"
	"math/rand"
)

// dense is one fully connected layer with optional ReLU activation.
type dense struct {
	in, out int
	w       []float64 // out*in, row-major per output unit
	b       []float64
	relu    bool

	// cached forward pass values for backprop
	lastIn  []float64
	lastPre []float64 // pre-activation
}

func newDense(in, out int, relu bool, rng *rand.Rand) *dense {
	d := &dense{in: in, out: out, relu: relu,
		w: make([]float64, in*out), b: make([]float64, out)}
	// He initialisation keeps ReLU activations well scaled.
	scale := math.Sqrt(2 / float64(in))
	for i := range d.w {
		d.w[i] = rng.NormFloat64() * scale
	}
	return d
}

// forward computes the layer output, caching inputs for backward.
func (d *dense) forward(x []float64) []float64 {
	d.lastIn = x
	if cap(d.lastPre) < d.out {
		d.lastPre = make([]float64, d.out)
	}
	d.lastPre = d.lastPre[:d.out]
	out := make([]float64, d.out)
	for o := 0; o < d.out; o++ {
		z := d.b[o]
		row := d.w[o*d.in : (o+1)*d.in]
		for j, v := range x {
			z += row[j] * v
		}
		d.lastPre[o] = z
		if d.relu && z < 0 {
			z = 0
		}
		out[o] = z
	}
	return out
}

// apply computes the layer output without caching backprop state.
// forward is for training only; inference must go through apply so
// that PredictProba stays pure and safe for concurrent row chunks.
func (d *dense) apply(x []float64) []float64 {
	out := make([]float64, d.out)
	for o := 0; o < d.out; o++ {
		z := d.b[o]
		row := d.w[o*d.in : (o+1)*d.in]
		for j, v := range x {
			z += row[j] * v
		}
		if d.relu && z < 0 {
			z = 0
		}
		out[o] = z
	}
	return out
}

// backward consumes dLoss/dOut, applies an SGD step with the given
// learning rate, and returns dLoss/dIn.
func (d *dense) backward(gradOut []float64, lr float64) []float64 {
	gradIn := make([]float64, d.in)
	for o := 0; o < d.out; o++ {
		g := gradOut[o]
		if d.relu && d.lastPre[o] <= 0 {
			continue
		}
		row := d.w[o*d.in : (o+1)*d.in]
		for j, v := range d.lastIn {
			gradIn[j] += row[j] * g
			row[j] -= lr * g * v
		}
		d.b[o] -= lr * g
	}
	return gradIn
}

// backwardNoUpdate returns dLoss/dIn without touching the weights;
// used when a head's gradient must flow into the encoder scaled
// separately (gradient reversal).
func (d *dense) backwardNoUpdate(gradOut []float64) []float64 {
	gradIn := make([]float64, d.in)
	for o := 0; o < d.out; o++ {
		g := gradOut[o]
		if d.relu && d.lastPre[o] <= 0 {
			continue
		}
		row := d.w[o*d.in : (o+1)*d.in]
		for j := range d.lastIn {
			gradIn[j] += row[j] * g
		}
	}
	return gradIn
}

// update applies the SGD step that backwardNoUpdate skipped.
func (d *dense) update(gradOut []float64, lr float64) {
	for o := 0; o < d.out; o++ {
		g := gradOut[o]
		if d.relu && d.lastPre[o] <= 0 {
			continue
		}
		row := d.w[o*d.in : (o+1)*d.in]
		for j, v := range d.lastIn {
			row[j] -= lr * g * v
		}
		d.b[o] -= lr * g
	}
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		e := math.Exp(-z)
		return 1 / (1 + e)
	}
	e := math.Exp(z)
	return e / (1 + e)
}
