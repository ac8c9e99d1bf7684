package nn

import (
	"errors"
	"math/rand"
)

// DANNConfig holds what varies between domain-adversarial networks;
// the other hyper-parameters are the constants below.
type DANNConfig struct {
	// Epochs over the interleaved source/target stream; 0 means 60.
	Epochs int
	// Seed drives weight init and sample order.
	Seed int64
}

const (
	// encoderHidden is the shared encoder's output width.
	encoderHidden = 16
	// lambda scales the reversed domain gradient into the encoder (the
	// gradient reversal coefficient).
	lambda = 0.5
	// learningRate of SGD.
	learningRate = 0.05
)

func (c DANNConfig) withDefaults() DANNConfig {
	if c.Epochs == 0 {
		c.Epochs = 60
	}
	return c
}

// DANN is a domain-adversarial neural network: shared encoder, label
// head trained on labelled source rows, and domain head whose gradient
// is reversed before entering the encoder so that encoded features
// become indistinguishable across domains.
type DANN struct {
	cfg     DANNConfig
	encoder *dense
	label   *dense
	domain  *dense
}

// NewDANN creates an untrained domain-adversarial network.
func NewDANN(cfg DANNConfig) *DANN { return &DANN{cfg: cfg.withDefaults()} }

// FitDomains trains on labelled source rows and unlabelled target
// rows. Each epoch interleaves (a) label steps on source rows and (b)
// domain-discrimination steps on both domains with the reversed
// gradient flowing into the encoder.
func (d *DANN) FitDomains(xSrc [][]float64, ySrc []int, xTgt [][]float64) error {
	if len(xSrc) == 0 {
		return errors.New("nn: no source training data")
	}
	if len(xSrc) != len(ySrc) {
		return errors.New("nn: source rows and labels differ in length")
	}
	dim := len(xSrc[0])
	rng := rand.New(rand.NewSource(d.cfg.Seed))
	d.encoder = newDense(dim, encoderHidden, true, rng)
	d.label = newDense(encoderHidden, 1, false, rng)
	d.domain = newDense(encoderHidden, 1, false, rng)

	labelStep := func(x []float64, y int) {
		h := d.encoder.forward(x)
		out := d.label.forward(h)
		p := sigmoid(out[0])
		grad := []float64{p - float64(y)}
		gh := d.label.backwardNoUpdate(grad)
		d.label.update(grad, learningRate)
		d.encoder.backward(gh, learningRate)
	}

	// domainStep trains the domain head to tell domains apart while the
	// encoder receives the REVERSED gradient scaled by lambda: the head
	// descends its loss, the encoder ascends it.
	domainStep := func(x []float64, dom int) {
		h := d.encoder.forward(x)
		out := d.domain.forward(h)
		p := sigmoid(out[0])
		grad := []float64{p - float64(dom)}
		gh := d.domain.backwardNoUpdate(grad)
		d.domain.update(grad, learningRate)
		for j := range gh {
			gh[j] = -lambda * gh[j] // gradient reversal layer
		}
		d.encoder.backward(gh, learningRate)
	}

	nS, nT := len(xSrc), len(xTgt)
	for epoch := 0; epoch < d.cfg.Epochs; epoch++ {
		order := rng.Perm(nS)
		for _, i := range order {
			labelStep(xSrc[i], ySrc[i])
			domainStep(xSrc[i], 0)
			if nT > 0 {
				domainStep(xTgt[rng.Intn(nT)], 1)
			}
		}
	}
	return nil
}

// PredictProba returns the label head's match probability per row.
func (d *DANN) PredictProba(x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i, row := range x {
		if d.encoder == nil {
			out[i] = 0.5
			continue
		}
		h := d.encoder.apply(row)
		out[i] = sigmoid(d.label.apply(h)[0])
	}
	return out
}

// DomainProba returns the domain head's P(target | row), used in tests
// to verify that adversarial training actually confuses the domains.
func (d *DANN) DomainProba(x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i, row := range x {
		if d.encoder == nil {
			out[i] = 0.5
			continue
		}
		h := d.encoder.apply(row)
		out[i] = sigmoid(d.domain.apply(h)[0])
	}
	return out
}
