package train

import (
	"fmt"
)

// DPPair executes data-parallel training of an arbitrary network
// (convolutions, pooling and fc alike) across two accelerator groups:
// each group holds a full weight replica and half the mini-batch, and
// the gradient partial sums are exchanged before the update — Figure
// 1(a) made concrete for the general layer mix the zoo uses. It
// complements HierarchicalFC (which adds mp and any depth but is
// fc-only): together they cover both parallelism classes numerically.
type DPPair struct {
	groups [2]*Network
	batch  int

	// GradExchanged counts the gradient elements exchanged, both
	// directions summed (Table 1: 2·A(∆W_l) per layer per step).
	GradExchanged float64
}

// NewDPPair builds two identically initialized replicas of the model.
func NewDPPair(ref *Network) (*DPPair, error) {
	if ref.Batch%2 != 0 {
		return nil, fmt.Errorf("%w: batch %d not divisible by two groups", ErrTrain, ref.Batch)
	}
	p := &DPPair{batch: ref.Batch}
	for g := 0; g < 2; g++ {
		net, err := NewNetwork(ref.Model, ref.Batch/2, 1)
		if err != nil {
			return nil, err
		}
		// Copy the reference weights so both replicas and the
		// single-device baseline start identically.
		for l := 0; l < ref.Layers(); l++ {
			copy(net.Weights(l).Data, ref.Weights(l).Data)
		}
		p.groups[g] = net
	}
	return p, nil
}

// Step runs one data-parallel training step on the full batch x
// (NHWC) and labels, returning the global loss.
func (p *DPPair) Step(x *Tensor, labels []int, lr float64) (float64, error) {
	if len(x.Shape) != 4 || x.Shape[0] != p.batch {
		return 0, fmt.Errorf("%w: input shape %v for batch %d", ErrTrain, x.Shape, p.batch)
	}
	if len(labels) != p.batch {
		return 0, fmt.Errorf("%w: %d labels for batch %d", ErrTrain, len(labels), p.batch)
	}
	half := p.batch / 2
	sliceLen := x.Len() / p.batch

	// Forward on each group's half batch.
	logits := make([]*Tensor, 2)
	for g := 0; g < 2; g++ {
		xg := &Tensor{
			Shape: []int{half, x.Shape[1], x.Shape[2], x.Shape[3]},
			Data:  x.Data[g*half*sliceLen : (g+1)*half*sliceLen],
		}
		lg, err := p.groups[g].Forward(xg)
		if err != nil {
			return 0, err
		}
		logits[g] = lg
	}

	// Global loss and gradient (normalized by the full batch, as a
	// single device would).
	classes := logits[0].Shape[1]
	full := &Tensor{Shape: []int{p.batch, classes}, Data: make([]float64, p.batch*classes)}
	copy(full.Data[:half*classes], logits[0].Data)
	copy(full.Data[half*classes:], logits[1].Data)
	loss, dLogits, err := SoftmaxCrossEntropy(full, labels)
	if err != nil {
		return 0, err
	}

	// Backward per group on its slice of the gradient.
	for g := 0; g < 2; g++ {
		dg := &Tensor{
			Shape: []int{half, classes},
			Data:  dLogits.Data[g*half*classes : (g+1)*half*classes],
		}
		if _, err := p.groups[g].Backward(dg); err != nil {
			return 0, err
		}
	}

	// Gradient partial-sum exchange ⊕ and replicated update.
	for l := 0; l < p.groups[0].Layers(); l++ {
		g0 := p.groups[0].Grads(l)
		g1 := p.groups[1].Grads(l)
		p.GradExchanged += float64(g0.Len() + g1.Len())
		if err := g0.AddScaled(g1, 1); err != nil {
			return 0, err
		}
		copy(g1.Data, g0.Data)
	}
	p.groups[0].Step(lr)
	p.groups[1].Step(lr)
	return loss, nil
}

// Weights returns group 0's weights for layer l (both replicas stay
// identical; VerifyReplicas checks that).
func (p *DPPair) Weights(l int) *Tensor { return p.groups[0].Weights(l) }

// VerifyReplicas returns the largest divergence between the two
// replicas' weights (zero when the exchange is implemented correctly).
func (p *DPPair) VerifyReplicas() (float64, error) {
	var worst float64
	for l := 0; l < p.groups[0].Layers(); l++ {
		d, err := MaxAbsDiff(p.groups[0].Weights(l), p.groups[1].Weights(l))
		if err != nil {
			return 0, err
		}
		if d > worst {
			worst = d
		}
	}
	return worst, nil
}
