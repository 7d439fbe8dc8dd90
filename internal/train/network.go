package train

import (
	"fmt"
	"math"

	"repro/internal/nn"
)

// layerState holds one weighted layer's parameters and the activations
// cached by the forward pass for use in backward/gradient computation.
type layerState struct {
	spec nn.LayerShapes

	W  *Tensor // [K,K,Cin,Cout] conv or [Cin,Cout] fc
	DW *Tensor

	in      *Tensor // input as consumed (post previous pooling, flattened for fc)
	preAct  *Tensor // weighted-op output before activation (after act in-place)
	mask    []bool  // ReLU mask over preAct
	argmax  []int   // pooling argmax over carried output
	carried *Tensor // tensor handed to the next layer
}

// Network binds a model description to actual parameters and buffers
// for one batch size.
type Network struct {
	Model  *nn.Model
	Batch  int
	shapes []nn.LayerShapes
	layers []*layerState
}

// NewNetwork allocates and He-initializes a network for the model at
// the given batch size. The numeric substrate executes layers as a
// chain, so genuinely branched (DAG) models are rejected here rather
// than silently trained with the wrong data flow; graph-form models
// whose wiring resolves to a plain chain are fine.
func NewNetwork(m *nn.Model, batch int, seed int64) (*Network, error) {
	shapes, err := m.Shapes(batch)
	if err != nil {
		return nil, err
	}
	if !m.LinearChain() {
		return nil, fmt.Errorf("%w: model %q is a branched graph; the numeric trainer handles chains only", ErrTrain, m.Name)
	}
	r := newRNG(seed)
	net := &Network{Model: m, Batch: batch, shapes: shapes}
	for _, s := range shapes {
		ls := &layerState{spec: s}
		k := s.Kernel
		if s.Layer.Type == nn.Conv {
			ls.W, err = NewTensor(k.K, k.K, k.Cin, k.Cout)
		} else {
			ls.W, err = NewTensor(k.Cin, k.Cout)
		}
		if err != nil {
			return nil, err
		}
		fanIn := float64(k.K * k.K * k.Cin)
		ls.W.fillNormal(r, math.Sqrt(2/fanIn))
		ls.DW = ls.W.Clone()
		ls.DW.Zero()
		net.layers = append(net.layers, ls)
	}
	return net, nil
}

// Layers returns the number of weighted layers.
func (n *Network) Layers() int { return len(n.layers) }

// Weights exposes layer l's weight tensor (tests mutate it; the
// parallel executors copy it).
func (n *Network) Weights(l int) *Tensor { return n.layers[l].W }

// Grads exposes layer l's gradient tensor.
func (n *Network) Grads(l int) *Tensor { return n.layers[l].DW }

// Forward runs the network on a batch laid out NHWC and returns the
// logits tensor [B, classes].
func (n *Network) Forward(x *Tensor) (*Tensor, error) {
	in := n.Model.Input
	if err := checkNHWC(x, n.Batch, in.H, in.W, in.C); err != nil {
		return nil, err
	}
	cur := x
	for _, ls := range n.layers {
		s := ls.spec
		var err error
		switch s.Layer.Type {
		case nn.Conv:
			ls.in = cur
			ls.preAct, err = NewTensor(n.Batch, s.Out.H, s.Out.W, s.Out.C)
			if err != nil {
				return nil, err
			}
			convForward(cur, ls.W, s.Layer, ls.preAct)
		case nn.FC:
			// Flatten whatever arrives; data is already contiguous.
			flat := &Tensor{Shape: []int{n.Batch, s.Kernel.Cin}, Data: cur.Data}
			ls.in = flat
			ls.preAct, err = NewTensor(n.Batch, 1, 1, s.Out.C)
			if err != nil {
				return nil, err
			}
			fcForward(flat, ls.W, ls.preAct)
		}
		if s.Layer.Act == nn.ReLU {
			if ls.mask == nil || len(ls.mask) != ls.preAct.Len() {
				ls.mask = make([]bool, ls.preAct.Len())
			}
			reluForward(ls.preAct, ls.mask)
		}
		if p := s.Layer.Pool; p > 1 && s.Layer.Type == nn.Conv {
			ls.carried, err = NewTensor(n.Batch, s.Carried.H, s.Carried.W, s.Carried.C)
			if err != nil {
				return nil, err
			}
			if ls.argmax == nil || len(ls.argmax) != ls.carried.Len() {
				ls.argmax = make([]int, ls.carried.Len())
			}
			poolForward(ls.preAct, p, ls.carried, ls.argmax)
		} else {
			ls.carried = ls.preAct
		}
		cur = ls.carried
	}
	last := n.layers[len(n.layers)-1].spec
	return &Tensor{Shape: []int{n.Batch, last.Out.C}, Data: cur.Data}, nil
}

// Backward propagates the loss gradient dLogits through the network,
// filling every layer's DW. It returns the gradient with respect to the
// input batch (rarely needed, useful for tests).
func (n *Network) Backward(dLogits *Tensor) (*Tensor, error) {
	nl := len(n.layers)
	if nl == 0 {
		return nil, fmt.Errorf("%w: empty network", ErrTrain)
	}
	last := n.layers[nl-1]
	if dLogits.Len() != last.carried.Len() {
		return nil, fmt.Errorf("%w: dLogits has %d elements, want %d",
			ErrTrain, dLogits.Len(), last.carried.Len())
	}
	grad := dLogits.Clone()
	for li := nl - 1; li >= 0; li-- {
		ls := n.layers[li]
		s := ls.spec
		// Un-pool.
		if p := s.Layer.Pool; p > 1 && s.Layer.Type == nn.Conv {
			dPre, err := NewTensor(n.Batch, s.Out.H, s.Out.W, s.Out.C)
			if err != nil {
				return nil, err
			}
			g := &Tensor{Shape: ls.carried.Shape, Data: grad.Data}
			poolBackward(g, ls.argmax, dPre)
			grad = dPre
		}
		// Un-activate.
		if s.Layer.Act == nn.ReLU {
			reluBackward(grad, ls.mask)
		}
		// Through the weighted op.
		dIn := ls.in.Clone()
		switch s.Layer.Type {
		case nn.Conv:
			g := &Tensor{Shape: []int{n.Batch, s.Out.H, s.Out.W, s.Out.C}, Data: grad.Data}
			convBackward(ls.in, ls.W, g, s.Layer, dIn, ls.DW)
		case nn.FC:
			g := &Tensor{Shape: []int{n.Batch, s.Out.C}, Data: grad.Data}
			fcBackward(ls.in, ls.W, g, dIn, ls.DW)
		}
		grad = dIn
	}
	return grad, nil
}

// Step applies one SGD update W -= lr·DW to every layer.
func (n *Network) Step(lr float64) {
	for _, ls := range n.layers {
		for i := range ls.W.Data {
			ls.W.Data[i] -= lr * ls.DW.Data[i]
		}
	}
}

// SoftmaxCrossEntropy computes the mean cross-entropy loss of logits
// [B, C] against integer labels, and the gradient dLogits.
func SoftmaxCrossEntropy(logits *Tensor, labels []int) (float64, *Tensor, error) {
	if len(logits.Shape) != 2 {
		return 0, nil, fmt.Errorf("%w: logits shape %v", ErrTrain, logits.Shape)
	}
	b, c := logits.Shape[0], logits.Shape[1]
	if len(labels) != b {
		return 0, nil, fmt.Errorf("%w: %d labels for batch %d", ErrTrain, len(labels), b)
	}
	grad := logits.Clone()
	var loss float64
	for bi := 0; bi < b; bi++ {
		if labels[bi] < 0 || labels[bi] >= c {
			return 0, nil, fmt.Errorf("%w: label %d outside [0,%d)", ErrTrain, labels[bi], c)
		}
		row := logits.Data[bi*c : (bi+1)*c]
		maxV := row[0]
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(v - maxV)
		}
		logZ := math.Log(sum) + maxV
		loss += logZ - row[labels[bi]]
		for ci := 0; ci < c; ci++ {
			p := math.Exp(row[ci]-maxV) / sum
			g := p
			if ci == labels[bi] {
				g -= 1
			}
			grad.Data[bi*c+ci] = g / float64(b)
		}
	}
	return loss / float64(b), grad, nil
}

// TrainStep runs one forward/loss/backward/update step and returns the
// batch loss.
func (n *Network) TrainStep(x *Tensor, labels []int, lr float64) (float64, error) {
	logits, err := n.Forward(x)
	if err != nil {
		return 0, err
	}
	loss, dLogits, err := SoftmaxCrossEntropy(logits, labels)
	if err != nil {
		return 0, err
	}
	if _, err := n.Backward(dLogits); err != nil {
		return 0, err
	}
	n.Step(lr)
	return loss, nil
}

// SyntheticBatch generates a deterministic, linearly separable-ish
// classification batch for the model's input geometry: class k gets a
// distinctive blob pattern plus noise. It exercises real training
// without dataset files (the paper's datasets only contribute their
// geometry to the evaluation).
func SyntheticBatch(m *nn.Model, batch, classes int, seed int64) (*Tensor, []int, error) {
	if classes < 2 {
		return nil, nil, fmt.Errorf("%w: %d classes", ErrTrain, classes)
	}
	x, err := NewTensor(batch, m.Input.H, m.Input.W, m.Input.C)
	if err != nil {
		return nil, nil, err
	}
	r := newRNG(seed)
	labels := make([]int, batch)
	sz := m.Input.H * m.Input.W * m.Input.C
	for bi := 0; bi < batch; bi++ {
		k := int(r.next() % uint64(classes))
		labels[bi] = k
		base := bi * sz
		for i := 0; i < sz; i++ {
			// A class-dependent low-frequency pattern plus noise.
			v := 0.5 * math.Sin(float64(i*(k+1))/float64(sz)*6*math.Pi)
			x.Data[base+i] = v + 0.1*r.normal()
		}
	}
	return x, labels, nil
}
