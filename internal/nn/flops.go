package nn

// Phase enumerates the three computation phases of one training step
// (paper §2.1): forward propagation, error backward propagation, and
// gradient computation. The weight update itself is element-wise and
// local, so the paper folds it into the gradient phase.
type Phase int

const (
	// Forward computes F_{l+1} = f(F_l ⊗ W_l).
	Forward Phase = iota
	// Backward computes E_l = (E_{l+1} ⊗ W*_l) ⊙ f'(F_l).
	Backward
	// Gradient computes ∆W_l = F*_l ⊗ E_{l+1}.
	Gradient
)

// Phases lists the training phases in execution order.
var Phases = []Phase{Forward, Backward, Gradient}

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case Forward:
		return "forward"
	case Backward:
		return "backward"
	case Gradient:
		return "gradient"
	default:
		return "phase?"
	}
}

// MACs returns the multiply-accumulate count of one phase of one layer
// for the full (unsharded) batch. All three phases of a layer perform
// the same number of MACs: they are the three matrix products over the
// same triple of tensors (Figure 1).
//
// Conv: B · Hout · Wout · Cout · K² · Cin.  FC: B · Cin · Cout.
func (s *LayerShapes) MACs(p Phase) int64 {
	k := s.Kernel
	perOut := int64(k.K) * int64(k.K) * int64(k.Cin)
	return s.Out.Elems() * perOut
}

// ActOps returns the element-wise operation count for the activation
// (forward) or its derivative (backward); zero for NoAct.
func (s *LayerShapes) ActOps() int64 {
	if s.Layer.Act == NoAct {
		return 0
	}
	return s.Out.Elems()
}

// PoolOps returns the comparison count of the folded max-pooling step.
func (s *LayerShapes) PoolOps() int64 {
	p := s.Layer.pool()
	if p <= 1 {
		return 0
	}
	return s.Carried.Elems() * int64(p*p)
}
