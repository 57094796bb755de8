// Package nn is a small, dependency-free neural-network library: dense
// layers with ReLU and dropout, multi-layer perceptrons with
// weight-sharing-friendly tapes, the Adam optimizer, and the paper's
// asymmetric Hüber loss on percentage error (Eq. 4).
//
// Backpropagation is explicit rather than autodiff: every Forward returns a
// Tape capturing the activations needed by Backward. One module can be
// invoked many times within a single sample (the MPNN applies the same γ/φ
// networks at every node and message-passing step); each invocation gets its
// own tape while gradients accumulate into the shared parameters. Backward
// also returns the gradient with respect to the module's input, which is
// what makes the configuration solver (§3.5) possible: Eq. 5 is minimized
// by gradient descent *through* the trained network onto its resource
// inputs.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Linear is a dense layer y = W·x + b with He-initialized weights.
type Linear struct {
	In, Out int
	W       []float64 // Out×In, row-major
	B       []float64
	GW      []float64 // gradient accumulators
	GB      []float64
}

// NewLinear returns a dense layer with He initialization drawn from rng.
func NewLinear(in, out int, rng *rand.Rand) *Linear {
	l := &Linear{
		In: in, Out: out,
		W:  make([]float64, in*out),
		B:  make([]float64, out),
		GW: make([]float64, in*out),
		GB: make([]float64, out),
	}
	std := math.Sqrt(2.0 / float64(in))
	for i := range l.W {
		l.W[i] = rng.NormFloat64() * std
	}
	return l
}

// Forward computes y = W·x + b.
func (l *Linear) Forward(x []float64) []float64 {
	if len(x) != l.In {
		panic(fmt.Sprintf("nn: Linear(%d,%d) got input of size %d", l.In, l.Out, len(x)))
	}
	y := make([]float64, l.Out)
	for o := 0; o < l.Out; o++ {
		sum := l.B[o]
		row := l.W[o*l.In : (o+1)*l.In]
		for i, xi := range x {
			sum += row[i] * xi
		}
		y[o] = sum
	}
	return y
}

// Backward accumulates parameter gradients given the input x that produced
// the forward pass and upstream gradient dy, and returns dL/dx.
func (l *Linear) Backward(x, dy []float64) []float64 {
	dx := make([]float64, l.In)
	for o := 0; o < l.Out; o++ {
		g := dy[o]
		l.GB[o] += g
		row := l.W[o*l.In : (o+1)*l.In]
		grow := l.GW[o*l.In : (o+1)*l.In]
		for i, xi := range x {
			grow[i] += g * xi
			dx[i] += row[i] * g
		}
	}
	return dx
}

// ForwardInto computes y = W·x + b into the caller-provided y (len Out)
// without allocating. The floating-point operation order is identical to
// Forward, so the two produce bit-identical results. It reads only W and B,
// making it safe for concurrent use on a model that is not being mutated.
func (l *Linear) ForwardInto(x, y []float64) {
	if len(x) != l.In || len(y) != l.Out {
		panic(fmt.Sprintf("nn: Linear(%d,%d) ForwardInto got x=%d y=%d", l.In, l.Out, len(x), len(y)))
	}
	for o := 0; o < l.Out; o++ {
		sum := l.B[o]
		row := l.W[o*l.In : (o+1)*l.In]
		row = row[:len(x)] // lets the compiler drop the bounds check below
		for i, xi := range x {
			sum += row[i] * xi
		}
		y[o] = sum
	}
}

// InputGrad computes dx = Wᵀ·dy into the caller-provided dx (len In)
// WITHOUT touching the parameter gradient accumulators GW/GB. This is the
// read-only half of Backward: it needs neither the forward input x nor any
// mutable layer state, so concurrent invocations on one layer are safe. The
// accumulation order matches Backward's dx computation exactly.
//
// Rows whose upstream gradient is exactly zero — about half of them behind
// a ReLU — are skipped. That leaves dx bit-identical to the dense loop: with
// finite weights such a row only adds ±0 terms, and an accumulator that
// starts at +0 can never become −0, so adding ±0 never changes it.
func (l *Linear) InputGrad(dy, dx []float64) {
	if len(dy) != l.Out || len(dx) != l.In {
		panic(fmt.Sprintf("nn: Linear(%d,%d) InputGrad got dy=%d dx=%d", l.In, l.Out, len(dy), len(dx)))
	}
	for i := range dx {
		dx[i] = 0
	}
	for o := 0; o < l.Out; o++ {
		g := dy[o]
		if g == 0 {
			continue
		}
		row := l.W[o*l.In : (o+1)*l.In]
		row = row[:len(dx)]
		for i := range dx {
			dx[i] += row[i] * g
		}
	}
}

// ZeroGrad clears accumulated gradients.
func (l *Linear) ZeroGrad() {
	for i := range l.GW {
		l.GW[i] = 0
	}
	for i := range l.GB {
		l.GB[i] = 0
	}
}

// MLP is a stack of Linear layers with ReLU activations and dropout on
// every hidden layer (never on the output layer), per §4 of the paper.
type MLP struct {
	Layers  []*Linear
	Dropout float64 // drop probability during training
}

// NewMLP builds an MLP with the given layer sizes, e.g. sizes = [4, 20, 20,
// 1] is two hidden layers of 20 units.
func NewMLP(sizes []int, dropout float64, rng *rand.Rand) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	m := &MLP{Dropout: dropout}
	for i := 0; i+1 < len(sizes); i++ {
		m.Layers = append(m.Layers, NewLinear(sizes[i], sizes[i+1], rng))
	}
	return m
}

// Tape records one forward invocation's intermediate state for Backward.
type Tape struct {
	inputs [][]float64 // input to each layer
	preact [][]float64 // pre-activation output of each hidden layer
	masks  [][]float64 // dropout masks (scale factors), nil when not training
}

// Forward runs the network. When train is true, dropout masks are sampled
// from rng and activations are inverted-scaled so inference needs no
// rescaling; rng may be nil when train is false.
func (m *MLP) Forward(x []float64, train bool, rng *rand.Rand) ([]float64, *Tape) {
	t := &Tape{}
	cur := x
	last := len(m.Layers) - 1
	for li, l := range m.Layers {
		t.inputs = append(t.inputs, cur)
		y := l.Forward(cur)
		if li == last {
			t.preact = append(t.preact, nil)
			t.masks = append(t.masks, nil)
			cur = y
			break
		}
		t.preact = append(t.preact, y)
		act := make([]float64, len(y))
		var mask []float64
		if train && m.Dropout > 0 {
			mask = make([]float64, len(y))
			keep := 1 - m.Dropout
			for i := range mask {
				if rng.Float64() < keep {
					mask[i] = 1 / keep
				}
			}
		}
		for i, v := range y {
			if v > 0 {
				act[i] = v
			}
			if mask != nil {
				act[i] *= mask[i]
			}
		}
		t.masks = append(t.masks, mask)
		cur = act
	}
	return cur, t
}

// Backward propagates dy through the taped invocation, accumulating
// parameter gradients, and returns dL/dx.
func (m *MLP) Backward(t *Tape, dy []float64) []float64 {
	cur := dy
	for li := len(m.Layers) - 1; li >= 0; li-- {
		if li != len(m.Layers)-1 {
			// Undo dropout and ReLU.
			pre := t.preact[li]
			mask := t.masks[li]
			d := make([]float64, len(cur))
			for i := range cur {
				g := cur[i]
				if mask != nil {
					g *= mask[i]
				}
				if pre[i] <= 0 {
					g = 0
				}
				d[i] = g
			}
			cur = d
		}
		cur = m.Layers[li].Backward(t.inputs[li], cur)
	}
	return cur
}

// ZeroGrad clears all layer gradients.
func (m *MLP) ZeroGrad() {
	for _, l := range m.Layers {
		l.ZeroGrad()
	}
}

// Params returns the network's layers for optimization.
func (m *MLP) Params() []*Linear { return m.Layers }

// Adam implements the Adam optimizer (Kingma & Ba [45]), the paper's choice
// for both model training and the configuration solver.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	t  int
	mw map[*Linear][]float64
	vw map[*Linear][]float64
	mb map[*Linear][]float64
	vb map[*Linear][]float64
}

// NewAdam returns an Adam optimizer with standard β₁=0.9, β₂=0.999.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8,
		mw: map[*Linear][]float64{}, vw: map[*Linear][]float64{},
		mb: map[*Linear][]float64{}, vb: map[*Linear][]float64{},
	}
}

// Step applies one update to every layer from its accumulated gradients
// (scaled by 1/scale, e.g. the batch size), then zeroes the gradients.
func (a *Adam) Step(layers []*Linear, scale float64) {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, l := range layers {
		if a.mw[l] == nil {
			a.mw[l] = make([]float64, len(l.W))
			a.vw[l] = make([]float64, len(l.W))
			a.mb[l] = make([]float64, len(l.B))
			a.vb[l] = make([]float64, len(l.B))
		}
		upd := func(p, g, m, v []float64) {
			for i := range p {
				gi := g[i] / scale
				m[i] = a.Beta1*m[i] + (1-a.Beta1)*gi
				v[i] = a.Beta2*v[i] + (1-a.Beta2)*gi*gi
				p[i] -= a.LR * (m[i] / c1) / (math.Sqrt(v[i]/c2) + a.Epsilon)
			}
		}
		upd(l.W, l.GW, a.mw[l], a.vw[l])
		upd(l.B, l.GB, a.mb[l], a.vb[l])
		l.ZeroGrad()
	}
}

// VecAdam is Adam over a plain vector — used by the configuration solver,
// whose variables are the per-microservice CPU quotas rather than network
// weights.
type VecAdam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	t    int
	m, v []float64
}

// NewVecAdam returns a vector Adam optimizer for n variables.
func NewVecAdam(lr float64, n int) *VecAdam {
	return &VecAdam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8,
		m: make([]float64, n), v: make([]float64, n)}
}

// Step updates x in place given gradient g.
func (a *VecAdam) Step(x, g []float64) {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i := range x {
		a.m[i] = a.Beta1*a.m[i] + (1-a.Beta1)*g[i]
		a.v[i] = a.Beta2*a.v[i] + (1-a.Beta2)*g[i]*g[i]
		x[i] -= a.LR * (a.m[i] / c1) / (math.Sqrt(a.v[i]/c2) + a.Epsilon)
	}
}
