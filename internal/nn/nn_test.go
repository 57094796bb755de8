package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// numGradCheck compares analytic input gradients against central
// differences for an MLP.
func TestMLPInputGradientNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP([]int{3, 8, 8, 1}, 0, rng)
	x := []float64{0.3, -0.7, 1.2}
	y, tape := m.Forward(x, false, nil)
	m.ZeroGrad()
	dx := m.Backward(tape, []float64{1})
	const h = 1e-6
	for i := range x {
		xp := append([]float64(nil), x...)
		xm := append([]float64(nil), x...)
		xp[i] += h
		xm[i] -= h
		yp, _ := m.Forward(xp, false, nil)
		ym, _ := m.Forward(xm, false, nil)
		num := (yp[0] - ym[0]) / (2 * h)
		if math.Abs(num-dx[i]) > 1e-5*(1+math.Abs(num)) {
			t.Errorf("d y/d x[%d]: analytic %v, numeric %v (y=%v)", i, dx[i], num, y[0])
		}
	}
}

func TestMLPParamGradientNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewMLP([]int{2, 5, 1}, 0, rng)
	x := []float64{0.5, -0.25}
	_, tape := m.Forward(x, false, nil)
	m.ZeroGrad()
	m.Backward(tape, []float64{1})
	const h = 1e-6
	for li, l := range m.Layers {
		for wi := range l.W {
			orig := l.W[wi]
			l.W[wi] = orig + h
			yp, _ := m.Forward(x, false, nil)
			l.W[wi] = orig - h
			ym, _ := m.Forward(x, false, nil)
			l.W[wi] = orig
			num := (yp[0] - ym[0]) / (2 * h)
			if math.Abs(num-l.GW[wi]) > 1e-5*(1+math.Abs(num)) {
				t.Fatalf("layer %d W[%d]: analytic %v, numeric %v", li, wi, l.GW[wi], num)
			}
		}
		for bi := range l.B {
			orig := l.B[bi]
			l.B[bi] = orig + h
			yp, _ := m.Forward(x, false, nil)
			l.B[bi] = orig - h
			ym, _ := m.Forward(x, false, nil)
			l.B[bi] = orig
			num := (yp[0] - ym[0]) / (2 * h)
			if math.Abs(num-l.GB[bi]) > 1e-5*(1+math.Abs(num)) {
				t.Fatalf("layer %d B[%d]: analytic %v, numeric %v", li, bi, l.GB[bi], num)
			}
		}
	}
}

// Weight sharing: two invocations of the same MLP accumulate both
// contributions into the shared gradients.
func TestWeightSharingAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMLP([]int{1, 4, 1}, 0, rng)
	x1, x2 := []float64{0.7}, []float64{-0.4}
	_, t1 := m.Forward(x1, false, nil)
	_, t2 := m.Forward(x2, false, nil)
	m.ZeroGrad()
	m.Backward(t1, []float64{1})
	g1 := append([]float64(nil), m.Layers[0].GW...)
	m.ZeroGrad()
	m.Backward(t2, []float64{1})
	g2 := append([]float64(nil), m.Layers[0].GW...)
	m.ZeroGrad()
	m.Backward(t1, []float64{1})
	m.Backward(t2, []float64{1})
	for i := range g1 {
		if math.Abs(m.Layers[0].GW[i]-(g1[i]+g2[i])) > 1e-12 {
			t.Fatalf("shared gradient does not accumulate: %v vs %v+%v", m.Layers[0].GW[i], g1[i], g2[i])
		}
	}
}

func TestDropoutTrainVsEval(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewMLP([]int{2, 50, 1}, 0.5, rng)
	x := []float64{1, 1}
	// Eval is deterministic and ignores dropout.
	y1, _ := m.Forward(x, false, nil)
	y2, _ := m.Forward(x, false, nil)
	if y1[0] != y2[0] {
		t.Error("eval forward not deterministic")
	}
	// Training passes differ between draws.
	a, _ := m.Forward(x, true, rng)
	b, _ := m.Forward(x, true, rng)
	if a[0] == b[0] {
		t.Error("dropout produced identical training passes (vanishingly unlikely)")
	}
	// Inverted dropout: expectation of training output ≈ eval output.
	sum := 0.0
	n := 2000
	for i := 0; i < n; i++ {
		v, _ := m.Forward(x, true, rng)
		sum += v[0]
	}
	mean := sum / float64(n)
	if math.Abs(mean-y1[0]) > 0.15*math.Abs(y1[0])+0.05 {
		t.Errorf("E[train output] = %v, eval output = %v", mean, y1[0])
	}
}

// Adam on a convex quadratic must converge near its minimum.
func TestVecAdamConvergesOnQuadratic(t *testing.T) {
	x := []float64{5, -3}
	opt := NewVecAdam(0.1, 2)
	for i := 0; i < 2000; i++ {
		g := []float64{2 * (x[0] - 1), 2 * (x[1] - 2)}
		opt.Step(x, g)
	}
	if math.Abs(x[0]-1) > 0.01 || math.Abs(x[1]-2) > 0.01 {
		t.Errorf("VecAdam converged to %v, want [1 2]", x)
	}
}

// Training an MLP with Adam must fit a simple nonlinear function.
func TestMLPLearnsFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMLP([]int{1, 16, 16, 1}, 0, rng)
	opt := NewAdam(0.01)
	target := func(x float64) float64 { return 1 + x*x }
	for iter := 0; iter < 3000; iter++ {
		m.ZeroGrad()
		const batch = 16
		for b := 0; b < batch; b++ {
			x := rng.Float64()*2 - 1
			y, tape := m.Forward([]float64{x}, false, nil)
			diff := y[0] - target(x)
			m.Backward(tape, []float64{2 * diff})
		}
		opt.Step(m.Params(), batch)
	}
	worst := 0.0
	for x := -1.0; x <= 1; x += 0.1 {
		y, _ := m.Forward([]float64{x}, false, nil)
		if e := math.Abs(y[0] - target(x)); e > worst {
			worst = e
		}
	}
	if worst > 0.1 {
		t.Errorf("worst-case fit error %v, want < 0.1", worst)
	}
}

func TestAsymmetricHuberShape(t *testing.T) {
	h := PaperLoss()
	// Continuity at the thresholds.
	for _, x := range []float64{-h.ThetaUnder, h.ThetaOver} {
		lIn, _ := h.Loss(1+x-1e-9, 1)
		lOut, _ := h.Loss(1+x+1e-9, 1)
		if math.Abs(lIn-lOut) > 1e-6 {
			t.Errorf("discontinuity at x=%v: %v vs %v", x, lIn, lOut)
		}
	}
	// Quadratic inside.
	l, _ := h.Loss(1.05, 1)
	if math.Abs(l-0.0025) > 1e-12 {
		t.Errorf("loss at x=0.05: %v, want 0.0025", l)
	}
	// Underestimation penalized more than same-magnitude overestimation
	// beyond the over threshold.
	lu, _ := h.Loss(1-0.25, 1) // x=-0.25, still quadratic (θ_under=0.3)
	lo, _ := h.Loss(1+0.25, 1) // x=+0.25, linear beyond θ_over=0.1
	if lu <= lo {
		t.Errorf("under-estimation loss %v should exceed over-estimation loss %v", lu, lo)
	}
	// Zero truth is a no-op, not a crash.
	if l, d := h.Loss(1, 0); l != 0 || d != 0 {
		t.Error("zero truth must be ignored")
	}
}

// Property: Eq. 4's derivative matches the loss numerically everywhere.
func TestHuberDerivativeProperty(t *testing.T) {
	h := PaperLoss()
	f := func(raw int16) bool {
		x := float64(raw) / 10000 // percentage error in [-3.2, 3.2]
		pred := 1 + x
		const eps = 1e-7
		lp, _ := h.Loss(pred+eps, 1)
		lm, _ := h.Loss(pred-eps, 1)
		num := (lp - lm) / (2 * eps)
		_, d := h.Loss(pred, 1)
		return math.Abs(num-d) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Error(err)
	}
}

func TestMSELoss(t *testing.T) {
	l, d := MSE{}.Loss(1.2, 1)
	if math.Abs(l-0.04) > 1e-12 {
		t.Errorf("MSE loss = %v, want 0.04", l)
	}
	if math.Abs(d-0.4) > 1e-12 {
		t.Errorf("MSE dPred = %v, want 0.4", d)
	}
}

func TestLinearShapePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := NewLinear(3, 2, rng)
	defer func() {
		if recover() == nil {
			t.Error("size mismatch did not panic")
		}
	}()
	l.Forward([]float64{1, 2})
}

// Adam training with the asymmetric loss biases predictions upward on noisy
// targets — the mechanism behind the paper's 5.2% average overestimation.
func TestAsymmetricLossBiasesUp(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := NewMLP([]int{1, 8, 1}, 0, rng)
	opt := NewAdam(0.005)
	h := PaperLoss()
	truthMean := 1.0
	for iter := 0; iter < 4000; iter++ {
		m.ZeroGrad()
		const batch = 8
		for b := 0; b < batch; b++ {
			truth := truthMean * math.Exp(0.4*rng.NormFloat64())
			y, tape := m.Forward([]float64{0.5}, false, nil)
			_, d := h.Loss(y[0], truth)
			m.Backward(tape, []float64{d})
		}
		opt.Step(m.Params(), batch)
	}
	y, _ := m.Forward([]float64{0.5}, false, nil)
	med := truthMean * math.Exp(-0.4*0.4/2) // lognormal median < mean
	if y[0] <= med {
		t.Errorf("asymmetric loss prediction %v should sit above the median %v", y[0], med)
	}
}

// InputGrad skips rows whose upstream gradient is zero; the result must
// equal the dense Wᵀ·dy loop bit for bit, including the sign of zeros.
func TestInputGradSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		in, out := 1+rng.Intn(24), 1+rng.Intn(24)
		l := NewLinear(in, out, rng)
		dy := make([]float64, out)
		for o := range dy {
			switch r := rng.Float64(); {
			case r < 0.4:
				dy[o] = 0
			case r < 0.5:
				dy[o] = math.Copysign(0, -1)
			case r < 0.55:
				// Products underflow to ±0 or a subnormal.
				dy[o] = math.SmallestNonzeroFloat64 * float64(rng.Intn(5)-2)
			default:
				dy[o] = rng.NormFloat64()
			}
		}
		dense := make([]float64, in)
		for o := 0; o < out; o++ {
			row := l.W[o*in : (o+1)*in]
			for i := range dense {
				dense[i] += row[i] * dy[o]
			}
		}
		got := make([]float64, in)
		for i := range got {
			got[i] = math.NaN() // InputGrad must overwrite, not accumulate
		}
		l.InputGrad(dy, got)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(dense[i]) {
				t.Fatalf("trial %d: dx[%d] = %v (%#x), dense loop %v (%#x)",
					trial, i, got[i], math.Float64bits(got[i]), dense[i], math.Float64bits(dense[i]))
			}
		}
	}
}
