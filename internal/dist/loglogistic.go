package dist

import (
	"fmt"
	"math"
	"math/rand"
)

// LogLogistic is the log-logistic (Fisk) distribution with scale α > 0 and
// shape β > 0: CDF(x) = 1 / (1 + (x/α)^−β). A standard heavy-tailed
// candidate for repair and execution times; included to stress the model
// selection beyond the paper's four winning families.
type LogLogistic struct {
	Alpha float64 // scale (the median)
	Beta  float64 // shape
}

var (
	_ Distribution = LogLogistic{}
	_ Parametric   = LogLogistic{}
)

// NewLogLogistic returns a log-logistic distribution with the given scale
// and shape.
func NewLogLogistic(alpha, beta float64) (LogLogistic, error) {
	if alpha <= 0 || beta <= 0 || math.IsNaN(alpha) || math.IsNaN(beta) {
		return LogLogistic{}, fmt.Errorf("dist: loglogistic alpha %v / beta %v must be positive", alpha, beta)
	}
	return LogLogistic{Alpha: alpha, Beta: beta}, nil
}

// Name implements Distribution.
func (LogLogistic) Name() string { return "loglogistic" }

// NumParams implements Distribution.
func (LogLogistic) NumParams() int { return 2 }

// PDF implements Distribution.
func (l LogLogistic) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x == 0 {
		switch {
		case l.Beta < 1:
			return math.Inf(1)
		case l.Beta == 1:
			return 1 / l.Alpha
		default:
			return 0
		}
	}
	z := x / l.Alpha
	zb := math.Pow(z, l.Beta)
	den := 1 + zb
	return l.Beta / l.Alpha * math.Pow(z, l.Beta-1) / (den * den)
}

// LogPDF implements Distribution.
func (l LogLogistic) LogPDF(x float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	z := x / l.Alpha
	return math.Log(l.Beta/l.Alpha) + (l.Beta-1)*math.Log(z) - 2*math.Log1p(math.Pow(z, l.Beta))
}

// CDF implements Distribution.
func (l LogLogistic) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 1 / (1 + math.Pow(x/l.Alpha, -l.Beta))
}

// Quantile implements Distribution: α (p/(1−p))^{1/β}.
func (l LogLogistic) Quantile(p float64) float64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return math.Inf(1)
	default:
		return l.Alpha * math.Pow(p/(1-p), 1/l.Beta)
	}
}

// Mean implements Distribution. Infinite for β ≤ 1.
func (l LogLogistic) Mean() float64 {
	if l.Beta <= 1 {
		return math.Inf(1)
	}
	b := math.Pi / l.Beta
	return l.Alpha * b / math.Sin(b)
}

// Var implements Distribution. Infinite for β ≤ 2.
func (l LogLogistic) Var() float64 {
	if l.Beta <= 2 {
		return math.Inf(1)
	}
	b := math.Pi / l.Beta
	return l.Alpha * l.Alpha * (2*b/math.Sin(2*b) - b*b/(math.Sin(b)*math.Sin(b)))
}

// Rand implements Distribution by inverse transform.
func (l LogLogistic) Rand(rng *rand.Rand) float64 {
	u := rng.Float64()
	for u == 0 || u == 1 {
		u = rng.Float64()
	}
	return l.Quantile(u)
}

// Params implements Parametric.
func (l LogLogistic) Params() []float64 { return []float64{l.Alpha, l.Beta} }

// WithParams implements Parametric.
func (LogLogistic) WithParams(p []float64) (Distribution, error) {
	if err := checkArity("loglogistic", p, 2); err != nil {
		return nil, err
	}
	return NewLogLogistic(p[0], p[1])
}

// LogLogisticFitter estimates the log-logistic law. ln X is logistic with
// location ln α and scale 1/β; we estimate by the method of moments on
// ln X (exact for the logistic: variance = π²s²/3) followed by a short
// Newton polish of the shape on the profile likelihood.
type LogLogisticFitter struct{}

var _ Fitter = LogLogisticFitter{}

// FamilyName implements Fitter.
func (LogLogisticFitter) FamilyName() string { return "loglogistic" }

// Fit implements Fitter: the moment seed comes straight from the
// cached log-moments; only the likelihood polish still scans the (sorted)
// data.
func (LogLogisticFitter) Fit(sm *Sample) (Distribution, error) {
	if _, _, _, err := sm.moments(true); err != nil {
		return nil, fmt.Errorf("fit loglogistic: %w", err)
	}
	mu, variance := sm.MeanLog(), sm.VarLog()
	if variance <= 0 {
		return nil, fmt.Errorf("fit loglogistic: degenerate sample (all values equal)")
	}
	s := math.Sqrt(3 * variance / (math.Pi * math.Pi)) // logistic scale
	alpha := math.Exp(mu)
	beta := 1 / s

	// Newton polish of beta on the log-likelihood of ln X ~ logistic.
	// d/ds is messy; a few coordinate-descent steps on the likelihood are
	// robust and cheap.
	best, err := NewLogLogistic(alpha, beta)
	if err != nil {
		return nil, err
	}
	bestLL := sm.LogLikelihood(best)
	step := 0.15
	for iter := 0; iter < 60; iter++ {
		improved := false
		for _, cand := range []LogLogistic{
			{Alpha: best.Alpha * (1 + step), Beta: best.Beta},
			{Alpha: best.Alpha / (1 + step), Beta: best.Beta},
			{Alpha: best.Alpha, Beta: best.Beta * (1 + step)},
			{Alpha: best.Alpha, Beta: best.Beta / (1 + step)},
		} {
			if ll := sm.LogLikelihood(cand); ll > bestLL {
				bestLL = ll
				best = cand
				improved = true
			}
		}
		if !improved {
			step /= 2
			if step < 1e-5 {
				break
			}
		}
	}
	return best, nil
}
