package dist

import (
	"fmt"
	"math"
)

// CensoredObservation is a duration with an event indicator for parametric
// censored fitting (false = right-censored: the event had not happened yet
// when observation stopped).
type CensoredObservation struct {
	Time     float64
	Observed bool
}

// FitCensoredWeibull estimates Weibull parameters by maximum likelihood
// from right-censored data:
//
//	log L = Σ_obs [ln f(x)] + Σ_cens [ln S(x)]
//
// Profiling out the scale gives λ̂^k = Σ_all x_i^k / n_obs, and the shape
// solves
//
//	Σ_all x^k ln x / Σ_all x^k − 1/k − mean_obs(ln x) = 0,
//
// the censored generalization of the uncensored Weibull MLE equation.
// This is the parametric counterpart of the Kaplan–Meier estimator: on
// job-failure data it recovers the infant-mortality shape (k < 1) directly
// from the censored stream. The shape is found by the solver WeibullFitter
// uses (weibullMLE), started at k = 1.
func FitCensoredWeibull(obs []CensoredObservation) (Weibull, error) {
	// ln x does not depend on k, so it is computed once; the shared solver
	// then costs one Exp per observation per evaluation.
	logs := make([]float64, len(obs))
	var nObs int
	var meanLogObs float64
	for i, o := range obs {
		if o.Time <= 0 || math.IsNaN(o.Time) || math.IsInf(o.Time, 0) {
			return Weibull{}, fmt.Errorf("fit censored weibull: %w", ErrBadSample)
		}
		logs[i] = math.Log(o.Time)
		if o.Observed {
			nObs++
			meanLogObs += logs[i]
		}
	}
	if len(obs) < 2 {
		return Weibull{}, fmt.Errorf("fit censored weibull: %w", ErrTooFewPoints)
	}
	if nObs < 2 {
		return Weibull{}, fmt.Errorf("fit censored weibull: need ≥2 observed events, have %d", nObs)
	}
	meanLogObs /= float64(nObs)

	shape, scale, err := weibullMLE(logs, meanLogObs, 1, float64(nObs))
	if err != nil {
		return Weibull{}, fmt.Errorf("fit censored weibull: %w", err)
	}
	return NewWeibull(shape, scale)
}

// CensoredLogLikelihood evaluates the right-censored log-likelihood of d
// on the observations.
func CensoredLogLikelihood(d Distribution, obs []CensoredObservation) float64 {
	ll := 0.0
	for _, o := range obs {
		if o.Observed {
			ll += d.LogPDF(o.Time)
		} else {
			s := 1 - d.CDF(o.Time)
			if s <= 0 {
				return math.Inf(-1)
			}
			ll += math.Log(s)
		}
	}
	return ll
}
