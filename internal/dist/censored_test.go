package dist

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// censoredSample draws Weibull lifetimes censored by an independent
// exponential clock.
func censoredSample(t *testing.T, shape, scale float64, n int, seed int64) ([]CensoredObservation, float64) {
	t.Helper()
	truth, err := NewWeibull(shape, scale)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	censorMean := truth.Mean() * 1.5
	obs := make([]CensoredObservation, n)
	censored := 0
	for i := range obs {
		life := truth.Rand(rng)
		clock := rng.ExpFloat64() * censorMean
		if life <= clock {
			obs[i] = CensoredObservation{Time: life, Observed: true}
		} else {
			obs[i] = CensoredObservation{Time: clock, Observed: false}
			censored++
		}
	}
	return obs, float64(censored) / float64(n)
}

func TestFitCensoredWeibullRecovers(t *testing.T) {
	for _, tc := range []struct{ shape, scale float64 }{
		{0.62, 2100}, // infant mortality (the job-failure regime)
		{1.8, 500},   // increasing hazard
	} {
		obs, censFrac := censoredSample(t, tc.shape, tc.scale, 30000, 17)
		if censFrac < 0.1 {
			t.Fatalf("censoring too light (%v) to exercise the fit", censFrac)
		}
		w, err := FitCensoredWeibull(obs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(w.Shape-tc.shape)/tc.shape > 0.05 {
			t.Errorf("shape = %v, want %v (censored %v)", w.Shape, tc.shape, censFrac)
		}
		if math.Abs(w.Scale-tc.scale)/tc.scale > 0.06 {
			t.Errorf("scale = %v, want %v", w.Scale, tc.scale)
		}
	}
}

// TestNaiveFitIsBiasedCensoredIsNot is the methodological point: fitting
// only the observed events overestimates early failure (censoring removes
// long lifetimes), while the censored MLE stays unbiased.
func TestNaiveFitIsBiasedCensoredIsNot(t *testing.T) {
	const shape, scale = 1.0, 1000.0
	obs, _ := censoredSample(t, shape, scale, 30000, 23)
	var observedOnly []float64
	for _, o := range obs {
		if o.Observed {
			observedOnly = append(observedOnly, o.Time)
		}
	}
	naive, err := (WeibullFitter{}).Fit(NewSample(observedOnly))
	if err != nil {
		t.Fatal(err)
	}
	censoredFit, err := FitCensoredWeibull(obs)
	if err != nil {
		t.Fatal(err)
	}
	naiveErr := math.Abs(naive.(Weibull).Scale - scale)
	censErr := math.Abs(censoredFit.Scale - scale)
	if naiveErr < 2*censErr {
		t.Errorf("naive scale error %v not clearly worse than censored %v", naiveErr, censErr)
	}
	if censErr/scale > 0.05 {
		t.Errorf("censored scale error %v too large", censErr/scale)
	}
}

func TestFitCensoredWeibullErrors(t *testing.T) {
	if _, err := FitCensoredWeibull(nil); err == nil {
		t.Error("empty accepted")
	}
	for _, bad := range []float64{-1, 0, math.NaN(), math.Inf(1)} {
		if _, err := FitCensoredWeibull([]CensoredObservation{{1, true}, {bad, true}}); err == nil {
			t.Errorf("time %v accepted", bad)
		}
	}
	allCensored := []CensoredObservation{{1, false}, {2, false}, {3, false}}
	if _, err := FitCensoredWeibull(allCensored); err == nil {
		t.Error("all-censored accepted")
	}
	oneObserved := []CensoredObservation{{1, false}, {2, true}, {3, false}}
	if _, err := FitCensoredWeibull(oneObserved); err == nil {
		t.Error("single observed event accepted")
	}
	if _, err := FitCensoredWeibull([]CensoredObservation{{5, true}}); err == nil {
		t.Error("single point accepted")
	}
	// Every observed event sits at the longest time, so
	// g(k) = −ln 10/(2·10^k + 1) − 1/k < 0 for every k: Newton runs k up
	// until 10^k overflows, and the bisection bracket holds no root.
	noRoot := []CensoredObservation{{1, false}, {10, true}, {10, true}}
	_, err := FitCensoredWeibull(noRoot)
	if err == nil || !strings.Contains(err.Error(), "no root") {
		t.Errorf("rootless shape equation: err = %v, want a no-root error", err)
	}
	if _, refErr := referenceFitCensoredWeibull(noRoot); refErr == nil {
		t.Error("reference solver found a root the production solver did not")
	}
}

// referenceFitCensoredWeibull is the censored fit's earlier solver, kept as
// the oracle for the shared Exp-based one: it evaluates x^k with math.Pow
// on every Newton step and takes g′ as a central difference of g, with the
// same bisection fallback.
func referenceFitCensoredWeibull(obs []CensoredObservation) (Weibull, error) {
	times := make([]float64, len(obs))
	logs := make([]float64, len(obs))
	var nObs int
	var meanLogObs float64
	for i, o := range obs {
		if o.Time <= 0 || math.IsNaN(o.Time) || math.IsInf(o.Time, 0) {
			return Weibull{}, fmt.Errorf("fit censored weibull: %w", ErrBadSample)
		}
		times[i] = o.Time
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

	g := func(k float64) float64 {
		var sxk, sxkl float64
		for i, t := range times {
			xk := math.Pow(t, k)
			sxk += xk
			sxkl += xk * logs[i]
		}
		return sxkl/sxk - 1/k - meanLogObs
	}
	k := 1.0
	const tol = 1e-10
	converged := false
	for iter := 0; iter < 100; iter++ {
		h := 1e-6 * math.Max(1, k)
		gk, gp, gm := g(k), g(k+h), g(k-h)
		if math.Abs(gk) < tol {
			converged = true
			break
		}
		dg := (gp - gm) / (2 * h)
		if dg == 0 || math.IsNaN(dg) {
			break
		}
		next := k - gk/dg
		if next <= 0 {
			next = k / 2
		}
		if math.Abs(next-k) < tol*math.Max(1, k) {
			k = next
			converged = true
			break
		}
		k = next
	}
	if !converged {
		lo, hi := 1e-3, 100.0
		if g(lo) > 0 || g(hi) < 0 {
			return Weibull{}, fmt.Errorf("fit censored weibull: shape equation has no root in [%g,%g]", lo, hi)
		}
		for iter := 0; iter < 200; iter++ {
			k = (lo + hi) / 2
			if g(k) > 0 {
				hi = k
			} else {
				lo = k
			}
			if hi-lo < tol {
				break
			}
		}
	}
	var sxk float64
	for _, t := range times {
		sxk += math.Pow(t, k)
	}
	return NewWeibull(k, math.Pow(sxk/float64(nObs), 1/k))
}

// randomCensored draws n Weibull(shape, scale) lifetimes and right-censors
// each with probability frac at a uniform fraction of its lifetime.
func randomCensored(rng *rand.Rand, shape, scale float64, n int, frac float64) []CensoredObservation {
	truth := Weibull{Shape: shape, Scale: scale}
	obs := make([]CensoredObservation, n)
	for i := range obs {
		life := truth.Rand(rng)
		if rng.Float64() < frac {
			obs[i] = CensoredObservation{Time: life * (0.05 + 0.95*rng.Float64())}
		} else {
			obs[i] = CensoredObservation{Time: life, Observed: true}
		}
	}
	return obs
}

func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(math.Abs(b), math.SmallestNonzeroFloat64)
}

// TestFitCensoredWeibullMatchesReference checks the production fit against
// the Pow/central-difference oracle on random right-censored samples over
// seeds × shapes 0.3–3 × censoring 0–90%: shape and scale agree within
// 1e-9 relative.
func TestFitCensoredWeibullMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, shape := range []float64{0.3, 0.62, 1, 1.8, 3} {
			for _, frac := range []float64{0, 0.3, 0.6, 0.9} {
				rng := rand.New(rand.NewSource(seed))
				obs := randomCensored(rng, shape, 1000, 3000, frac)
				got, err := FitCensoredWeibull(obs)
				if err != nil {
					t.Fatalf("seed %d shape %v censored %v: %v", seed, shape, frac, err)
				}
				want, err := referenceFitCensoredWeibull(obs)
				if err != nil {
					t.Fatalf("seed %d shape %v censored %v: reference: %v", seed, shape, frac, err)
				}
				if d := relDiff(got.Shape, want.Shape); d > 1e-9 {
					t.Errorf("seed %d shape %v censored %v: shape %v, reference %v (rel %g)", seed, shape, frac, got.Shape, want.Shape, d)
				}
				if d := relDiff(got.Scale, want.Scale); d > 1e-9 {
					t.Errorf("seed %d shape %v censored %v: scale %v, reference %v (rel %g)", seed, shape, frac, got.Scale, want.Scale, d)
				}
			}
		}
	}
}

// TestFitCensoredWeibullAllObservedMatchesFitter checks that with nothing
// censored the censored MLE is the plain Weibull MLE.
func TestFitCensoredWeibullAllObservedMatchesFitter(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, shape := range []float64{0.3, 1, 3} {
			rng := rand.New(rand.NewSource(seed))
			obs := randomCensored(rng, shape, 500, 2000, 0)
			times := make([]float64, len(obs))
			for i, o := range obs {
				times[i] = o.Time
			}
			got, err := FitCensoredWeibull(obs)
			if err != nil {
				t.Fatal(err)
			}
			fit, err := (WeibullFitter{}).Fit(NewSample(times))
			if err != nil {
				t.Fatal(err)
			}
			want := fit.(Weibull)
			if relDiff(got.Shape, want.Shape) > 1e-9 || relDiff(got.Scale, want.Scale) > 1e-9 {
				t.Errorf("seed %d shape %v: censored fit %+v, WeibullFitter %+v", seed, shape, got, want)
			}
		}
	}
}

func TestCensoredLogLikelihood(t *testing.T) {
	w, _ := NewWeibull(1, 100) // exponential(1/100)
	obs := []CensoredObservation{
		{Time: 50, Observed: true},
		{Time: 200, Observed: false},
	}
	// ln f(50) = ln(1/100) − 0.5; ln S(200) = −2.
	want := math.Log(1.0/100) - 0.5 - 2
	if got := CensoredLogLikelihood(w, obs); math.Abs(got-want) > 1e-9 {
		t.Errorf("censored logL = %v, want %v", got, want)
	}
	// The MLE should beat a wrong parameterization in censored likelihood.
	obs2, _ := censoredSample(t, 0.7, 300, 5000, 31)
	fit, err := FitCensoredWeibull(obs2)
	if err != nil {
		t.Fatal(err)
	}
	wrong, _ := NewWeibull(2.0, 300)
	if CensoredLogLikelihood(fit, obs2) <= CensoredLogLikelihood(wrong, obs2) {
		t.Error("MLE not beating a wrong model in censored likelihood")
	}
}

// BenchmarkFitCensoredWeibull times the censored fit at the scale of the
// full-corpus survival analysis (≈300k jobs, about half of them censored,
// infant-mortality shape).
func BenchmarkFitCensoredWeibull(b *testing.B) {
	obs := randomCensored(rand.New(rand.NewSource(1)), 0.62, 2100, 300000, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitCensoredWeibull(obs); err != nil {
			b.Fatal(err)
		}
	}
}
