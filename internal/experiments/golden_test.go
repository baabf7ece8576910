package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// Golden fingerprints of the report. Each digest is the sha256 of the full
// rendered suite — for every experiment in registry order its header line,
// tables, figures and MetricsTable — or of the takeaways as mirareport
// prints them. They were recorded before the pre-fusion walks moved out of
// the product, where the fused and walk-based suites agreed byte for byte,
// so any change to an analysis, a kernel or the rendering shows up here.
const (
	// sim.SmallConfig().
	goldenSmallSuite     = "c14d09c1521100f9185419a71b3f888efc15e9c6f980948d9aaa38fbf8af042f"
	goldenSmallTakeaways = "55b9d457e0b64df5d95bfeb7ecbde127ed4686f6edb3c58e5518d24bd0cdfd54"
	// The 150-day corpus the other experiments tests share (env).
	golden150Suite     = "2fa45c53d40c88642a1bc2e301cdee631e96b3a306d4b416631f642487d937ce"
	golden150Takeaways = "f42799ccc8e8a76dce9139c795ee63745f70aec0d0fb078f25f81683ec52822c"
)

// renderSuite writes every result the way the golden digests expect.
func renderSuite(t *testing.T, w io.Writer, results []*Result) {
	t.Helper()
	for _, res := range results {
		fmt.Fprintf(w, "=== %s: %s ===\n", res.ID, res.Description)
		for _, tab := range res.Tables {
			if err := tab.Render(w); err != nil {
				t.Fatal(err)
			}
		}
		for _, fig := range res.Figures {
			if err := fig.Render(w); err != nil {
				t.Fatal(err)
			}
		}
		if err := MetricsTable(res).Render(w); err != nil {
			t.Fatal(err)
		}
	}
}

func suiteDigest(t *testing.T, results []*Result) string {
	t.Helper()
	h := sha256.New()
	renderSuite(t, h, results)
	return hex.EncodeToString(h.Sum(nil))
}

func takeawaysDigest(t *testing.T, d *core.Dataset) string {
	t.Helper()
	ts, err := d.Takeaways()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, tk := range ts {
		fmt.Fprintf(h, "%2d. [%s] %s\n", tk.ID, tk.Tag, tk.Text)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// freshDataset indexes d's logs into a new Dataset with an empty analysis
// memo, so every analysis on it is computed again.
func freshDataset(t testing.TB, d *core.Dataset) *core.Dataset {
	t.Helper()
	fresh, err := core.NewDataset(d.Jobs, d.Tasks, d.Events, d.IO)
	if err != nil {
		t.Fatal(err)
	}
	return fresh
}

// checkGolden runs the suite at workers 1, 4 and GOMAXPROCS, each over a
// fresh Dataset so every worker count computes the memoized analyses
// itself, and compares every digest: the suite's, the takeaways' after the
// suite (reading the suite's memo, as mirareport does) and the takeaways'
// on a cold Dataset (computing every analysis itself).
func checkGolden(t *testing.T, d *core.Dataset, suite, takeaways string) {
	t.Helper()
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		env := NewEnvFromDataset(freshDataset(t, d))
		env.Parallelism = workers
		results, err := RunAll(env, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := suiteDigest(t, results); got != suite {
			t.Errorf("workers=%d: suite digest %s, golden %s", workers, got, suite)
		}
		if got := takeawaysDigest(t, env.D); got != takeaways {
			t.Errorf("workers=%d: takeaways after the suite: digest %s, golden %s", workers, got, takeaways)
		}
	}
	if got := takeawaysDigest(t, freshDataset(t, d)); got != takeaways {
		t.Errorf("cold takeaways digest %s, golden %s", got, takeaways)
	}
}

// TestRaceTakeawaysWithRunAll races Takeaways against RunAll on a cold
// Dataset, so both reach every memoized analysis first-touch at once; both
// outputs must still match the golden digests (run with -race).
func TestRaceTakeawaysWithRunAll(t *testing.T) {
	c, err := sim.Generate(sim.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.NewDataset(c.Jobs, c.Tasks, c.Events, c.IO)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnvFromDataset(d)
	env.Parallelism = 4
	var (
		results []*Result
		runErr  error
		wg      sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results, runErr = RunAll(env, 4)
	}()
	gotTakeaways := takeawaysDigest(t, d)
	wg.Wait()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if got := suiteDigest(t, results); got != goldenSmallSuite {
		t.Errorf("suite digest %s, golden %s", got, goldenSmallSuite)
	}
	if gotTakeaways != goldenSmallTakeaways {
		t.Errorf("takeaways digest %s, golden %s", gotTakeaways, goldenSmallTakeaways)
	}
}

// TestRunAllGolden pins the rendered E1–E23 suite and the takeaways on the
// small corpus to the committed fingerprints, at several worker counts.
func TestRunAllGolden(t *testing.T) {
	c, err := sim.Generate(sim.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.NewDataset(c.Jobs, c.Tasks, c.Events, c.IO)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, d, goldenSmallSuite, goldenSmallTakeaways)
}

// TestRunAllGolden150 does the same on the shared 150-day corpus, where
// every fit and MTTI statistic has enough data to be non-trivial.
func TestRunAllGolden150(t *testing.T) {
	checkGolden(t, env(t).D, golden150Suite, golden150Takeaways)
}
