package sim_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/iolog"
	"repro/internal/joblog"
	"repro/internal/pack"
	"repro/internal/raslog"
	"repro/internal/sim"
	"repro/internal/tasklog"
)

// corpusDigests fingerprints a generated corpus by the sha256 of each of
// its four CSV encodings and of its mirapack snapshot bytes.
type corpusDigests struct {
	Jobs, Tasks, RAS, IO, Pack string
}

// Golden corpus fingerprints. They pin the generator's output across code
// changes: a refactor of the simulator, the scheduler or the allocator must
// leave every one of them unchanged. A change that alters the corpus on
// purpose re-records them and says so.
var goldenCorpora = []struct {
	name string
	cfg  func() sim.Config
	want corpusDigests
}{
	{
		name: "small",
		cfg:  sim.SmallConfig,
		want: corpusDigests{
			Jobs:  "8d7ad08fd65e409b10869ae72c7f1fcddcd5df4e168f98151511f9b2ddb3f5cd",
			Tasks: "696d1a804a33e1d1f531c5eb8e46871332fb1ab509d4d5d0130b7d5e00ffeb5a",
			RAS:   "632526c501e3e940a7faf97a87e3468c73c1a9b53c1e18843f0c1fcb0b6383bb",
			IO:    "1ff645a9e620f6624d8e7a7dc43d3ad4f64594b45e6ee2fc011d238381dab456",
			Pack:  "1cec3ac4ac7d0bb7b53124dc6e20b3a6a4cd5f14be333502a0957b80b1e46945",
		},
	},
	{
		// The 150-day corpus the experiments tests share.
		name: "150day",
		cfg: func() sim.Config {
			cfg := sim.DefaultConfig()
			cfg.Days = 150
			cfg.NumUsers = 300
			cfg.NumProjects = 120
			return cfg
		},
		want: corpusDigests{
			Jobs:  "375ef749f931308e06fdcf43c97d06c142fbf931baa71adbc2f084ff28a80735",
			Tasks: "09294804a8dd8a14842f271bd432638ed5a9788cbada4084c3cb45ab13ecec18",
			RAS:   "3ca8cf5d7c4069bcfa4f81c705be980011ae02538fe67c9cc56d4ef490240a7b",
			IO:    "d195755aecfaf4776a0c6fa5fa439980886a38eefe279545f2edd6e986fd88e4",
			Pack:  "372b46fa404d0f97b0ccfd1edd6f540ca42930dd8e85361f5444facf14118cfe",
		},
	},
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func csvDigest(t *testing.T, write func(w io.Writer) error) string {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	return sha(buf.Bytes())
}

func digestCorpus(t *testing.T, c *sim.Corpus) corpusDigests {
	t.Helper()
	var got corpusDigests
	got.Jobs = csvDigest(t, func(w io.Writer) error { return joblog.WriteCSV(w, c.Jobs) })
	got.Tasks = csvDigest(t, func(w io.Writer) error { return tasklog.WriteCSV(w, c.Tasks) })
	got.RAS = csvDigest(t, func(w io.Writer) error { return raslog.WriteCSV(w, c.Events) })
	got.IO = csvDigest(t, func(w io.Writer) error { return iolog.WriteCSV(w, c.IO) })

	d, err := core.NewDataset(c.Jobs, c.Tasks, c.Events, c.IO)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), pack.SnapshotName)
	if err := pack.WriteFile(path, d); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got.Pack = sha(b)
	return got
}

// TestGoldenCorpus checks the generated corpora against the committed
// fingerprints.
func TestGoldenCorpus(t *testing.T) {
	for _, tc := range goldenCorpora {
		t.Run(tc.name, func(t *testing.T) {
			c, err := sim.Generate(tc.cfg())
			if err != nil {
				t.Fatal(err)
			}
			got := digestCorpus(t, c)
			if got != tc.want {
				t.Errorf("corpus fingerprints changed (%d jobs, %d events):\n got %+v\nwant %+v",
					len(c.Jobs), len(c.Events), got, tc.want)
			}
		})
	}
}
