package scan

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitmap"
)

// runWhereTrace runs the trace+sum kernel pair over a selection.
func runWhereTrace(t *testing.T, n int, sel *bitmap.Bitmap, workers int) (*traceState, *sumState) {
	t.Helper()
	states, err := Run(rowsView{n}, n, sel, []Kernel[rowsView]{traceKernel{}, sumKernel{}}, workers)
	if err != nil {
		t.Fatalf("Run(n=%d, workers=%d): %v", n, workers, err)
	}
	return states[0].(*traceState), states[1].(*sumState)
}

// TestRunWhereVisitsExactlySelection checks that every selected row is
// visited exactly once, in ascending order, for several selection shapes
// and worker counts.
func TestRunWhereVisitsExactlySelection(t *testing.T) {
	const n = 3*ShardRows + 777
	rng := rand.New(rand.NewSource(5))
	shapes := map[string]func() *bitmap.Bitmap{
		"empty": func() *bitmap.Bitmap { return bitmap.New() },
		"full": func() *bitmap.Bitmap {
			b := bitmap.New()
			b.AddRange(0, n)
			return b
		},
		"sparse": func() *bitmap.Bitmap {
			b := bitmap.New()
			for i := 0; i < n; i += 97 {
				b.Add(uint32(i))
			}
			return b
		},
		"random": func() *bitmap.Bitmap {
			b := bitmap.New()
			for i := 0; i < n; i++ {
				if rng.Intn(3) == 0 {
					b.Add(uint32(i))
				}
			}
			return b
		},
		"oneblock": func() *bitmap.Bitmap {
			b := bitmap.New()
			b.AddRange(2*BlockRows, 3*BlockRows)
			return b
		},
		"tail": func() *bitmap.Bitmap {
			b := bitmap.New()
			b.AddRange(n-5, n+100) // past-the-end bits must be clipped by block bounds
			return b
		},
	}
	for name, mk := range shapes {
		sel := mk()
		var want []int
		var wantSum int64
		sel.Iterate(func(x uint32) bool {
			if int(x) < n {
				want = append(want, int(x))
				wantSum += int64(x)
			}
			return true
		})
		var ref *traceState
		for _, workers := range []int{1, 4, 8} {
			tr, sum := runWhereTrace(t, n, sel, workers)
			if sum.total != wantSum {
				t.Errorf("%s workers=%d: sum = %d, want %d", name, workers, sum.total, wantSum)
			}
			if len(tr.rows) != len(want) || (len(want) > 0 && !reflect.DeepEqual(tr.rows, want)) {
				t.Errorf("%s workers=%d: visited %d rows, want %d (ascending selection order)",
					name, workers, len(tr.rows), len(want))
			}
			if ref == nil {
				ref = tr
			} else if !reflect.DeepEqual(tr.blocks, ref.blocks) {
				t.Errorf("%s workers=%d: block trace differs from workers=1 — determinism broken", name, workers)
			}
		}
	}
}

// TestRunWhereFullSelectionMatchesRun pins the fast-path contract: an
// all-set selection issues exactly the block calls of the unmasked (nil
// selection) scan — one ProcessBlock(blockLo, blockHi) per block.
func TestRunWhereFullSelectionMatchesRun(t *testing.T) {
	for _, n := range []int{0, 1, BlockRows, ShardRows + 3, 2*ShardRows + BlockRows + 11} {
		full := bitmap.New()
		full.AddRange(0, uint32(n))
		for _, workers := range []int{1, 4} {
			nilTr, _ := runWhereTrace(t, n, nil, workers)
			fullTr, _ := runWhereTrace(t, n, full, workers)
			if !reflect.DeepEqual(nilTr.blocks, fullTr.blocks) {
				t.Errorf("n=%d workers=%d: nil-selection blocks %v, full-selection blocks %v",
					n, workers, nilTr.blocks, fullTr.blocks)
			}
			for b, blk := range nilTr.blocks {
				if blk[0] != b*BlockRows || blk[1] != min((b+1)*BlockRows, n) {
					t.Fatalf("n=%d workers=%d: block %d is %v, want one call per whole block", n, workers, b, blk)
				}
			}
		}
	}
}

// TestRunWhereNilSelection checks a nil selection scans every row: its
// sums equal those of an all-set selection and the closed form.
func TestRunWhereNilSelection(t *testing.T) {
	for _, n := range []int{0, 1, BlockRows, ShardRows + 3, ShardRows + 10, 2*ShardRows + BlockRows + 11} {
		full := bitmap.New()
		full.AddRange(0, uint32(n))
		for _, workers := range []int{1, 2, 4} {
			_, nilSum := runWhereTrace(t, n, nil, workers)
			_, fullSum := runWhereTrace(t, n, full, workers)
			want := int64(n) * int64(n-1) / 2
			if nilSum.total != want || fullSum.total != want {
				t.Errorf("n=%d workers=%d: sums nil=%d full=%d, want %d",
					n, workers, nilSum.total, fullSum.total, want)
			}
		}
	}
}
