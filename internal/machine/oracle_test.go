package machine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// linearAllocator is the reference implementation of Allocator: one bool
// and one repair counter per midplane, and a first fit that scans the
// aligned bases and then every contiguous run linearly. The production
// allocator replaces the scans with mask arithmetic and must make exactly
// the same decisions.
type linearAllocator struct {
	busy [TotalMidplanes]bool
	down [TotalMidplanes]int
	used int
}

func (a *linearAllocator) Alloc(n int) (Block, bool) {
	base, mids, ok := a.find(n)
	if !ok {
		return Block{}, false
	}
	for i := base; i < base+mids; i++ {
		a.busy[i] = true
	}
	a.used += mids
	return Block{BaseMidplane: base, Midplanes: mids}, true
}

func (a *linearAllocator) find(n int) (base, mids int, ok bool) {
	mids, err := MidplanesForNodes(n)
	if err != nil {
		return 0, 0, false
	}
	if mids == TotalMidplanes || mids > 64 {
		if a.used != 0 {
			return 0, 0, false
		}
		return 0, TotalMidplanes, true
	}
	// Pass 1: aligned bases.
	for b := 0; b+mids <= TotalMidplanes; b += mids {
		if a.rangeFree(b, mids) {
			return b, mids, true
		}
	}
	// Pass 2: any contiguous run.
	run := 0
	for i := 0; i < TotalMidplanes; i++ {
		if a.busy[i] || a.down[i] > 0 {
			run = 0
			continue
		}
		run++
		if run == mids {
			return i - mids + 1, mids, true
		}
	}
	return 0, 0, false
}

func (a *linearAllocator) rangeFree(base, mids int) bool {
	for i := base; i < base+mids; i++ {
		if a.busy[i] || a.down[i] > 0 {
			return false
		}
	}
	return true
}

func (a *linearAllocator) Free(b Block) error {
	for id := b.BaseMidplane; id < b.BaseMidplane+b.Midplanes; id++ {
		if !a.busy[id] {
			return fmt.Errorf("machine: double free of midplane %d in block %s", id, b.Name())
		}
	}
	for id := b.BaseMidplane; id < b.BaseMidplane+b.Midplanes; id++ {
		a.busy[id] = false
	}
	a.used -= b.Midplanes
	return nil
}

func (a *linearAllocator) MarkDown(id int) error {
	if a.busy[id] {
		return fmt.Errorf("machine: midplane %d is busy; cannot mark down", id)
	}
	a.down[id]++
	return nil
}

func (a *linearAllocator) MarkUp(id int) error {
	if a.down[id] == 0 {
		return fmt.Errorf("machine: midplane %d is not down", id)
	}
	a.down[id]--
	return nil
}

// sameState reports the first difference between the production allocator
// and the reference, or "".
func sameState(a *Allocator, ref *linearAllocator) string {
	var snap []int
	downs := 0
	for id := 0; id < TotalMidplanes; id++ {
		if ref.busy[id] {
			snap = append(snap, id)
		}
		if ref.down[id] > 0 {
			downs++
		}
	}
	switch {
	case !reflect.DeepEqual(a.Snapshot(), snap):
		return fmt.Sprintf("busy %v, want %v", a.Snapshot(), snap)
	case a.downCount != ref.down:
		return fmt.Sprintf("down counts %v, want %v", a.downCount, ref.down)
	case a.DownMidplanes() != downs:
		return fmt.Sprintf("DownMidplanes %d, want %d", a.DownMidplanes(), downs)
	case a.UsedMidplanes() != ref.used || a.FreeMidplanes() != TotalMidplanes-ref.used:
		return fmt.Sprintf("used %d free %d, want used %d", a.UsedMidplanes(), a.FreeMidplanes(), ref.used)
	}
	for _, n := range BlockSizes {
		_, _, ok := ref.find(n)
		if a.CanAlloc(n) != ok {
			return fmt.Sprintf("CanAlloc(%d) = %v, want %v", n, !ok, ok)
		}
	}
	return ""
}

// TestAllocatorMatchesLinearOracle drives random traces of Alloc, Free,
// MarkDown and MarkUp through the allocator and the linear reference and
// requires the same result and the same state after every step. The
// traces fragment the machine, keep midplanes down for repair (nested
// repairs included) and request the full machine, so the aligned pass, the
// unaligned fallback and the full-machine branch all decide.
func TestAllocatorMatchesLinearOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, ref := NewAllocator(), &linearAllocator{}
		var live []Block
		var downed []int
		for step := 0; step < 600; step++ {
			var op string
			switch r := rng.Intn(20); {
			case r < 9:
				n := BlockSizes[rng.Intn(len(BlockSizes))]
				if rng.Intn(3) > 0 {
					n = BlockSizes[rng.Intn(3)] // mostly small blocks, to fragment
				}
				op = fmt.Sprintf("Alloc(%d)", n)
				got, gotOK := a.Alloc(n)
				want, wantOK := ref.Alloc(n)
				if got != want || gotOK != wantOK {
					t.Fatalf("seed %d step %d %s = %v %v, want %v %v", seed, step, op, got, gotOK, want, wantOK)
				}
				if gotOK {
					live = append(live, got)
				}
			case r < 16 && len(live) > 0:
				i := rng.Intn(len(live))
				op = "Free(" + live[i].Name() + ")"
				if err, wantErr := a.Free(live[i]), ref.Free(live[i]); (err == nil) != (wantErr == nil) {
					t.Fatalf("seed %d step %d %s: err %v, want %v", seed, step, op, err, wantErr)
				}
				live = append(live[:i], live[i+1:]...)
			case r < 18:
				id := rng.Intn(TotalMidplanes)
				op = fmt.Sprintf("MarkDown(%d)", id)
				err, wantErr := a.MarkDown(id), ref.MarkDown(id)
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("seed %d step %d %s: err %v, want %v", seed, step, op, err, wantErr)
				}
				if err == nil {
					downed = append(downed, id)
				}
			case len(downed) > 0:
				i := rng.Intn(len(downed))
				op = fmt.Sprintf("MarkUp(%d)", downed[i])
				if err, wantErr := a.MarkUp(downed[i]), ref.MarkUp(downed[i]); err != nil || wantErr != nil {
					t.Fatalf("seed %d step %d %s: err %v, ref err %v", seed, step, op, err, wantErr)
				}
				downed = append(downed[:i], downed[i+1:]...)
			default:
				continue
			}
			if diff := sameState(a, ref); diff != "" {
				t.Fatalf("seed %d step %d after %s: %s", seed, step, op, diff)
			}
		}
	}
}

// TestFullMachineIgnoresDownMidplanes pins a known quirk, shared with the
// reference: a full-machine request checks only that nothing is allocated,
// so it starts even while midplanes are down for repair. The generated
// corpora depend on it (ROADMAP lists the fix).
func TestFullMachineIgnoresDownMidplanes(t *testing.T) {
	a := NewAllocator()
	if err := a.MarkDown(40); err != nil {
		t.Fatal(err)
	}
	b, ok := a.Alloc(TotalNodes)
	if !ok || b != (Block{BaseMidplane: 0, Midplanes: TotalMidplanes}) {
		t.Fatalf("Alloc(full) = %v %v, want the whole machine", b, ok)
	}
	if a.DownMidplanes() != 1 || a.FreeMidplanes() != 0 {
		t.Fatalf("down %d free %d", a.DownMidplanes(), a.FreeMidplanes())
	}
	if err := a.Free(b); err != nil {
		t.Fatal(err)
	}
}

func TestRangeMask(t *testing.T) {
	for base := 0; base < TotalMidplanes; base++ {
		for n := 1; base+n <= TotalMidplanes; n++ {
			var want midplaneMask
			for id := base; id < base+n; id++ {
				if id < 64 {
					want.lo |= 1 << id
				} else {
					want.hi |= 1 << (id - 64)
				}
			}
			if got := rangeMask(base, n); got != want {
				t.Fatalf("rangeMask(%d, %d) = %x, want %x", base, n, got, want)
			}
			if got := want.count(); got != n {
				t.Fatalf("count = %d, want %d", got, n)
			}
			if got := want.first(); got != base {
				t.Fatalf("first = %d, want %d", got, base)
			}
		}
	}
	if (midplaneMask{}).first() != -1 {
		t.Error("first of the empty set should be -1")
	}
}

func TestAllocFreeAllocatesNothing(t *testing.T) {
	a := NewAllocator()
	if err := a.MarkDown(3); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Alloc(2048); !ok { // fragment the low midplanes
		t.Fatal("setup alloc failed")
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, n := range BlockSizes {
			b, ok := a.Alloc(n)
			if !ok {
				continue
			}
			if err := a.Free(b); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("Alloc/Free cycle allocates %.1f times, want 0", allocs)
	}
}
