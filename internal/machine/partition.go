package machine

import (
	"fmt"
	"math/bits"
)

// Blue Gene/Q jobs run on *blocks* (partitions): contiguous groups of
// midplanes wired into a torus. On Mira the schedulable block sizes are
// powers of two in units of 512 nodes (one midplane), from 512 up to the
// full 49,152-node machine.
//
// We model the allocatable geometry as contiguous runs over the 96
// midplanes: a block of k midplanes (k a power of two, k ≤ 64; plus the
// special 96-midplane full machine) occupies midplanes [base, base+k).
// The allocator prefers k-aligned bases (buddy-style, matching the fixed
// wiring of small BG/Q blocks) and falls back to any contiguous run, which
// models the multiple valid torus shapes larger Mira blocks could take.
// This captures the property the failure analysis needs: blocks are
// spatially contiguous, so localized RAS bursts intersect few blocks.

// BlockSizes lists the schedulable block sizes on Mira, in nodes.
var BlockSizes = []int{512, 1024, 2048, 4096, 8192, 16384, 32768, 49152}

// ValidBlockNodes reports whether n is a schedulable block size in nodes.
func ValidBlockNodes(n int) bool {
	for _, s := range BlockSizes {
		if s == n {
			return true
		}
	}
	return false
}

// MidplanesForNodes returns the number of midplanes a block of n nodes
// occupies.
func MidplanesForNodes(n int) (int, error) {
	if !ValidBlockNodes(n) {
		return 0, fmt.Errorf("machine: %d nodes is not a schedulable block size", n)
	}
	return n / NodesPerMidplane, nil
}

// Block is a contiguous allocation of midplanes hosting one job task.
type Block struct {
	BaseMidplane int // linear midplane ID of the first midplane
	Midplanes    int // number of midplanes (1,2,4,...,64, or 96)
}

// Nodes returns the block's size in compute nodes.
func (b Block) Nodes() int { return b.Midplanes * NodesPerMidplane }

// Name returns the ALCF-style block name, e.g. "MIR-00800-3BFF1-512".
// We use a simplified readable form: "B<base>-<midplanes>".
func (b Block) Name() string { return fmt.Sprintf("B%02d-%02d", b.BaseMidplane, b.Midplanes) }

// ParseBlock parses a block name produced by Name.
func ParseBlock(s string) (Block, error) {
	var base, mids int
	if _, err := fmt.Sscanf(s, "B%d-%d", &base, &mids); err != nil {
		return Block{}, fmt.Errorf("machine: bad block name %q: %w", s, err)
	}
	b := Block{BaseMidplane: base, Midplanes: mids}
	if err := b.Validate(); err != nil {
		return Block{}, err
	}
	return b, nil
}

// Validate checks block geometry: power-of-two midplane count (or the full
// machine), contiguous and in range. Bases need not be size-aligned: the
// allocator prefers aligned placements but may fall back to any contiguous
// run (see the package comment).
func (b Block) Validate() error {
	if b.Midplanes == TotalMidplanes {
		if b.BaseMidplane != 0 {
			return fmt.Errorf("machine: full-machine block must start at midplane 0, got %d", b.BaseMidplane)
		}
		return nil
	}
	if !schedulableMidplanes(b.Midplanes) {
		return fmt.Errorf("machine: block of %d midplanes is not schedulable", b.Midplanes)
	}
	if b.BaseMidplane < 0 || b.BaseMidplane+b.Midplanes > TotalMidplanes {
		return fmt.Errorf("machine: block [%d,%d) out of range", b.BaseMidplane, b.BaseMidplane+b.Midplanes)
	}
	return nil
}

// schedulableMidplanes reports whether a block of mids midplanes is
// schedulable: a power of two up to 64, or the full machine.
func schedulableMidplanes(mids int) bool {
	return mids == TotalMidplanes || mids > 0 && mids <= 64 && mids&(mids-1) == 0
}

// ContainsMidplane reports whether midplane id (linear) lies in the block.
func (b Block) ContainsMidplane(id int) bool {
	return id >= b.BaseMidplane && id < b.BaseMidplane+b.Midplanes
}

// ContainsLocation reports whether the hardware location intersects the
// block. Locations coarser than a midplane intersect if any of their
// midplanes do.
func (b Block) ContainsLocation(loc Location) bool {
	switch loc.Level() {
	case LevelSystem:
		return true
	case LevelRack:
		for m := 0; m < MidplanesPerRack; m++ {
			if b.ContainsMidplane(loc.rack*MidplanesPerRack + m) {
				return true
			}
		}
		return false
	default:
		id, err := loc.MidplaneID()
		if err != nil {
			return false
		}
		return b.ContainsMidplane(id)
	}
}

// Overlaps reports whether two blocks share any midplane.
func (b Block) Overlaps(o Block) bool {
	return b.BaseMidplane < o.BaseMidplane+o.Midplanes && o.BaseMidplane < b.BaseMidplane+b.Midplanes
}

// BlocksForNodes enumerates every valid block of the given node count, in
// base order.
func BlocksForNodes(n int) ([]Block, error) {
	mids, err := MidplanesForNodes(n)
	if err != nil {
		return nil, err
	}
	if mids > 64 {
		return []Block{{BaseMidplane: 0, Midplanes: TotalMidplanes}}, nil
	}
	var out []Block
	for base := 0; base+mids <= TotalMidplanes; base += mids {
		out = append(out, Block{BaseMidplane: base, Midplanes: mids})
	}
	return out, nil
}

// midplaneMask is a set of midplanes: bit i of lo is midplane i (0..63),
// bit i of hi is midplane 64+i (64..95). Bits above midplane 95 stay clear.
type midplaneMask struct{ lo, hi uint64 }

// allMidplanes is the set of every midplane.
var allMidplanes = midplaneMask{lo: ^uint64(0), hi: 1<<(TotalMidplanes-64) - 1}

// alignedBases[k] is the set of bases that are multiples of 1<<k: the
// candidate bases of the aligned first fit for a block of 1<<k midplanes.
var alignedBases = func() (m [7]midplaneMask) {
	for k := range m {
		for b := 0; b < TotalMidplanes; b += 1 << k {
			m[k] = m[k].or(rangeMask(b, 1))
		}
	}
	return m
}()

// rangeMask returns the set of midplanes [base, base+n), for base >= 0,
// n >= 1 and base+n <= TotalMidplanes.
func rangeMask(base, n int) midplaneMask {
	// A shift by 64 yields 0, so the n == 64 low word is all ones.
	m := midplaneMask{lo: uint64(1)<<min(n, 64) - 1}
	if n > 64 {
		m.hi = uint64(1)<<(n-64) - 1
	}
	if base >= 64 {
		return midplaneMask{hi: m.lo << (base - 64)}
	}
	return midplaneMask{lo: m.lo << base, hi: (m.hi<<base | m.lo>>(64-base)) & allMidplanes.hi}
}

func (m midplaneMask) or(o midplaneMask) midplaneMask {
	return midplaneMask{lo: m.lo | o.lo, hi: m.hi | o.hi}
}

func (m midplaneMask) and(o midplaneMask) midplaneMask {
	return midplaneMask{lo: m.lo & o.lo, hi: m.hi & o.hi}
}

func (m midplaneMask) andNot(o midplaneMask) midplaneMask {
	return midplaneMask{lo: m.lo &^ o.lo, hi: m.hi &^ o.hi}
}

// shr shifts the set down by k midplanes (1 <= k < 64): bit b of the result
// is bit b+k of m.
func (m midplaneMask) shr(k int) midplaneMask {
	return midplaneMask{lo: m.lo>>k | m.hi<<(64-k), hi: m.hi >> k}
}

func (m midplaneMask) empty() bool { return m.lo|m.hi == 0 }

func (m midplaneMask) count() int { return bits.OnesCount64(m.lo) + bits.OnesCount64(m.hi) }

// first returns the lowest midplane in the set, or -1 if it is empty.
func (m midplaneMask) first() int {
	switch {
	case m.lo != 0:
		return bits.TrailingZeros64(m.lo)
	case m.hi != 0:
		return 64 + bits.TrailingZeros64(m.hi)
	}
	return -1
}

// Allocator tracks which midplanes are in use and hands out aligned
// contiguous blocks, buddy-system style. It is not safe for concurrent use;
// the scheduler serializes access.
type Allocator struct {
	busy midplaneMask
	// down is the set of midplanes with a nonzero downCount: out of service
	// for repair. A midplane is allocatable only when neither busy nor down.
	down midplaneMask
	// downCount counts the overlapping repairs of each midplane, because
	// repairs nest: each MarkDown needs its own MarkUp.
	downCount [TotalMidplanes]int
}

// NewAllocator returns an allocator with the whole machine free.
func NewAllocator() *Allocator { return &Allocator{} }

// FreeMidplanes returns the number of midplanes currently unallocated.
func (a *Allocator) FreeMidplanes() int { return TotalMidplanes - a.busy.count() }

// UsedMidplanes returns the number of midplanes currently allocated.
func (a *Allocator) UsedMidplanes() int { return a.busy.count() }

// Alloc finds and reserves a free block of n nodes. It first tries
// size-aligned bases in ascending order (buddy-style first fit, which keeps
// allocations packed toward low midplane IDs), then falls back to the lowest
// contiguous free run. Returns false if no contiguous free run of the needed
// length exists.
func (a *Allocator) Alloc(n int) (Block, bool) {
	mids, err := MidplanesForNodes(n)
	if err != nil {
		return Block{}, false
	}
	return a.AllocMidplanes(mids)
}

// AllocMidplanes is Alloc for a block of mids midplanes (1, 2, 4, ..., 64,
// or 96 for the full machine).
func (a *Allocator) AllocMidplanes(mids int) (Block, bool) {
	if !schedulableMidplanes(mids) {
		return Block{}, false
	}
	base := a.find(mids)
	if base < 0 {
		return Block{}, false
	}
	a.busy = a.busy.or(rangeMask(base, mids))
	return Block{BaseMidplane: base, Midplanes: mids}, true
}

// CanAlloc reports whether a block of n nodes could be allocated right now,
// without reserving it.
func (a *Allocator) CanAlloc(n int) bool {
	mids, err := MidplanesForNodes(n)
	return err == nil && a.find(mids) >= 0
}

// find returns the first-fit base for a block of mids midplanes (a
// schedulable count), or -1 if there is none.
//
//mira:hotpath
func (a *Allocator) find(mids int) int {
	if mids == TotalMidplanes {
		// Known quirk, kept on purpose: the full machine checks only that
		// no midplane is allocated, not that none is down, so it can start
		// on midplanes that are out for repair. The golden corpus
		// fingerprints pin this; ROADMAP tracks fixing it.
		if a.busy.empty() {
			return 0
		}
		return -1
	}
	// runs gets bit b set iff midplanes [b, b+mids) are all free: each step
	// ANDs in a copy shifted down by the run length so far, doubling it.
	// Bits past midplane 95 are clear, so no run wraps off the end.
	runs := allMidplanes.andNot(a.busy.or(a.down))
	for w := 1; w < mids; w <<= 1 {
		runs = runs.and(runs.shr(w))
	}
	// Aligned first fit, then the lowest run anywhere: the same order as a
	// linear scan of the aligned bases followed by a linear scan of runs.
	if b := runs.and(alignedBases[bits.TrailingZeros(uint(mids))]).first(); b >= 0 {
		return b
	}
	return runs.first()
}

// Free releases a previously allocated block. Freeing midplanes that are not
// allocated is an error (it indicates scheduler corruption).
func (a *Allocator) Free(b Block) error {
	if err := b.Validate(); err != nil {
		return err
	}
	m := rangeMask(b.BaseMidplane, b.Midplanes)
	if idle := m.andNot(a.busy); !idle.empty() {
		return fmt.Errorf("machine: double free of midplane %d in block %s", idle.first(), b.Name())
	}
	a.busy = a.busy.andNot(m)
	return nil
}

// MarkDown takes a midplane out of service (repair/service action). Down
// states nest: overlapping repairs each require their own MarkUp. Marking
// a busy midplane is an error — drain it first.
func (a *Allocator) MarkDown(id int) error {
	if id < 0 || id >= TotalMidplanes {
		return fmt.Errorf("machine: midplane id %d out of range", id)
	}
	m := rangeMask(id, 1)
	if !m.and(a.busy).empty() {
		return fmt.Errorf("machine: midplane %d is busy; cannot mark down", id)
	}
	a.downCount[id]++
	a.down = a.down.or(m)
	return nil
}

// MarkUp returns a midplane to service, undoing one MarkDown.
func (a *Allocator) MarkUp(id int) error {
	if id < 0 || id >= TotalMidplanes {
		return fmt.Errorf("machine: midplane id %d out of range", id)
	}
	if a.downCount[id] == 0 {
		return fmt.Errorf("machine: midplane %d is not down", id)
	}
	a.downCount[id]--
	if a.downCount[id] == 0 {
		a.down = a.down.andNot(rangeMask(id, 1))
	}
	return nil
}

// DownMidplanes returns how many midplanes are currently out of service.
func (a *Allocator) DownMidplanes() int { return a.down.count() }

// Snapshot returns the sorted linear IDs of busy midplanes, for debugging
// and invariant checks in tests.
func (a *Allocator) Snapshot() []int {
	var out []int
	for m := a.busy; !m.empty(); {
		id := m.first()
		out = append(out, id)
		m = m.andNot(rangeMask(id, 1))
	}
	return out
}
