// Package sched implements a Cobalt-style space-sharing scheduler for Mira:
// jobs request a power-of-two block of midplanes and a walltime; the
// scheduler runs FCFS with optional EASY backfill over the machine's buddy
// allocator.
//
// The scheduler is a mechanism, not a clock: the corpus simulator owns
// virtual time and drives it through Submit / Schedule / Complete. This
// mirrors how placement interacts with failures — a job's hardware block is
// decided here, and the block determines which RAS events can hit the job.
package sched

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/machine"
)

// Policy selects the queueing discipline.
type Policy int

// Policies.
const (
	// FCFS starts jobs strictly in submission order; the queue head blocks
	// everything behind it.
	FCFS Policy = iota + 1
	// EASYBackfill lets later jobs jump ahead when they cannot delay the
	// queue head's earliest possible start (estimated from requested
	// walltimes).
	EASYBackfill
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case FCFS:
		return "fcfs"
	case EASYBackfill:
		return "easy-backfill"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// maxBackfillDepth bounds how many waiting jobs behind the head are
// considered for backfill in one pass.
const maxBackfillDepth = 256

// queued is a job waiting for a block.
type queued struct {
	id       int64
	mids     int // block size in midplanes
	walltime time.Duration
}

// running is a job currently holding a block.
type running struct {
	id     int64
	block  machine.Block
	expEnd time.Time // start + requested walltime (for backfill estimates)
}

// StartDecision reports that a queued job was started on a block.
type StartDecision struct {
	JobID int64
	Block machine.Block
}

// Scheduler is the space-sharing scheduler state. Not safe for concurrent
// use; the simulation loop is single-threaded by design.
type Scheduler struct {
	policy Policy
	alloc  *machine.Allocator
	queue  []queued
	// running is ordered by expEnd. Every running job holds at least one
	// midplane, so it never has more than TotalMidplanes entries.
	running []running
}

// New returns an empty scheduler with the given policy.
func New(policy Policy) *Scheduler {
	return &Scheduler{
		policy:  policy,
		alloc:   machine.NewAllocator(),
		running: make([]running, 0, machine.TotalMidplanes),
	}
}

// Submit enqueues a job request submitted at virtual time now. Nodes must
// be a schedulable block size. The queue is FCFS in Submit order.
func (s *Scheduler) Submit(id int64, nodes int, walltime time.Duration, now time.Time) error {
	mids, err := machine.MidplanesForNodes(nodes)
	if err != nil {
		return fmt.Errorf("sched: job %d requests unschedulable size %d", id, nodes)
	}
	if walltime <= 0 {
		return fmt.Errorf("sched: job %d requests non-positive walltime", id)
	}
	s.queue = append(s.queue, queued{id: id, mids: mids, walltime: walltime})
	return nil
}

// Schedule starts every job the policy allows at virtual time now and
// returns the start decisions in start order.
//
// It makes one pass. First it starts queue heads while they fit. Then,
// under EASY backfill, it scans the first maxBackfillDepth jobs behind the
// blocked head and starts each one that fits now and whose requested
// walltime ends by the head's shadow time, so the head is never delayed.
// Nothing is freed during a pass, so every fit test that fails stays
// failed, and the shadow time computed once stays exact (DESIGN §16).
func (s *Scheduler) Schedule(now time.Time) []StartDecision {
	var started []StartDecision
	for len(s.queue) > 0 {
		block, ok := s.alloc.AllocMidplanes(s.queue[0].mids)
		if !ok {
			break
		}
		s.start(s.queue[0], block, now, &started)
		s.queue = s.queue[1:]
	}
	if s.policy != EASYBackfill || len(s.queue) < 2 {
		return started
	}
	// Shadow time is estimated by midplane counts — buddy alignment can
	// postpone the head slightly beyond it, which is the standard
	// conservative approximation. A backfilled job ends by the shadow time
	// and so returns its midplanes by then: the estimate cannot move within
	// the pass.
	head := s.queue[0]
	shadow, ok := s.shadowTime(now, head.mids)
	if !ok {
		return started
	}
	window := shadow.Sub(now)
	// noFit is the smallest block size known not to fit. Up to 64
	// midplanes, a failed fit means there is no free run of that length,
	// and every larger size needs a longer run. The full machine never
	// fits here: a positive window means some midplane is busy.
	noFit := head.mids
	// Bound the scan like production backfill schedulers do: only the first
	// maxBackfillDepth waiting jobs are backfill candidates, counted in the
	// queue as it shrinks. The jobs that stay are compacted forward over
	// the started ones, and the tail is moved once at the end.
	q := s.queue
	kept, removed, i := 1, 0, 1
	for ; i < len(q) && i-removed <= maxBackfillDepth; i++ {
		cand := q[i]
		if cand.walltime <= window && cand.mids < noFit {
			if block, ok := s.alloc.AllocMidplanes(cand.mids); ok {
				s.start(cand, block, now, &started)
				removed++
				continue
			}
			noFit = cand.mids
		}
		q[kept] = cand
		kept++
	}
	if removed > 0 {
		s.queue = q[:kept+copy(q[kept:], q[i:])]
	}
	return started
}

// start records q as running on block: it is inserted into the running set
// after every job that is expected to end no later.
func (s *Scheduler) start(q queued, block machine.Block, now time.Time, started *[]StartDecision) {
	r := running{id: q.id, block: block, expEnd: now.Add(q.walltime)}
	at := sort.Search(len(s.running), func(k int) bool { return s.running[k].expEnd.After(r.expEnd) })
	s.running = append(s.running, running{})
	copy(s.running[at+1:], s.running[at:])
	s.running[at] = r
	*started = append(*started, StartDecision{JobID: q.id, Block: block})
}

// shadowTime estimates when the queue head (needing mids midplanes) could
// start: the earliest instant at which enough midplanes will be free,
// assuming running jobs end at their requested walltimes.
func (s *Scheduler) shadowTime(now time.Time, mids int) (time.Time, bool) {
	free := s.alloc.FreeMidplanes()
	if free >= mids {
		return now, true
	}
	for _, r := range s.running {
		free += r.block.Midplanes
		if free >= mids {
			return r.expEnd, true
		}
	}
	return time.Time{}, false
}

// runningIndex returns the position of job id in the running set, or -1.
func (s *Scheduler) runningIndex(id int64) int {
	for k := range s.running {
		if s.running[k].id == id {
			return k
		}
	}
	return -1
}

// Complete releases the block of a running job.
func (s *Scheduler) Complete(id int64) error {
	k := s.runningIndex(id)
	if k < 0 {
		return fmt.Errorf("sched: complete unknown job %d", id)
	}
	if err := s.alloc.Free(s.running[k].block); err != nil {
		return fmt.Errorf("sched: complete job %d: %w", id, err)
	}
	s.running = append(s.running[:k], s.running[k+1:]...)
	return nil
}

// QueueLen returns the number of jobs waiting.
func (s *Scheduler) QueueLen() int { return len(s.queue) }

// RunningCount returns the number of jobs holding blocks.
func (s *Scheduler) RunningCount() int { return len(s.running) }

// BusyMidplanes returns the number of allocated midplanes.
func (s *Scheduler) BusyMidplanes() int { return s.alloc.UsedMidplanes() }

// MarkDown takes the given midplanes out of service; busy midplanes are
// skipped (their jobs must be drained first) and the successfully marked
// ids are returned so the caller can MarkUp exactly those later.
func (s *Scheduler) MarkDown(ids []int) []int {
	marked := make([]int, 0, len(ids))
	for _, id := range ids {
		if err := s.alloc.MarkDown(id); err == nil {
			marked = append(marked, id)
		}
	}
	return marked
}

// MarkUp returns midplanes to service.
func (s *Scheduler) MarkUp(ids []int) error {
	for _, id := range ids {
		if err := s.alloc.MarkUp(id); err != nil {
			return fmt.Errorf("sched: %w", err)
		}
	}
	return nil
}

// DownMidplanes returns the number of out-of-service midplanes.
func (s *Scheduler) DownMidplanes() int { return s.alloc.DownMidplanes() }

// RunningBlock returns the block of a running job.
func (s *Scheduler) RunningBlock(id int64) (machine.Block, bool) {
	k := s.runningIndex(id)
	if k < 0 {
		return machine.Block{}, false
	}
	return s.running[k].block, true
}
