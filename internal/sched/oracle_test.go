package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/machine"
)

// restartScheduler is the reference implementation of Scheduler: it makes
// one decision per pass over the queue and restarts after every start,
// recomputing the shadow time from a freshly sorted copy of the running
// set each time. The production scheduler makes all decisions in one pass
// and must start the same jobs on the same blocks in the same order.
type restartScheduler struct {
	policy  Policy
	alloc   *machine.Allocator
	queue   []restartQueued
	running map[int64]running
}

type restartQueued struct {
	id       int64
	nodes    int
	walltime time.Duration
}

func newRestartScheduler(policy Policy) *restartScheduler {
	return &restartScheduler{policy: policy, alloc: machine.NewAllocator(), running: map[int64]running{}}
}

func (s *restartScheduler) Submit(id int64, nodes int, walltime time.Duration) {
	s.queue = append(s.queue, restartQueued{id: id, nodes: nodes, walltime: walltime})
}

func (s *restartScheduler) Schedule(now time.Time) []StartDecision {
	var started []StartDecision
	for s.scheduleOnce(now, &started) > 0 {
	}
	return started
}

func (s *restartScheduler) scheduleOnce(now time.Time, started *[]StartDecision) int {
	if len(s.queue) == 0 {
		return 0
	}
	head := s.queue[0]
	if block, ok := s.alloc.Alloc(head.nodes); ok {
		s.start(head, block, now, started)
		s.queue = s.queue[1:]
		return 1
	}
	if s.policy != EASYBackfill || len(s.queue) < 2 {
		return 0
	}
	shadow, ok := s.shadowTime(now, head.nodes)
	if !ok {
		return 0
	}
	limit := len(s.queue)
	if limit > 1+maxBackfillDepth {
		limit = 1 + maxBackfillDepth
	}
	for i := 1; i < limit; i++ {
		cand := s.queue[i]
		if now.Add(cand.walltime).After(shadow) {
			continue
		}
		block, ok := s.alloc.Alloc(cand.nodes)
		if !ok {
			continue
		}
		s.start(cand, block, now, started)
		s.queue = append(s.queue[:i], s.queue[i+1:]...)
		return 1
	}
	return 0
}

func (s *restartScheduler) start(q restartQueued, block machine.Block, now time.Time, started *[]StartDecision) {
	s.running[q.id] = running{id: q.id, block: block, expEnd: now.Add(q.walltime)}
	*started = append(*started, StartDecision{JobID: q.id, Block: block})
}

func (s *restartScheduler) shadowTime(now time.Time, nodes int) (time.Time, bool) {
	needed, err := machine.MidplanesForNodes(nodes)
	if err != nil {
		return time.Time{}, false
	}
	free := s.alloc.FreeMidplanes()
	if free >= needed {
		return now, true
	}
	ends := make([]running, 0, len(s.running))
	for _, r := range s.running {
		ends = append(ends, r)
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i].expEnd.Before(ends[j].expEnd) })
	for _, r := range ends {
		free += r.block.Midplanes
		if free >= needed {
			return r.expEnd, true
		}
	}
	return time.Time{}, false
}

func (s *restartScheduler) Complete(id int64) error {
	r, ok := s.running[id]
	if !ok {
		return fmt.Errorf("sched: complete unknown job %d", id)
	}
	if err := s.alloc.Free(r.block); err != nil {
		return err
	}
	delete(s.running, id)
	return nil
}

func (s *restartScheduler) MarkDown(ids []int) []int {
	marked := make([]int, 0, len(ids))
	for _, id := range ids {
		if err := s.alloc.MarkDown(id); err == nil {
			marked = append(marked, id)
		}
	}
	return marked
}

// schedulerDiff reports the first difference between the state of the
// production scheduler and the reference, or "".
func schedulerDiff(s *Scheduler, ref *restartScheduler) string {
	if got, want := s.alloc.Snapshot(), ref.alloc.Snapshot(); !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("busy midplanes %v, want %v", got, want)
	}
	if got, want := s.DownMidplanes(), ref.alloc.DownMidplanes(); got != want {
		return fmt.Sprintf("down midplanes %d, want %d", got, want)
	}
	if len(s.queue) != len(ref.queue) {
		return fmt.Sprintf("queue length %d, want %d", len(s.queue), len(ref.queue))
	}
	for i := range s.queue {
		if s.queue[i].id != ref.queue[i].id {
			return fmt.Sprintf("queue[%d] = job %d, want job %d", i, s.queue[i].id, ref.queue[i].id)
		}
	}
	if len(s.running) != len(ref.running) {
		return fmt.Sprintf("%d running, want %d", len(s.running), len(ref.running))
	}
	for k, r := range s.running {
		if k > 0 && r.expEnd.Before(s.running[k-1].expEnd) {
			return fmt.Sprintf("running set out of expEnd order at %d", k)
		}
		if want, ok := ref.running[r.id]; !ok || want != r {
			return fmt.Sprintf("running job %d = %+v, want %+v (present %v)", r.id, r, want, ok)
		}
	}
	return ""
}

// TestScheduleMatchesRestartOracle drives random traces of Submit,
// Schedule, Complete, MarkDown and MarkUp through the one-pass scheduler
// and the restart-per-start reference and requires equal start decisions
// and equal scheduler and allocator state after every step. The traces
// request full-machine (49152-node) blocks, keep midplanes down for
// repair, build queues far longer than 1+maxBackfillDepth in bursts, and
// use whole-hour walltimes on a quarter-hour clock so that many running
// jobs share an expected end.
func TestScheduleMatchesRestartOracle(t *testing.T) {
	sizes := []int{512, 512, 512, 1024, 1024, 2048, 4096, 8192, 16384, 32768, 49152}
	var stats struct{ backfilled, full, fullWhileDown, longQueue, ties int }
	for seed := int64(1); seed <= 12; seed++ {
		for _, policy := range []Policy{EASYBackfill, FCFS} {
			rng := rand.New(rand.NewSource(seed))
			s, ref := New(policy), newRestartScheduler(policy)
			now := t0
			nextID := int64(0)
			var repairs [][]int
			for step := 0; step < 400; step++ {
				var op string
				switch r := rng.Intn(10); {
				case r < 4:
					burst := 1 + rng.Intn(4)
					if rng.Intn(25) == 0 {
						burst = 300 + rng.Intn(100)
					}
					op = fmt.Sprintf("Submit x%d", burst)
					for k := 0; k < burst; k++ {
						nextID++
						nodes := sizes[rng.Intn(len(sizes))]
						wall := time.Duration(1+rng.Intn(8)) * time.Hour
						if err := s.Submit(nextID, nodes, wall, now); err != nil {
							t.Fatal(err)
						}
						ref.Submit(nextID, nodes, wall)
					}
				case r < 7 && len(ref.running) > 0:
					ids := make([]int64, 0, len(ref.running))
					for id := range ref.running {
						ids = append(ids, id)
					}
					sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
					id := ids[rng.Intn(len(ids))]
					op = fmt.Sprintf("Complete(%d)", id)
					if err, wantErr := s.Complete(id), ref.Complete(id); err != nil || wantErr != nil {
						t.Fatalf("%s: err %v, ref err %v", op, err, wantErr)
					}
				case r < 8:
					base := rng.Intn(machine.TotalMidplanes - 1)
					ids := []int{base, base + 1}[:1+rng.Intn(2)]
					op = fmt.Sprintf("MarkDown(%v)", ids)
					marked, want := s.MarkDown(ids), ref.MarkDown(ids)
					if !reflect.DeepEqual(marked, want) {
						t.Fatalf("seed %d step %d %s = %v, want %v", seed, step, op, marked, want)
					}
					repairs = append(repairs, marked)
				case r < 9 && len(repairs) > 0:
					i := rng.Intn(len(repairs))
					op = fmt.Sprintf("MarkUp(%v)", repairs[i])
					if err := s.MarkUp(repairs[i]); err != nil {
						t.Fatal(err)
					}
					for _, id := range repairs[i] {
						if err := ref.alloc.MarkUp(id); err != nil {
							t.Fatal(err)
						}
					}
					repairs = append(repairs[:i], repairs[i+1:]...)
				default:
					now = now.Add(time.Duration(rng.Intn(3)) * 15 * time.Minute)
					op = "Schedule"
					if len(ref.queue) > 1+maxBackfillDepth {
						stats.longQueue++
					}
					queueHead := int64(0)
					if len(ref.queue) > 0 {
						queueHead = ref.queue[0].id
					}
					down := ref.alloc.DownMidplanes()
					for k := 1; k < len(s.running); k++ {
						if s.running[k].expEnd.Equal(s.running[k-1].expEnd) {
							stats.ties++
							break
						}
					}
					got, want := s.Schedule(now), ref.Schedule(now)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d %s step %d: Schedule = %v, want %v", seed, policy, step, got, want)
					}
					for _, d := range got {
						if d.JobID != queueHead {
							stats.backfilled++
						}
						if d.Block.Midplanes == machine.TotalMidplanes {
							stats.full++
							if down > 0 {
								stats.fullWhileDown++
							}
						}
					}
				}
				if diff := schedulerDiff(s, ref); diff != "" {
					t.Fatalf("seed %d %s step %d after %s: %s", seed, policy, step, op, diff)
				}
			}
		}
	}
	t.Logf("coverage: %+v", stats)
	// The traces must reach the cases they are meant to cover.
	if stats.backfilled == 0 || stats.full == 0 || stats.fullWhileDown == 0 || stats.longQueue == 0 || stats.ties == 0 {
		t.Errorf("trace coverage too thin: %+v", stats)
	}
}

// TestScheduleAllocs pins the scheduler's allocations: a pass whose head
// is blocked and that starts nothing allocates nothing, and a pass that
// backfills allocates only the slice it returns.
func TestScheduleAllocs(t *testing.T) {
	s := New(EASYBackfill)
	mustSubmit(t, s, 1, 32768, 10*time.Hour) // 64 midplanes until t0+10h
	if got := s.Schedule(t0); len(got) != 1 {
		t.Fatalf("setup: %v", got)
	}
	mustSubmit(t, s, 2, 32768, time.Hour) // blocked head
	for id := int64(3); id < 200; id++ {
		mustSubmit(t, s, id, 32768, 20*time.Hour) // too long to backfill
	}
	if n := testing.AllocsPerRun(100, func() {
		if got := s.Schedule(t0); len(got) != 0 {
			t.Fatalf("started %v", got)
		}
	}); n != 0 {
		t.Errorf("blocked pass allocates %.1f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := s.Submit(1000, 512, time.Hour, t0); err != nil {
			t.Fatal(err)
		}
		if got := s.Schedule(t0); len(got) != 1 || got[0].JobID != 1000 {
			t.Fatalf("backfill started %v", got)
		}
		if err := s.Complete(1000); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("backfill pass allocates %.1f times, want 1 (the returned slice)", n)
	}
}
