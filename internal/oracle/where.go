package oracle

import (
	"repro/internal/core"
	"repro/internal/iolog"
	"repro/internal/joblog"
	"repro/internal/raslog"
	"repro/internal/sel"
	"repro/internal/tasklog"
)

// MaterializeWhere builds the filtered dataset a predicate describes — the
// selected jobs with their tasks and I/O records, and the selected events —
// as a fresh core.Dataset. Scanning it is the copy-then-scan reference for
// core.FusedScanWhere's predicate pushdown.
func MaterializeWhere(d *core.Dataset, e sel.Expr) (*core.Dataset, error) {
	jobSel, eventSel, err := d.CompileWhere(e)
	if err != nil {
		return nil, err
	}
	jobs, tasks, io := d.Jobs, d.Tasks, d.IO
	if jobSel != nil {
		jobs = make([]joblog.Job, 0, jobSel.Cardinality())
		tasks, io = []tasklog.Task(nil), []iolog.Record(nil)
		jobSel.Iterate(func(row uint32) bool {
			j := d.Jobs[row]
			jobs = append(jobs, j)
			tasks = append(tasks, d.TasksOf(j.ID)...)
			if r, ok := d.IOOf(j.ID); ok {
				io = append(io, r)
			}
			return true
		})
	}
	events := d.Events
	if eventSel != nil {
		events = make([]raslog.Event, 0, eventSel.Cardinality())
		eventSel.Iterate(func(row uint32) bool {
			events = append(events, d.Events[row])
			return true
		})
	}
	return core.NewDataset(jobs, tasks, events, io)
}
