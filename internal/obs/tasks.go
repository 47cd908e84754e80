package obs

// Background-task tracing. Long-running maintenance work — GC passes with
// their mark/sweep/rewrite phases — runs outside any query, so
// query traces never see it. BeginTask gives such work its own trace and a
// place in a small package-level ring that flord serves at /v1/debug/tasks,
// answering "what has the daemon been doing to itself?" without logs.
//
// This is a rare path (a handful of task starts per minute at most), so
// unlike the metric hot paths it resolves handles lazily and takes a lock;
// the ring is bounded so an idle daemon holds a fixed amount of history.

import (
	"sync"
	"time"
)

// taskHistory bounds the completed-task ring.
const taskHistory = 64

// TaskRecord is one background task as served at /v1/debug/tasks: identity,
// timing, and the task's phase spans.
type TaskRecord struct {
	Name        string `json:"name"`
	StartUnixNs int64  `json:"start_unix_ns"`
	DurNs       int64  `json:"dur_ns"`
	Done        bool   `json:"done"`
	Spans       []Span `json:"spans,omitempty"`
}

// ActiveTask is a background task in flight. Record phases on its Trace;
// call End exactly once when the task finishes.
type ActiveTask struct {
	name  string
	start time.Time
	tr    *Trace
	once  sync.Once
}

var (
	tasksMu        sync.Mutex
	tasksActive    []*ActiveTask
	tasksCompleted []TaskRecord // newest last, bounded by taskHistory
)

// BeginTask registers a background task and returns its handle. The task is
// visible in Tasks() immediately (Done=false) and moves to the completed
// ring on End.
func BeginTask(name string) *ActiveTask {
	t := &ActiveTask{name: name, start: time.Now(), tr: NewTrace()}
	tasksMu.Lock()
	tasksActive = append(tasksActive, t)
	tasksMu.Unlock()
	return t
}

// Trace returns the task's trace for phase spans (nil-safe: a nil task
// returns a nil trace, which no-ops).
func (t *ActiveTask) Trace() *Trace {
	if t == nil {
		return nil
	}
	return t.tr
}

// End completes the task: moves it from the active list to the completed
// ring and records the task-run metrics. Safe to call more than once; only
// the first call has effect.
func (t *ActiveTask) End() {
	if t == nil {
		return
	}
	t.once.Do(func() {
		dur := time.Since(t.start)
		rec := TaskRecord{
			Name:        t.name,
			StartUnixNs: t.start.UnixNano(),
			DurNs:       dur.Nanoseconds(),
			Done:        true,
			Spans:       t.tr.Spans(),
		}
		tasksMu.Lock()
		for i, a := range tasksActive {
			if a == t {
				tasksActive = append(tasksActive[:i], tasksActive[i+1:]...)
				break
			}
		}
		tasksCompleted = append(tasksCompleted, rec)
		if len(tasksCompleted) > taskHistory {
			tasksCompleted = tasksCompleted[len(tasksCompleted)-taskHistory:]
		}
		tasksMu.Unlock()
		C(MObsTaskRuns, L("task", t.name)).Inc()
		H(MObsTaskSeconds, L("task", t.name)).ObserveNs(dur.Nanoseconds())
	})
}

// Tasks snapshots the background-task history: tasks still in flight first
// (Done=false, DurNs = elapsed so far), then completed tasks newest-first.
func Tasks() []TaskRecord {
	now := time.Now()
	tasksMu.Lock()
	defer tasksMu.Unlock()
	out := make([]TaskRecord, 0, len(tasksActive)+len(tasksCompleted))
	for _, a := range tasksActive {
		out = append(out, TaskRecord{
			Name:        a.name,
			StartUnixNs: a.start.UnixNano(),
			DurNs:       now.Sub(a.start).Nanoseconds(),
			Spans:       a.tr.Spans(),
		})
	}
	for i := len(tasksCompleted) - 1; i >= 0; i-- {
		out = append(out, tasksCompleted[i])
	}
	return out
}

// resetTasksForTest clears the package task state (tests only).
func resetTasksForTest() {
	tasksMu.Lock()
	tasksActive, tasksCompleted = nil, nil
	tasksMu.Unlock()
}
