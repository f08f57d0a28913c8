package main

import (
	"sort"
	"sync/atomic"
	"time"

	"dora/internal/dora"
	"dora/internal/trace"
	"dora/internal/wal"
	"dora/internal/xct"
)

// timedLog wraps the log manager on the traced run, timing Append and the
// wait from a force request to its durability. It forwards
// wal.AsyncForcer: without it sm's commit would fall back to a blocking
// Force.
type timedLog struct {
	wal.Manager
	async wal.AsyncForcer

	appendNS atomic.Int64
	forceNS  atomic.Int64
}

func (l *timedLog) Append(rec *wal.Record) wal.LSN {
	t0 := time.Now()
	lsn := l.Manager.Append(rec)
	l.appendNS.Add(int64(time.Since(t0)))
	return lsn
}

func (l *timedLog) Force(lsn wal.LSN) error {
	t0 := time.Now()
	err := l.Manager.Force(lsn)
	l.forceNS.Add(int64(time.Since(t0)))
	return err
}

func (l *timedLog) ForceAsync(lsn wal.LSN, fn func(error)) {
	t0 := time.Now()
	l.async.ForceAsync(lsn, func(err error) {
		l.forceNS.Add(int64(time.Since(t0)))
		fn(err)
	})
}

// actionSpan is one action body's execution interval.
type actionSpan struct{ start, end time.Time }

// spanAcc sums the partition of committed transactions' Exec wall time:
// dispatch (Exec entry to the first action body), exec (the union of
// action-body intervals), gap (time between the first body's start and
// the last body's end that no body covers: lock waits, hand-offs,
// suspended ships) and commit (last body's end to Exec's return).
type spanAcc struct {
	n                              int64
	dispatch, exec, gap, commitDur time.Duration
}

func (a *spanAcc) merge(o *spanAcc) {
	a.n += o.n
	a.dispatch += o.dispatch
	a.exec += o.exec
	a.gap += o.gap
	a.commitDur += o.commitDur
}

// sessionTrace times one session's transactions on the traced run.
type sessionTrace struct {
	slots []actionSpan
	acc   spanAcc
}

func newSessionTrace() *sessionTrace { return &sessionTrace{slots: make([]actionSpan, 0, 64)} }

// wrap replaces each action's Run with a timed call recording into its
// own slot; distinct slots let a phase's actions run in parallel on
// different workers.
func (t *sessionTrace) wrap(flow *xct.Flow) {
	n := flow.NumActions()
	if cap(t.slots) < n {
		t.slots = make([]actionSpan, n)
	}
	t.slots = t.slots[:n]
	for i := range t.slots {
		t.slots[i] = actionSpan{}
	}
	k := 0
	for pi := range flow.Phases {
		for _, a := range flow.Phases[pi].Actions {
			if a.Run != nil {
				a.Run = timedRun(a.Run, &t.slots[k])
			}
			k++
		}
	}
}

func timedRun(run func(*xct.Env) error, sp *actionSpan) func(*xct.Env) error {
	return func(env *xct.Env) error {
		start := time.Now()
		err := run(env)
		sp.start, sp.end = start, time.Now()
		return err
	}
}

// commit folds the committed attempt [execAt, end] into the partition.
// Exec has returned, so every body ran and its slot is final.
func (t *sessionTrace) commit(execAt, end time.Time) {
	ran := t.slots[:0]
	for _, sp := range t.slots {
		if !sp.start.IsZero() {
			ran = append(ran, sp)
		}
	}
	t.acc.n++
	if len(ran) == 0 {
		t.acc.commitDur += end.Sub(execAt)
		return
	}
	sort.Slice(ran, func(i, j int) bool { return ran[i].start.Before(ran[j].start) })
	first, last := ran[0].start, ran[0].end
	var union time.Duration
	cs, ce := ran[0].start, ran[0].end
	for _, sp := range ran[1:] {
		if sp.end.After(last) {
			last = sp.end
		}
		if sp.start.After(ce) {
			union += ce.Sub(cs)
			cs, ce = sp.start, sp.end
		} else if sp.end.After(ce) {
			ce = sp.end
		}
	}
	union += ce.Sub(cs)
	t.acc.dispatch += first.Sub(execAt)
	t.acc.exec += union
	t.acc.gap += last.Sub(first) - union
	t.acc.commitDur += end.Sub(last)
}

// queueSampler samples every DORA partition's inbox length each
// millisecond of the traced window.
type queueSampler struct {
	d       *dora.Dora
	quit    chan struct{}
	done    chan struct{}
	samples []int
}

func startQueueSampler(d *dora.Dora) *queueSampler {
	if d == nil {
		return nil
	}
	q := &queueSampler{d: d, quit: make(chan struct{}), done: make(chan struct{}), samples: make([]int, 0, 1<<16)}
	go q.loop()
	return q
}

func (q *queueSampler) loop() {
	defer close(q.done)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-q.quit:
			return
		case <-tick.C:
			for _, ps := range q.d.PartitionStats() {
				q.samples = append(q.samples, ps.QueueLen)
			}
		}
	}
}

// stop ends sampling and returns the samples.
func (q *queueSampler) stop() []int {
	if q == nil {
		return nil
	}
	close(q.quit)
	<-q.done
	return q.samples
}

// traceResult is the traced window's span data.
type traceResult struct {
	spans    spanAcc
	stages   *trace.StageLatency
	queueP99 float64
}

func (r *rig) traceResult(queue []int) *traceResult {
	tr := &traceResult{stages: r.tracer.Snapshot()}
	if len(queue) > 0 {
		sort.Ints(queue)
		tr.queueP99 = float64(queue[(len(queue)*99)/100])
	}
	return tr
}

// stagePerTxnUS estimates a tracer stage's time per transaction: the
// stage's sampled total over the sampled transactions. Engine-scoped
// stages (ships, konts) are sampled at the same 1/N rate as transactions.
func (tr *traceResult) stagePerTxnUS(stage trace.Stage) float64 {
	if tr.stages == nil || tr.stages.Sampled == 0 {
		return 0
	}
	name := stage.String()
	for _, sv := range tr.stages.Stages {
		if sv.Stage == name {
			return float64(sv.Count) * sv.MeanUS / float64(tr.stages.Sampled)
		}
	}
	return 0
}
