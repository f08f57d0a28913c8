package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"syscall"

	"dora/internal/dora"
	"dora/internal/engine"
	"dora/internal/engine/conventional"
	"dora/internal/metrics"
	"dora/internal/sm"
	"dora/internal/trace"
	"dora/internal/wal"
	"dora/internal/wal/clog"
)

// traceSampleEvery is the engine tracer's sampling rate on the traced run.
const traceSampleEvery = 8

// rig is one engine over its own freshly loaded database.
type rig struct {
	engine string // "dora" or "conv"
	traced bool
	s      *sm.SM
	cs     *metrics.CriticalSectionStats
	db     database
	eng    engine.Engine
	dora   *dora.Dora
	conv   *conventional.Engine
	tracer *trace.Tracer
	log    *timedLog
}

// partitions is experiment E5's rule: GOMAXPROCS, clamped to [2, 8].
func partitions() int {
	n := runtime.GOMAXPROCS(0)
	if n < 2 {
		n = 2
	}
	if n > 8 {
		n = 8
	}
	return n
}

// newRig opens a storage manager with the sm.Open defaults (in-memory log
// store and disk), loads w into it and starts the engine. A traced rig
// also times the log manager through timedLog and turns on the engine's
// span tracer.
func newRig(w *workloadDef, engineName string, traced bool) (*rig, error) {
	r := &rig{engine: engineName, traced: traced, cs: &metrics.CriticalSectionStats{}}
	opt := sm.Options{Frames: w.frames, CS: r.cs}
	if traced {
		r.tracer = trace.New(trace.Config{SampleEvery: traceSampleEvery, SlowWriter: io.Discard})
		cl, err := clog.New(wal.NewMemStore(), r.cs)
		if err != nil {
			r.tracer.Close()
			return nil, err
		}
		// sm.Open wires the tracer into the log only when the log is its
		// own *clog.Log; the wrapper hides it, so wire it here.
		cl.SetTracer(r.tracer)
		r.log = &timedLog{Manager: cl, async: cl}
		opt.Log = r.log
		opt.Spans = r.tracer
	}
	s, err := sm.Open(opt)
	if err != nil {
		r.tracer.Close()
		return nil, err
	}
	r.s = s
	db, err := w.load(s)
	if err != nil {
		_ = s.Close()
		r.tracer.Close()
		return nil, fmt.Errorf("load %s: %w", w.name, err)
	}
	r.db = db
	switch engineName {
	case "dora":
		r.dora = dora.New(s, dora.Config{
			PartitionsPerTable: partitions(),
			Domains:            db.domains(),
			Tracer:             r.tracer,
		})
		r.eng = r.dora
	case "conv":
		r.conv = conventional.New(s)
		r.eng = r.conv
	default:
		panic("unknown engine " + engineName)
	}
	return r, nil
}

// finish stops the engine, checks the quiesced database against every
// commit the engine made, and closes the storage manager.
func (r *rig) finish(commits int64) error {
	if err := r.eng.Close(); err != nil {
		return err
	}
	cerr := r.db.check(commits)
	err := r.s.Close()
	r.tracer.Close()
	if cerr != nil {
		return cerr
	}
	return err
}

// close stops the engine and storage manager of a rig that did not run.
func (r *rig) close() {
	_ = r.eng.Close()
	_ = r.s.Close()
	r.tracer.Close()
}

// counters is a snapshot of every public counter the per-layer metrics
// read; a metric is the difference of two snapshots around the window.
type counters struct {
	cs      metrics.SnapshotCS
	log     wal.Stats
	logNext wal.LSN

	hits, misses, evictions, dirtyWrites, snapshotShips int64

	ownedReads, ownedReadsLatched, ownedWrites, ownedWritesLatched int64

	// dora
	executed, waited, lockAcq, ships, asyncResolves, shipRetries, timeouts int64
	// conv
	lmRequests, lmWaits, lmDeadlocks int64

	// traced log wrapper
	appendNS, forceNS int64

	rt runtimeSample
}

func (r *rig) counters() counters {
	var c counters
	c.cs = r.cs.Snapshot()
	c.log = r.s.Log.Stats()
	c.logNext = r.s.Log.Next()
	p := r.s.Pool
	c.hits, c.misses = p.Hits.Load(), p.Misses.Load()
	c.evictions, c.dirtyWrites = p.Evictions.Load(), p.DirtyWrites.Load()
	c.snapshotShips = p.SnapshotShips.Load()
	for _, t := range r.db.tables() {
		h := t.Heap
		c.ownedReads += h.OwnedReads.Load()
		c.ownedReadsLatched += h.OwnedReadsLatched.Load()
		c.ownedWrites += h.OwnedWrites.Load()
		c.ownedWritesLatched += h.OwnedWritesLatched.Load()
	}
	if d := r.dora; d != nil {
		for _, ps := range d.PartitionStats() {
			c.executed += ps.Executed
			c.waited += ps.Waited
		}
		c.lockAcq = d.LockSnapshot().Acquisitions
		ss := d.ShipSnapshot()
		c.ships = ss.BlockingShips + ss.ContShips
		c.asyncResolves = ss.AsyncResolves
		c.shipRetries = ss.ShipRetries
		c.timeouts = d.Timeouts.Load()
	}
	if e := r.conv; e != nil {
		c.lmRequests = e.LM.Requests.Load()
		c.lmWaits = e.LM.Waits.Load()
		c.lmDeadlocks = e.LM.Deadlocks.Load()
	}
	if l := r.log; l != nil {
		c.appendNS = l.appendNS.Load()
		c.forceNS = l.forceNS.Load()
	}
	c.rt = readRuntime()
	return c
}

// runtimeSample holds the Go runtime's and the process's cumulative
// counters.
type runtimeSample struct {
	allocObjects, allocBytes, gcCycles uint64
	schedCounts                        []uint64
	schedBuckets                       []float64
	cpuUS, nvcsw, nivcsw               int64
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeSample {
	samples := make([]rtmetrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		samples[i].Name = n
	}
	rtmetrics.Read(samples)
	h := samples[3].Value.Float64Histogram()
	rs := runtimeSample{
		allocObjects: samples[0].Value.Uint64(),
		allocBytes:   samples[1].Value.Uint64(),
		gcCycles:     samples[2].Value.Uint64(),
		schedCounts:  append([]uint64(nil), h.Counts...),
		schedBuckets: h.Buckets,
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		rs.cpuUS = (int64(ru.Utime.Sec)+int64(ru.Stime.Sec))*1e6 + int64(ru.Utime.Usec) + int64(ru.Stime.Usec)
		rs.nvcsw, rs.nivcsw = int64(ru.Nvcsw), int64(ru.Nivcsw)
	}
	return rs
}

// schedP99US is the 99th percentile of goroutine scheduling latency
// between two samples, as the upper edge of its runtime bucket.
func schedP99US(a, b runtimeSample) float64 {
	if len(a.schedCounts) != len(b.schedCounts) {
		return 0
	}
	var total uint64
	delta := make([]uint64, len(b.schedCounts))
	for i := range delta {
		delta[i] = b.schedCounts[i] - a.schedCounts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	rank := (total*99 + 99) / 100
	var seen uint64
	for i, c := range delta {
		seen += c
		if seen >= rank {
			edge := b.schedBuckets[i+1]
			if math.IsInf(edge, 1) {
				edge = b.schedBuckets[i]
			}
			return edge * 1e6
		}
	}
	return 0
}

// liveHeapMB forces a collection and returns the live heap it marked.
func liveHeapMB() float64 {
	runtime.GC()
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
