package main

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dora/internal/dora"
	"dora/internal/engine"
	"dora/internal/lockmgr"
	"dora/internal/sm"
	"dora/internal/workload"
	"dora/internal/workload/tpcc"
)

// outcome classifies one Exec attempt.
type outcome int

const (
	committed outcome = iota
	// specRollback is a rollback the workload specifies (missing or
	// duplicate key, TPC-C's invalid item): a completed transaction,
	// never retried.
	specRollback
	// concurrencyFailure is a lock timeout or deadlock victim: counted
	// against attempts, then retried with the same inputs.
	concurrencyFailure
	// unexpected is any other error; it fails the run.
	unexpected
)

func classify(err error) outcome {
	switch {
	case err == nil:
		return committed
	case errors.Is(err, sm.ErrNotFound), errors.Is(err, sm.ErrDuplicate), errors.Is(err, tpcc.ErrInvalidItem):
		return specRollback
	case errors.Is(err, dora.ErrLocalTimeout), errors.Is(err, lockmgr.ErrTimeout), errors.Is(err, lockmgr.ErrDeadlock):
		return concurrencyFailure
	}
	return unexpected
}

// drainTimeout bounds the wait for sessions to finish their last
// transaction once the window has ended; an engine that hangs fails the
// run instead of the run never ending.
const drainTimeout = 30 * time.Second

// maxAttempts bounds the retries of one transaction; a transaction that
// still fails is a failed operation.
const maxAttempts = 100

// The measured window is divided into slices; sessions read the current
// slice from a shared atomic: slotWarm before the window, 0..n-1 inside
// it, n once it has ended (sessions then finish their transaction and
// stop). Only outcomes that complete inside the window enter the metrics.
const slotWarm int32 = -1

// splitmix is a re-seedable rand.Source64: reseeding it to a
// transaction's seed replays that transaction's inputs on a retry.
type splitmix struct{ s uint64 }

func (x *splitmix) Uint64() uint64 {
	x.s += 0x9e3779b97f4a7c15
	z := x.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (x *splitmix) Int63() int64    { return int64(x.Uint64() >> 1) }
func (x *splitmix) Seed(seed int64) { x.s = uint64(seed) }

// latHist is a log-linear latency histogram: exact below 128 ns, then
// 128 buckets per power of two, so no bucket is wider than 1/128 (0.8%)
// of its value. Fixed size: recording allocates nothing.
type latHist struct {
	n      int64
	counts [64 * 128]uint64
}

func latBucket(ns uint64) int {
	if ns < 128 {
		return int(ns)
	}
	e := bits.Len64(ns) - 8
	return (e+1)*128 + int(ns>>uint(e)) - 128
}

// latValue is the midpoint of bucket b, in nanoseconds.
func latValue(b int) float64 {
	if b < 128 {
		return float64(b)
	}
	e := b/128 - 1
	lo := float64(uint64(b%128+128) << uint(e))
	return lo + float64(uint64(1)<<uint(e))/2
}

func (h *latHist) add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[latBucket(uint64(d))]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	h.n += o.n
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

// quantileUS returns the q-quantile in microseconds (nearest rank).
func (h *latHist) quantileUS(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			return latValue(b) / 1e3
		}
	}
	return 0
}

// session is one closed-loop client: it calls Exec with no think time.
type session struct {
	id    int
	seeds splitmix // draws one seed per transaction
	src   splitmix // the transaction's input stream
	jit   splitmix // retry back-off jitter
	rng   *rand.Rand
	tr    *sessionTrace // non-nil on the traced run

	// Counted inside the window only; lat and commits per slice.
	lat       []latHist
	commits   []int64
	attempts  int64
	specs     int64
	failures  [3]int64 // dora local timeout, lockmgr timeout, deadlock
	started   int64
	abandoned int64

	// allCommits counts every commit, warm-up and drain included (the
	// consistency checks need them all).
	allCommits int64
	err        error
}

func failureKind(err error) int {
	switch {
	case errors.Is(err, dora.ErrLocalTimeout):
		return 0
	case errors.Is(err, lockmgr.ErrTimeout):
		return 1
	}
	return 2
}

// backoff sleeps before retrying a failed attempt: a random time below a
// bound that doubles with each failure of the same transaction (20 µs up
// to 1.28 ms). Without it, two sessions whose transactions deadlock each
// other retry in lockstep and deadlock again, indefinitely.
func (s *session) backoff(try int) {
	if try > 6 {
		try = 6
	}
	bound := uint64(20*time.Microsecond) << uint(try)
	time.Sleep(time.Duration(s.jit.Uint64() % bound))
}

func (s *session) run(eng engine.Engine, mix workload.Mix, slot *atomic.Int32) {
	n := int32(len(s.commits))
	for slot.Load() < n {
		seed := s.seeds.Uint64()
		t0 := time.Now()
		k0 := slot.Load()
		startedIn := k0 >= 0 && k0 < n
		if startedIn {
			s.started++
		}
		for try := 1; ; try++ {
			s.src.s = seed
			tt := mix.Pick(s.rng)
			flow := tt.Build(s.rng)
			if s.tr != nil {
				s.tr.wrap(flow)
			}
			execAt := time.Now()
			err := eng.Exec(s.id, flow)
			end := time.Now()
			k := slot.Load()
			in := k >= 0 && k < n
			if in {
				s.attempts++
			}
			switch classify(err) {
			case committed:
				s.allCommits++
				if in {
					s.commits[k]++
					s.lat[k].add(end.Sub(t0))
					if s.tr != nil {
						s.tr.commit(execAt, end)
					}
				}
			case specRollback:
				if in {
					s.specs++
				}
			case concurrencyFailure:
				if in {
					s.failures[failureKind(err)]++
				}
				if try < maxAttempts {
					s.backoff(try)
					continue
				}
				if startedIn {
					s.abandoned++
				}
				s.err = fmt.Errorf("%s: %s failed %d attempts: %w", eng.Name(), tt.Name, try, err)
				return
			default:
				if startedIn {
					s.abandoned++
				}
				s.err = fmt.Errorf("%s: %s: unexpected error: %w", eng.Name(), tt.Name, err)
				return
			}
			break
		}
	}
}

// driveResult is what one closed-loop run measured.
type driveResult struct {
	window     time.Duration
	slices     []slice
	attempts   int64
	commits    int64
	specs      int64
	failures   [3]int64
	started    int64
	abandoned  int64
	allCommits int64
	before     counters
	after      counters
	trace      *traceResult
	err        error
}

// slice is one sub-window's commits and commit latencies.
type slice struct {
	dur     time.Duration
	commits int64
	lat     latHist
}

func (d *driveResult) failed() int64 { return d.failures[0] + d.failures[1] + d.failures[2] }

// medianOverSlices returns the median of f over the slices.
func (d *driveResult) medianOverSlices(f func(*slice) float64) float64 {
	xs := make([]float64, len(d.slices))
	for i := range d.slices {
		xs[i] = f(&d.slices[i])
	}
	return median(xs)
}

// drive runs nSessions closed-loop sessions against r for warm, then for
// a window of nSlices slices of sliceDur each, reading r's counters at
// the window's edges. Per-session input seeds derive from seed alone, so
// both engines see the same inputs.
func drive(r *rig, nSessions int, seed int64, warm time.Duration, nSlices int, sliceDur time.Duration) (*driveResult, error) {
	mix := r.db.mix()
	sessions := make([]*session, nSessions)
	var slot atomic.Int32
	slot.Store(slotWarm)
	var wg sync.WaitGroup
	for i := range sessions {
		// Each session's seed stream starts at a hashed point, so the
		// sessions' streams do not overlap.
		s := &session{id: i, lat: make([]latHist, nSlices), commits: make([]int64, nSlices)}
		root := splitmix{s: uint64(seed)}
		for j := 0; j <= i; j++ {
			s.seeds.s = root.Uint64()
		}
		s.jit.s = s.seeds.s ^ 0x5851f42d4c957f2d
		s.rng = rand.New(&s.src)
		if r.traced {
			s.tr = newSessionTrace()
		}
		sessions[i] = s
	}
	res := &driveResult{slices: make([]slice, nSlices)}
	for _, s := range sessions {
		wg.Add(1)
		go func(s *session) {
			defer wg.Done()
			s.run(r.eng, mix, &slot)
		}(s)
	}
	time.Sleep(warm)
	var sampler *queueSampler
	if r.traced {
		r.tracer.Reset()
		sampler = startQueueSampler(r.dora)
	}
	res.before = r.counters()
	start := time.Now()
	at := start
	for k := 0; k < nSlices; k++ {
		slot.Store(int32(k))
		time.Sleep(sliceDur)
		now := time.Now()
		res.slices[k].dur = now.Sub(at)
		at = now
	}
	slot.Store(int32(nSlices))
	res.window = at.Sub(start)
	res.after = r.counters()
	if r.traced {
		res.trace = r.traceResult(sampler.stop())
	}
	stopped := make(chan struct{})
	go func() {
		wg.Wait()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(drainTimeout):
		return nil, fmt.Errorf("%s: sessions still in Exec %v after the window ended", r.engine, drainTimeout)
	}
	for _, s := range sessions {
		for k := range res.slices {
			res.slices[k].commits += s.commits[k]
			res.slices[k].lat.merge(&s.lat[k])
			res.commits += s.commits[k]
		}
		res.attempts += s.attempts
		res.specs += s.specs
		res.started += s.started
		res.abandoned += s.abandoned
		res.allCommits += s.allCommits
		for k := range s.failures {
			res.failures[k] += s.failures[k]
		}
		if s.tr != nil {
			res.trace.spans.merge(&s.tr.acc)
		}
		if s.err != nil && res.err == nil {
			res.err = s.err
		}
	}
	return res, nil
}
