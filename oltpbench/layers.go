package main

import (
	"fmt"
	"time"

	"dora/internal/trace"
)

// layerCounters reports the per-layer counters of an untraced window, per
// committed transaction unless the name says otherwise.
func layerCounters(rep *report, e string, d *driveResult) {
	a, b := &d.before, &d.after
	n := d.commits
	perTxn := func(x int64) float64 { return ratio(x, n) }
	perK := func(x int64) float64 { return 1000 * ratio(x, n) }
	base := fmt.Sprintf("per %d commits", n)
	kbase := fmt.Sprintf("per %d attempts", d.attempts)

	rep.add(e+".fail_ratio", ratio(d.failed(), d.attempts), "ratio", fmt.Sprintf("%d of %d attempts", d.failed(), d.attempts))

	if e == "dora" {
		rep.add("dora.engine.actions_per_txn", perTxn(b.executed-a.executed), "1/txn", base)
		rep.add("dora.engine.lock_waits_per_txn", perTxn(b.waited-a.waited), "1/txn", base)
		rep.add("dora.engine.lock_acq_per_txn", perTxn(b.lockAcq-a.lockAcq), "1/txn", base)
		rep.add("dora.engine.ships_per_txn", perTxn(b.ships-a.ships), "1/txn", base)
		rep.add("dora.engine.async_resolves_per_txn", perTxn(b.asyncResolves-a.asyncResolves), "1/txn", base)
		rep.add("dora.engine.ship_retries_per_txn", perTxn(b.shipRetries-a.shipRetries), "1/txn", base)
		rep.add("dora.engine.timeouts_per_kattempt", 1000*ratio(b.timeouts-a.timeouts, d.attempts), "1/kattempt",
			fmt.Sprintf("%d timeouts, %s", b.timeouts-a.timeouts, kbase))
	} else {
		rep.add("conv.lockmgr.requests_per_txn", perTxn(b.lmRequests-a.lmRequests), "1/txn", base)
		rep.add("conv.lockmgr.waits_per_txn", perTxn(b.lmWaits-a.lmWaits), "1/txn", base)
		rep.add("conv.lockmgr.deadlocks_per_kattempt", 1000*ratio(b.lmDeadlocks-a.lmDeadlocks, d.attempts), "1/kattempt",
			fmt.Sprintf("%d deadlocks, %s", b.lmDeadlocks-a.lmDeadlocks, kbase))
	}

	rep.add(e+".cs.lockmgr_per_txn", perTxn(b.cs.LockMgr-a.cs.LockMgr), "1/txn", base)
	rep.add(e+".cs.latch_per_txn", perTxn(b.cs.Latch-a.cs.Latch), "1/txn", base)
	rep.add(e+".cs.index_latch_per_txn", perTxn(b.cs.IndexLatch-a.cs.IndexLatch), "1/txn", base)
	rep.add(e+".cs.frame_latch_per_txn", perTxn(b.cs.FrameLatch-a.cs.FrameLatch), "1/txn", base)
	rep.add(e+".cs.log_per_txn", perTxn(b.cs.Log-a.cs.Log), "1/txn", base)
	rep.add(e+".cs.contended_per_txn", perTxn(b.cs.Contended-a.cs.Contended), "1/txn", base)

	forces := b.log.Forces - a.log.Forces
	appends := b.log.Appends - a.log.Appends
	rep.add(e+".clog.bytes_per_txn", perTxn(int64(b.logNext-a.logNext)), "B/txn", base)
	rep.add(e+".clog.syncs_per_ktxn", perK(b.log.Syncs-a.log.Syncs), "1/ktxn", base)
	rep.add(e+".clog.grouped_ratio", ratio(b.log.GroupedCommits-a.log.GroupedCommits, forces), "ratio",
		fmt.Sprintf("of %d forces", forces))
	rep.add(e+".clog.consolidated_ratio", ratio(b.log.Consolidated-a.log.Consolidated, appends), "ratio",
		fmt.Sprintf("of %d appends", appends))

	hits, misses := b.hits-a.hits, b.misses-a.misses
	rep.add(e+".buffer.hit_ratio", ratio(hits, hits+misses), "ratio", fmt.Sprintf("of %d fetches", hits+misses))
	rep.add(e+".buffer.evictions_per_txn", perTxn(b.evictions-a.evictions), "1/txn", base)
	rep.add(e+".buffer.dirty_writes_per_txn", perTxn(b.dirtyWrites-a.dirtyWrites), "1/txn", base)
	if e == "dora" {
		rep.add("dora.buffer.snapshot_ships_per_ktxn", perK(b.snapshotShips-a.snapshotShips), "1/ktxn", base)
		// Owner reads and writes that skipped the frame latch, as a share
		// of all owner reads and writes.
		or, orl := b.ownedReads-a.ownedReads, b.ownedReadsLatched-a.ownedReadsLatched
		ow, owl := b.ownedWrites-a.ownedWrites, b.ownedWritesLatched-a.ownedWritesLatched
		rep.add("dora.storage.owned_read_ratio", ratio(or-orl, or), "ratio", fmt.Sprintf("of %d owner reads", or))
		rep.add("dora.storage.owned_write_ratio", ratio(ow-owl, ow), "ratio", fmt.Sprintf("of %d owner writes", ow))
	}

	rep.add(e+".sm.spec_rollback_ratio", ratio(d.specs, d.specs+d.commits), "ratio",
		fmt.Sprintf("%d of %d completed", d.specs, d.specs+d.commits))

	ra, rb := a.rt, b.rt
	rep.add(e+".go.allocs_per_txn", perTxn(int64(rb.allocObjects-ra.allocObjects)), "1/txn", base)
	rep.add(e+".go.alloc_bytes_per_txn", perTxn(int64(rb.allocBytes-ra.allocBytes)), "B/txn", base)
	rep.add(e+".go.gc_per_ktxn", perK(int64(rb.gcCycles-ra.gcCycles)), "1/ktxn", base)
	rep.add(e+".go.sched_latency_p99_us", schedP99US(ra, rb), "us", "runtime bucket upper edge")
	rep.add(e+".proc.cpu_us_per_txn", perTxn(rb.cpuUS-ra.cpuUS), "us/txn", base)
	rep.add(e+".proc.vcsw_per_txn", perTxn(rb.nvcsw-ra.nvcsw), "1/txn", base)
	rep.add(e+".proc.ivcsw_per_txn", perTxn(rb.nivcsw-ra.nivcsw), "1/txn", base)
}

// layerSpans reports the traced window: the benchmark's own spans around
// Exec, action bodies and the log manager, and for DORA the engine
// tracer's stages and the inbox-length samples.
func layerSpans(rep *report, e string, d *driveResult) {
	tr := d.trace
	s := tr.spans
	us := func(x time.Duration) float64 { return ratioF(float64(x)/1e3, float64(s.n)) }
	base := fmt.Sprintf("mean of %d committed txns", s.n)
	rep.add(e+".span.dispatch_us", us(s.dispatch), "us/txn", base)
	rep.add(e+".span.exec_us", us(s.exec), "us/txn", base)
	rep.add(e+".span.gap_us", us(s.gap), "us/txn", base)
	rep.add(e+".span.commit_us", us(s.commitDur), "us/txn", base)
	rep.add(e+".span.log_append_ns", ratio(d.after.appendNS-d.before.appendNS, d.commits), "ns/txn",
		fmt.Sprintf("per %d commits", d.commits))
	rep.add(e+".span.force_wait_us", ratio(d.after.forceNS-d.before.forceNS, d.commits)/1e3, "us/txn",
		fmt.Sprintf("per %d commits", d.commits))
	if e != "dora" {
		return
	}
	sampled := int64(0)
	if tr.stages != nil {
		sampled = tr.stages.Sampled
	}
	sbase := fmt.Sprintf("per txn over %d sampled", sampled)
	for _, st := range []struct {
		name  string
		stage trace.Stage
	}{
		{"queue_wait", trace.StageQueueWait},
		{"commit_queue", trace.StageCommitQueue},
		{"flush_wait", trace.StageFlushWait},
		{"lock_release", trace.StageLockRelease},
		{"ship", trace.StageShip},
		{"kont", trace.StageKont},
	} {
		rep.add("dora.stage."+st.name+"_us", tr.stagePerTxnUS(st.stage), "us/txn", sbase)
	}
	rep.add("dora.engine.queue_len_p99", tr.queueP99, "count", "inbox length, sampled each ms per partition")
}
