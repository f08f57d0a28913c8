// Command oltpbench is the repository's end-to-end benchmark. It loads one
// OLTP workload (tatp-ro, tpcb or tpcc) into two freshly opened storage
// managers, runs it on both execution engines — DORA and the conventional
// thread-to-transaction baseline — as a closed loop of one session per
// CPU, checks each database for consistency afterwards, and prints its
// metrics by name with their units. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	go build -o oltpbench . && ./oltpbench --workload tpcb --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer counters of an untraced window and the spans of a separate
// traced window. See README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"time"
)

// rounds is how many times the end-to-end run sets up both engines
// afresh and measures them; every end-to-end figure is the median over
// the rounds. A whole window can run in a slow mode (about one DORA window
// in ten ran at half its usual throughput on a shared 2-vCPU machine), and
// the median over fresh instances is robust to one such round.
const rounds = 3

// slicesPerRound is how many slices each engine's window in a round is cut
// into; a round's tps and latency percentiles are medians over its slices.
const slicesPerRound = 5

func main() { os.Exit(run()) }

func run() int {
	wname := flag.String("workload", "", "workload: tatp-ro, tpcb or tpcc")
	seed := flag.Int64("seed", 1, "workload input seed")
	seconds := flag.Int("seconds", 10, "measured seconds, split over the engines' windows")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.Parse()
	w := findWorkload(*wname)
	if w == nil {
		fmt.Fprintf(os.Stderr, "oltpbench: unknown workload %q\n", *wname)
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "oltpbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	b := &bench{w: w, seed: *seed, sessions: runtime.NumCPU(), seconds: time.Duration(*seconds) * time.Second}
	var rep *report
	var err error
	if *traceFlag == 0 {
		rep, err = b.endToEnd()
	} else {
		rep, err = b.perLayer()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "oltpbench:", err)
		return 1
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "oltpbench:", err)
		return 1
	}
	if !rep.correct {
		return 1
	}
	return 0
}

type bench struct {
	w        *workloadDef
	seed     int64
	sessions int
	seconds  time.Duration
}

var engines = [2]string{"dora", "conv"}

// setup loads both databases and starts both engines. It returns the
// time that took and the live heap each engine's database and engine
// added.
func (b *bench) setup() (rigs [2]*rig, setupS float64, memMB [2]float64, err error) {
	var took time.Duration
	for j, e := range engines {
		h0 := liveHeapMB()
		t0 := time.Now()
		r, err := newRig(b.w, e, false)
		took += time.Since(t0)
		if err != nil {
			if j == 1 {
				rigs[0].close()
			}
			return [2]*rig{}, 0, memMB, err
		}
		rigs[j] = r
		memMB[j] = liveHeapMB() - h0
	}
	for _, r := range rigs {
		if err := r.db.baseline(); err != nil {
			rigs[0].close()
			rigs[1].close()
			return [2]*rig{}, 0, memMB, err
		}
	}
	return rigs, took.Seconds(), memMB, nil
}

// measure drives r for a window of nSlices slices after a warm-up, then
// stops it and checks its database.
func (b *bench) measure(r *rig, window time.Duration, nSlices int, rep *report) (*driveResult, error) {
	warm := window / 4
	if warm < 250*time.Millisecond {
		warm = 250 * time.Millisecond
	}
	if warm > time.Second {
		warm = time.Second
	}
	// Start every window from a freshly collected heap, so set-up garbage
	// and the previous engine's database do not set when the first
	// collection lands.
	runtime.GC()
	d, err := drive(r, b.sessions, b.seed, warm, nSlices, window/time.Duration(nSlices))
	if err != nil {
		return nil, err
	}
	if d.err != nil {
		rep.fail(d.err)
	}
	if err := r.finish(d.allCommits); err != nil {
		rep.fail(fmt.Errorf("%s %s check: %w", r.engine, b.w.name, err))
	}
	rep.attempted += d.started
	rep.failed += d.abandoned
	rep.note("%-4s %s: window %.2fs, %d commits, %d spec rollbacks, %d attempts, %d failed attempts (dora timeout %d, lockmgr timeout %d, deadlock %d)",
		r.engine, tagOf(r), d.window.Seconds(), d.commits, d.specs, d.attempts, d.failed(), d.failures[0], d.failures[1], d.failures[2])
	return d, nil
}

func tagOf(r *rig) string {
	if r.traced {
		return "traced"
	}
	return "untraced"
}

// engineFigures collects one engine's end-to-end figures over the rounds.
type engineFigures struct {
	tps, p50, p99, mem []float64
	attempts, failed   int64
	n, minN            int64 // commits sampled; fewest in any slice
}

func (b *bench) endToEnd() (*report, error) {
	rep := newReport()
	window := b.seconds / (2 * rounds)
	var setups []float64
	var figs [2]engineFigures
	for k := 0; k < rounds; k++ {
		rigs, setupS, memMB, err := b.setup()
		if err != nil {
			return nil, err
		}
		if k == 0 {
			rep.note("workload %s: %d sessions (closed loop), %d DORA partitions per table, %d frames, %d heap pages loaded; %d rounds of %.2fs windows",
				b.w.name, b.sessions, partitions(), b.w.frames, heapPages(rigs[0].db), rounds, window.Seconds())
		}
		setups = append(setups, setupS)
		for i := range rigs {
			d, err := b.measure(rigs[i], window, slicesPerRound, rep)
			if err != nil {
				return nil, err
			}
			rigs[i] = nil // let its database go before the next engine runs
			f := &figs[i]
			f.tps = append(f.tps, d.medianOverSlices(func(sl *slice) float64 { return float64(sl.commits) / sl.dur.Seconds() }))
			f.p50 = append(f.p50, d.medianOverSlices(func(sl *slice) float64 { return sl.lat.quantileUS(0.50) }))
			f.p99 = append(f.p99, d.medianOverSlices(func(sl *slice) float64 { return sl.lat.quantileUS(0.99) }))
			f.mem = append(f.mem, memMB[i])
			f.attempts += d.attempts
			f.failed += d.failed()
			f.n += d.commits
			for _, sl := range d.slices {
				if f.minN == 0 || sl.lat.n < f.minN {
					f.minN = sl.lat.n
				}
			}
		}
	}
	for i, e := range engines {
		f := &figs[i]
		per := fmt.Sprintf("median of %d rounds, each the median of %d slices; n=%d commits, >= %d per slice",
			rounds, slicesPerRound, f.n, f.minN)
		rep.add(e+".tps", median(f.tps), "1/s", fmt.Sprintf("%s; rounds %s", per, list(f.tps)))
		rep.add(e+".p50_us", median(f.p50), "us", fmt.Sprintf("%s; rounds %s", per, list(f.p50)))
		rep.add(e+".p99_us", median(f.p99), "us", fmt.Sprintf("%s, >= %d beyond p99 per slice; rounds %s",
			per, f.minN-int64(math.Ceil(0.99*float64(f.minN))), list(f.p99)))
		rep.add(e+".success_ratio", 1-ratio(f.failed, f.attempts), "ratio", fmt.Sprintf("%d of %d attempts failed", f.failed, f.attempts))
		rep.add(e+".mem_mb", median(f.mem), "MB", fmt.Sprintf("live heap after set-up; rounds %s", list(f.mem)))
	}
	rep.add("setup_s", median(setups), "s", fmt.Sprintf("set-up of both engines; rounds %s", list(setups)))
	return rep, nil
}

// list formats a round's figures for a report line.
func list(xs []float64) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += " "
		}
		out += strconv.FormatFloat(x, 'f', 2, 64)
	}
	return out
}

func (b *bench) perLayer() (*report, error) {
	rigs, _, _, err := b.setup()
	if err != nil {
		return nil, err
	}
	rep := newReport()
	window := b.seconds / 4
	rep.note("workload %s: %d sessions (closed loop), %d DORA partitions per table, %d frames, %d heap pages loaded; windows of %.2fs",
		b.w.name, b.sessions, partitions(), b.w.frames, heapPages(rigs[0].db), window.Seconds())
	var plain [2]*driveResult
	for i := range rigs {
		if plain[i], err = b.measure(rigs[i], window, 1, rep); err != nil {
			return nil, err
		}
		rigs[i] = nil
		layerCounters(rep, engines[i], plain[i])
	}
	for i, e := range engines {
		r, err := newRig(b.w, e, true)
		if err != nil {
			return nil, err
		}
		if err := r.db.baseline(); err != nil {
			r.close()
			return nil, err
		}
		d, err := b.measure(r, window, 1, rep)
		if err != nil {
			return nil, err
		}
		layerSpans(rep, e, d)
		untraced := float64(plain[i].commits) / plain[i].window.Seconds()
		traced := float64(d.commits) / d.window.Seconds()
		rep.add(e+".trace_overhead_pct", 100*(1-ratioF(traced, untraced)), "%",
			fmt.Sprintf("traced %.0f vs untraced %.0f tps", traced, untraced))
	}
	return rep, nil
}

func ratio(a, b int64) float64 { return ratioF(float64(a), float64(b)) }

func ratioF(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// report collects the metrics and the human-readable lines printed before
// the JSON result.
type report struct {
	correct   bool
	attempted int64
	failed    int64
	values    map[string]metricValue
	lines     []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport() *report { return &report{correct: true, values: map[string]metricValue{}} }

func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) fail(err error) {
	r.correct = false
	r.note("FAILED: %v", err)
}

// add records a metric; detail (sample counts, bases) goes to its line.
func (r *report) add(name string, v float64, unit, detail string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.values[name] = metricValue{Value: v, Unit: unit}
	line := fmt.Sprintf("%-36s %14.4f %-10s", name, v, unit)
	if detail != "" {
		line += " (" + detail + ")"
	}
	r.lines = append(r.lines, line)
}

func (r *report) print(w io.Writer) error {
	for _, l := range r.lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	out, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.values})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}
