package main

import (
	"context"
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cutfit"
)

// A workload is one closed-loop traffic mix: how it is set up, how many
// callers it runs and which op kinds it issues, in what shares.
type workload struct {
	name    string
	clients int
	// cycle is the length of one whole round of the mix: each kind of op
	// in its exact share. It is a multiple of 4, the period in which the
	// traced run alternates two untraced and two traced ops.
	cycle int
	// kinds lists the workload's op kinds with their shares of its ops.
	kinds []kindShare
	setup func(ctx context.Context, cfg config, text []byte) (instance, error)
}

type kindShare struct {
	kind  string
	share float64
}

var workloads = map[string]workload{
	"cold-start": {
		name: "cold-start", clients: 1, cycle: 4,
		kinds: []kindShare{{"cold", 0.5}, {"restore", 0.5}},
		setup: setupColdStart,
	},
	"warm-mix": {
		name: "warm-mix", clients: warmClients, cycle: warmCycle,
		kinds: []kindShare{{"pagerank", 3.0 / 8}, {"cc", 2.0 / 8}, {"sssp", 2.0 / 8}, {"triangles", 1.0 / 8}},
		setup: setupWarmMix,
	},
	"stream-mutate": {
		name: "stream-mutate", clients: 1, cycle: 4,
		kinds: []kindShare{{"append", 0.5}, {"remove", 0.5}},
		setup: setupStreamMutate,
	},
	"dist-2w": {
		name: "dist-2w", clients: 1, cycle: 4,
		kinds: []kindShare{{"pagerank", 0.5}, {"cc", 0.5}},
		setup: setupDist2W,
	},
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// An instance is a set-up workload. Its methods are safe for as many
// concurrent callers as the workload has clients; op numbers are unique.
type instance interface {
	// references computes, outside any timed region, the results every
	// op is checked against.
	references(ctx context.Context) error
	// op runs op number i through the public API, timing only the op
	// itself with sw; checks made around it are not timed. A non-nil
	// error is a failed op: an error from the program, a result that
	// differs from its reference, or a tripped guard.
	op(ctx context.Context, i int, sw *stopwatch) (kind string, err error)
	// traced replays op number i as the exported layer calls Session
	// makes, each under a span of tr, and checks its result the same way.
	traced(ctx context.Context, i int, tr *tracer) (kind string, err error)
	// begin and end bracket a timed phase: end checks the guards that
	// hold over a whole phase and reports the phase's layer counters.
	begin()
	end() (phaseStats, error)
	// extraLayers reports the workload's per-layer metrics that the
	// generic span and counter accounting does not derive.
	extraLayers(t *spanTree) map[string]float64
	close()
}

// phaseStats are the layer counters a workload reads over one phase.
type phaseStats struct {
	storeHits, storeMisses, storeWaits, storeDerived int64
	storeBytes                                       int64
	compactions                                      int
}

// storeDelta returns the store counters' change from before to after and
// the store's size after.
func storeDelta(before, after cutfit.CacheStats) phaseStats {
	return phaseStats{
		storeHits:    after.Hits - before.Hits,
		storeMisses:  after.Misses - before.Misses,
		storeWaits:   after.Waits - before.Waits,
		storeDerived: after.DeltaDerived - before.DeltaDerived,
		storeBytes:   after.Bytes,
	}
}

// stopwatch times the parts of one op that belong to the op, and marks
// the op as in flight while it runs.
type stopwatch struct {
	total    time.Duration
	calls    map[string]time.Duration
	inflight *inflight
	// traced marks an op replayed under spans; its times are in the spans.
	traced bool
}

// inflight tracks when any op of a phase is in flight: the heap sampler
// reads only then, and the wall time, CPU time and bytes allocated then are
// the ops', without the checks made between ops.
type inflight struct {
	mu                    sync.Mutex
	n                     int
	wallStart             time.Time
	wall                  time.Duration
	cpuStart, cpu         time.Duration
	allocStart, allocated uint64
	active                atomic.Bool
}

func (f *inflight) enter() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.n == 0 {
		f.wallStart, f.cpuStart, f.allocStart = time.Now(), processCPU(), allocatedBytes()
		f.active.Store(true)
	}
	f.n++
}

func (f *inflight) leave() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n--
	if f.n == 0 {
		f.cpu += processCPU() - f.cpuStart
		f.wall += time.Since(f.wallStart)
		f.allocated += allocatedBytes() - f.allocStart
		f.active.Store(false)
	}
}

// allocatedBytes is the cumulative number of bytes the process has
// allocated on the heap.
func allocatedBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// processCPU is the user and system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("cutfitbench: getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// time runs fn as a timed part of the op and returns its duration; name,
// when not empty, records it as the time of one public call.
func (sw *stopwatch) time(name string, fn func() error) (time.Duration, error) {
	sw.inflight.enter()
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	sw.inflight.leave()
	sw.total += d
	if name != "" {
		sw.calls[name] += d
	}
	return d, err
}

// opRecord is one finished op.
type opRecord struct {
	kind   string
	dur    time.Duration
	calls  map[string]time.Duration
	traced bool
	err    error
}

// phase is the outcome of one closed-loop timed phase.
type phase struct {
	ops      []opRecord
	busy     time.Duration // summed timed op time over all clients
	wall     time.Duration // wall time while any op was in flight
	cpu      time.Duration // process CPU time while ops were in flight
	alloc    uint64        // heap bytes allocated while ops were in flight
	peakHeap float64       // bytes
	stats    phaseStats
	guardErr error
}

// runPhase runs the workload's clients as closed-loop callers of do. It
// stops at the first whole cycle of the workload's mix after d has passed
// and at least minOps ops have run, so every phase holds each kind of op in
// its exact share; sample turns on the heap sampler.
func runPhase(inst instance, w workload, d time.Duration, minOps int, sample bool,
	do func(i int, sw *stopwatch) (string, error)) phase {
	var (
		mu       sync.Mutex // guards next, stopped and ph
		next     int
		stopped  bool
		inflight inflight
		ph       phase
		wg       sync.WaitGroup
	)
	stopSampler := func() float64 { return 0 }
	if sample {
		stopSampler = sampleHeap(&inflight)
	}
	inst.begin()
	deadline := time.Now().Add(d)
	// claim hands out the next op number, or false once the phase is over.
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if !stopped && next >= minOps && next%w.cycle == 0 && time.Now().After(deadline) {
			stopped = true
		}
		if stopped {
			return 0, false
		}
		next++
		return next - 1, true
	}
	for range w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n, ok := claim()
				if !ok {
					return
				}
				sw := &stopwatch{calls: map[string]time.Duration{}, inflight: &inflight}
				kind, err := do(n, sw)
				mu.Lock()
				ph.ops = append(ph.ops, opRecord{kind: kind, dur: sw.total, calls: sw.calls, traced: sw.traced, err: err})
				ph.busy += sw.total
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.peakHeap = stopSampler()
	ph.wall, ph.cpu, ph.alloc = inflight.wall, inflight.cpu, inflight.allocated
	ph.stats, ph.guardErr = inst.end()
	return ph
}

// heapSamplePeriod is how often the heap sampler reads the live heap.
const heapSamplePeriod = 5 * time.Millisecond

// sampleHeap starts sampling the live heap while any op is in flight; the
// returned function stops the sampler and returns the peak, taken as the
// 99th percentile of the samples. The live heap is what the last GC found
// reachable, so it does not count garbage a collection has yet to free;
// but it changes only when a GC ends, and the single highest value depends
// on where in an op a GC happened to end. The 99th percentile is a level
// the heap held for 1% of the in-flight time.
func sampleHeap(inflight *inflight) func() float64 {
	stop := make(chan struct{})
	done := make(chan float64)
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var live []float64
		t := time.NewTicker(heapSamplePeriod)
		defer t.Stop()
		for {
			select {
			case <-stop:
				done <- quantile(live, 0.99)
				return
			case <-t.C:
				if !inflight.active.Load() {
					continue
				}
				metrics.Read(s)
				live = append(live, float64(s[0].Value.Uint64()))
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-done
	}
}

// measure runs the untraced timed phase and reports the end-to-end
// metrics.
func measure(ctx context.Context, w workload, cfg config, inst instance) *result {
	ph := runPhase(inst, w, cfg.seconds, cfg.minOps, true,
		func(i int, sw *stopwatch) (string, error) { return inst.op(ctx, i, sw) })
	res := newResult(ph)
	res.Metrics["peak_heap_mb"] = metric{ph.peakHeap / 1e6, "MB"}
	res.Metrics["cpu_ms_per_op"] = metric{ms(ph.cpu.Seconds()) / float64(len(ph.ops)), "ms"}
	res.Metrics["alloc_mb_per_op"] = metric{float64(ph.alloc) / 1e6 / float64(len(ph.ops)), "MB"}

	// Wall-clock figures are printed, not put in the JSON object: on a
	// shared host they move with the CPU other tenants take by more than
	// any bound that could still catch a regression. The traced run
	// records them.
	res.notes = append(res.notes,
		fmt.Sprintf("%-32s %14.6g share (n=%d)", "failed_op_share", float64(res.Failed)/float64(res.Attempted), res.Attempted),
		fmt.Sprintf("%-32s %14d count (%d clients)", "ops", len(ph.durations("")), w.clients))
	for _, m := range wallMetrics(ph, w) {
		res.notes = append(res.notes, fmt.Sprintf("%-32s %14.6g %s", m.name, m.Value, m.Unit))
	}
	for _, kind := range allKinds {
		name := kind + "_ms_p50"
		d := ph.durations(kind)
		if len(d) == 0 {
			res.notes = append(res.notes, fmt.Sprintf("%-32s %14s (no %s ops in %s)", name, "n/a", kind, w.name))
			continue
		}
		res.notes = append(res.notes, fmt.Sprintf("%-32s %14.6g ms (n=%d)", name, ms(quantile(d, 0.5)), len(d)))
	}
	return res
}

// allKinds are the op kinds of every workload, in report order.
var allKinds = []string{"cold", "restore", "pagerank", "cc", "sssp", "triangles", "append", "remove"}

// newResult counts the phase's failed ops. A tripped phase guard counts as
// one more failed op, short of failing more ops than were attempted.
func newResult(ph phase) *result {
	res := &result{Attempted: len(ph.ops), Metrics: map[string]metric{}}
	for _, op := range ph.ops {
		if op.err != nil {
			res.Failed++
			res.problems = append(res.problems, fmt.Sprintf("%s op: %v", op.kind, op.err))
		}
	}
	if ph.guardErr != nil {
		res.Failed = min(res.Failed+1, res.Attempted)
		res.problems = append(res.problems, ph.guardErr.Error())
	}
	if len(res.problems) > 10 {
		res.problems = append(res.problems[:10], fmt.Sprintf("... and %d more", len(res.problems)-10))
	}
	res.Correct = res.Failed == 0 && ph.guardErr == nil
	return res
}

// durations returns the durations of the phase's untraced ops of kind,
// or of all untraced ops when kind is empty.
func (ph phase) durations(kind string) []float64 {
	var out []float64
	for _, op := range ph.ops {
		if !op.traced && (kind == "" || op.kind == kind) {
			out = append(out, op.dur.Seconds())
		}
	}
	return out
}

// calls returns the durations of the public call name over untraced ops
// of kind.
func (ph phase) calls(kind, name string) []float64 {
	var out []float64
	for _, op := range ph.ops {
		if d, ok := op.calls[name]; ok && (kind == "" || op.kind == kind) {
			out = append(out, d.Seconds())
		}
	}
	return out
}

// opsPerSecond is completed ops per second of timed wall clock: the
// summed op time over clients, divided by the client count. Checks made
// between ops are not part of it.
func (ph phase) opsPerSecond(clients int) float64 {
	if ph.busy <= 0 {
		return 0
	}
	return float64(len(ph.durations(""))) / (ph.busy.Seconds() / float64(clients))
}

type namedMetric struct {
	name string
	metric
}

// wallMetrics are the wall-clock figures of the phase's untraced ops:
// throughput, the typical op time and the tail; and the in-flight wall
// time over the process CPU time then, which covers traced ops too.
func wallMetrics(ph phase, w workload) []namedMetric {
	// A median over all ops of a two-kind mix falls between the kinds'
	// modes and jumps between them; each kind's median, weighted by the
	// kind's share, is the typical op time that stays put.
	var mixed float64
	for _, k := range w.kinds {
		mixed += k.share * median(ph.durations(k.kind))
	}
	return []namedMetric{
		{"ops_per_s", metric{ph.opsPerSecond(w.clients), "1/s"}},
		{"kind_ms_p50", metric{ms(mixed), "ms"}},
		{"op_ms_p90", metric{ms(quantile(ph.durations(""), 0.9)), "ms"}},
		// A slower host stretches wall and CPU time alike; lost parallelism,
		// added waits, contention between clients and CPU taken by other
		// tenants of the host stretch wall time alone.
		{"wall_over_cpu", metric{ph.wall.Seconds() / ph.cpu.Seconds(), "ratio"}},
	}
}

func ms(sec float64) float64 { return sec * 1e3 }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
