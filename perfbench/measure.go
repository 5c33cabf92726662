package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"offnetrisk/internal/obs"
)

// iteration is one set-up and run of a workload on fresh pipelines. The
// workload builds its worlds, calls beginRun, runs its operations through
// op, and calls endRun.
type iteration struct {
	ctx     context.Context
	seed    int64
	size    size
	tr      *tracer // nil in a plain iteration
	id      int     // the run id of a traced iteration's spans
	heap    *heapSampler
	onlySet bool // set up, then stop: a setup_s sample only

	start    time.Time
	setup    time.Duration
	runStart time.Time
	run      time.Duration
	cpu      time.Duration
	peakLive uint64
	peakRSS  int64
	rtBefore runtimeStats
	rt       runtimeStats // run-phase deltas
	cpuStart time.Duration

	attempted, failed int
	errs              []string
	digest            hash.Hash
	checks, passed    int
	checkRuns         int        // ConformanceContext calls made
	ops               []opCounts // every operation's layer counts, in order

	scenarios    int64 // cascade.scenarios_simulated over scenario-simulating operations
	scenarioWall time.Duration
	simHours     int
	simWall      time.Duration
	servers      int // offnet servers deployed by the benchmark's own Deploy calls
	sessions     int // sessions simulated by the benchmark's own session calls
}

func newIteration(ctx context.Context, seed int64, sz size, tr *tracer, heap *heapSampler) *iteration {
	runtime.GC() // start every iteration from a collected heap
	it := &iteration{ctx: ctx, seed: seed, size: sz, tr: tr, heap: heap, digest: sha256.New(), start: time.Now()}
	if tr != nil {
		it.id = tr.run
	}
	return it
}

// endSetup ends the setup phase. It returns false for a setup-only
// iteration, whose workload then stops.
func (it *iteration) endSetup() bool {
	it.setup = time.Since(it.start)
	return !it.onlySet
}

// beginRun starts the run phase.
func (it *iteration) beginRun() {
	it.heap.reset()
	it.rtBefore = readRuntime()
	it.cpuStart = processCPU()
	it.runStart = time.Now()
}

func (it *iteration) endRun() {
	it.run = time.Since(it.runStart)
	it.cpu = processCPU() - it.cpuStart
	it.peakLive = it.heap.peak()
	it.peakRSS = peakRSS()
	it.rt = readRuntime().minus(it.rtBefore)
}

// opKind marks the operations whose scenario count feeds scenarios_per_s.
type opKind int

const (
	plainOp opKind = iota
	scenarioOp
)

// op runs one operation — an experiment, study, sweep or replay call —
// under a top-level span in a traced iteration. It fails when fn returns an
// error or leaves a funnel unbalanced. The rendered result feeds the digest.
// The scope (the scenario) prefixes the name in the digest and in errors.
func (it *iteration) op(scope, name string, kind opKind, fn func() (string, error)) {
	funnels := obs.Default.FunnelSnapshots()
	before := counts()
	scen := scenarioCount()
	t0 := time.Now()
	var out string
	err := it.tr.call("offnetrisk."+name, func() error {
		var err error
		out, err = fn()
		return err
	})
	if kind == scenarioOp {
		it.scenarios += scenarioCount() - scen
		it.scenarioWall += time.Since(t0)
	}
	it.ops = append(it.ops, opCounts{scope + "/" + name, layerCounts(deltas(before, counts()))})
	it.attempted++
	if err == nil {
		err = unbalanced(funnels, obs.Default.FunnelSnapshots())
	}
	if err != nil {
		it.fail(scope+"/"+name, 1, err)
		return
	}
	fmt.Fprintf(it.digest, "== %s/%s\n%s\n", scope, name, out)
}

// opCounts are the obs.Default counter and funnel deltas of one operation.
type opCounts struct {
	name   string
	counts map[string]int64
}

// layerCounts drops the par.* counters: they count how a caller batches
// its work, which the Pipeline methods and the traced copies may do
// differently, not the work of a layer.
func layerCounts(d map[string]int64) map[string]int64 {
	for k := range d {
		if strings.HasPrefix(k, "par.") {
			delete(d, k)
		}
	}
	return d
}

// sameLayerCalls checks that the traced iteration's copies of the Pipeline
// methods still make the program's layer calls: each operation of the first
// traced iteration must move every layer counter and funnel by as much as
// the same operation of the first plain iteration, which runs on the same
// world seed. A Pipeline method whose calls change — one that reuses a
// model, say — fails the traced run until its copy follows.
func sameLayerCalls(plain, traced *iteration) []string {
	if len(plain.ops) != len(traced.ops) {
		return []string{fmt.Sprintf("traced iteration ran %d operations, plain %d", len(traced.ops), len(plain.ops))}
	}
	var problems []string
	for i, p := range plain.ops {
		t := traced.ops[i]
		var keys []string
		for k := range p.counts {
			keys = append(keys, k)
		}
		for k := range t.counts {
			if _, ok := p.counts[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			if p.counts[k] != t.counts[k] {
				problems = append(problems, fmt.Sprintf("%s: traced copy moves %s by %d, the program by %d", p.name, k, t.counts[k], p.counts[k]))
				break
			}
		}
	}
	return problems
}

// fail records the error of a call and the n operations it failed.
func (it *iteration) fail(name string, n int, err error) {
	it.failed += n
	it.errs = append(it.errs, fmt.Sprintf("%s: %v", name, err))
}

func scenarioCount() int64 {
	return int64(obs.Default.Snapshot()["cascade.scenarios_simulated"].Value)
}

// unbalanced checks that every funnel's change over an operation satisfies
// in == out + dropped.
func unbalanced(before, after []obs.FunnelSnapshot) error {
	prev := make(map[string]obs.FunnelSnapshot, len(before))
	for _, f := range before {
		prev[f.Name] = f
	}
	for _, f := range after {
		p := prev[f.Name]
		in, out, dropped := f.In-p.In, f.Out-p.Out, f.Dropped()-p.Dropped()
		if in != out+dropped {
			return fmt.Errorf("funnel %s unbalanced: in %d != out %d + dropped %d", f.Name, in, out, dropped)
		}
	}
	return nil
}

// processCPU returns the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS returns the process's peak resident set size in bytes.
func peakRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024 // Linux reports KiB
}

// runtimeStats are Go runtime totals; minus turns two reads into a delta.
type runtimeStats struct {
	allocBytes, mallocs, gcCycles uint64
	gcPause                       time.Duration
}

var runtimeSamples = []string{"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects", "/gc/cycles/total:gc-cycles"}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeStats{
		allocBytes: s[0].Value.Uint64(),
		mallocs:    s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcPause:    time.Duration(ms.PauseTotalNs),
	}
}

func (a runtimeStats) minus(b runtimeStats) runtimeStats {
	return runtimeStats{a.allocBytes - b.allocBytes, a.mallocs - b.mallocs, a.gcCycles - b.gcCycles, a.gcPause - b.gcPause}
}

// heapSampler samples the runtime's live heap — the bytes marked live by
// the last garbage collection — and keeps the highest value since reset.
// The live heap changes only when a collection ends, far less often than
// the sampler reads it.
type heapSampler struct {
	max  atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

const heapSampleEvery = 2 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.reset()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.observe()
			}
		}
	}()
	return h
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func (h *heapSampler) observe() {
	v := liveHeap()
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

func (h *heapSampler) reset() { h.max.Store(liveHeap()) }

func (h *heapSampler) peak() uint64 {
	h.observe()
	return h.max.Load()
}

// close stops the sampling goroutine and waits until it has exited.
func (h *heapSampler) close() {
	close(h.stop)
	<-h.done
}
