// Command perfbench is the repository's wall-clock benchmark. It runs one
// workload against the library in this process, checks every delivered
// payload, and prints its metrics; the last line of standard output is a
// JSON object {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload rpc-small --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run records wall-clock spans around every library call it makes and
// reports per-layer metrics instead. The exit status is non-zero when any
// operation failed or any payload differed. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"madeleine2/internal/vclock"
)

// setupReps is how many set-up samples a run takes (see setupSampler).
// Every set-up but the one the timed phase uses is closed again at once,
// which measures what a closed world leaves behind.
const setupReps = 15

// Seed streams: every input the benchmark generates draws from its own
// stream of the one --seed.
const (
	streamPool = iota + 1
	streamRotation
	streamAsync
	streamFabric
	streamLegs = 100
)

// newRand returns the generator of one input stream of the run's seed.
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix64(seed*0x9e3779b97f4a7c15 + stream))))
}

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

type workload struct {
	name  string
	setup func(env *env) (fixture, error)
	pool  int // bytes of seeded random payload
	batch int // set-ups per set-up sample, so that a sample lasts tens of ms
}

var workloads = []workload{
	{"rpc-small", func(env *env) (fixture, error) { return setupPing(env, rpcLegs, rpcSizes, 64) }, 64<<10 + rpcSizes.max, 12},
	{"bulk-1m", func(env *env) (fixture, error) { return setupPing(env, bulkLegs, bulkSizes, 4) }, 64<<10 + bulkSizes.max, 2},
	{"async-fanin", setupAsync, 64 << 10, 6},
	{"llm-fabric", setupFabric, fabricPoolLen, 1},
}

// fixture is one set-up of a workload: its worlds, channels and
// communicators, warmed up.
type fixture interface {
	// worlds reports how many simulated worlds the set-up built.
	worlds() int
	// begin snapshots the layer counters right before the timed phase.
	begin()
	// round runs one round of ops, recording each in r. An error ends
	// the timed phase.
	round(r *recorder) error
	// layers adds the per-layer metrics of the timed phase to m.
	layers(m map[string]float64, ops int64)
	// close tears the worlds down and waits for every goroutine the
	// fixture started; an error is a correctness failure (a poisoned
	// communicator, requests left in flight).
	close() error
}

// env is what a set-up needs from the run.
type env struct {
	seed      uint64
	built     int // set-ups made so far; tells their worlds apart
	traceMode bool
	pool      []byte
	tr        *tracer
	main      *track
	st        *setupTimes
}

type setupTimes struct {
	world, channel, fwd, coll time.Duration
}

// per divides the times of a batch of n set-ups by n.
func (s setupTimes) per(n int) setupTimes {
	d := time.Duration(n)
	return setupTimes{s.world / d, s.channel / d, s.fwd / d, s.coll / d}
}

// setupSampler takes a run's set-up samples. A sample builds the
// workload's worlds wl.batch times back to back with the collector
// paused, then collects the batch's garbage at once, so that each sample
// pays for its own garbage and for no other's whenever the pacer would
// have run. Its wall time per set-up is one entry of times; setup_s is
// their median.
type setupSampler struct {
	wl     *workload
	e      *env
	times  []time.Duration
	parts  []setupTimes
	worlds int // worlds built by every sample
}

// sample takes one sample. With keep set, the batch's last fixture stays
// open and is returned; every other fixture is closed at once.
func (sp *setupSampler) sample(keep bool) (fixture, error) {
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPercent)
	var st setupTimes
	sp.e.st = &st
	batch := make([]fixture, 0, sp.wl.batch)
	t := time.Now()
	for i := 0; i < sp.wl.batch; i++ {
		f, err := sp.wl.setup(sp.e)
		sp.e.built++
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", sp.e.built, err)
		}
		batch = append(batch, f)
	}
	runtime.GC()
	sp.times = append(sp.times, time.Since(t)/time.Duration(sp.wl.batch))
	sp.parts = append(sp.parts, st.per(sp.wl.batch))
	var kept fixture
	if keep {
		kept, batch = batch[len(batch)-1], batch[:len(batch)-1]
		sp.worlds += kept.worlds()
	}
	for _, f := range batch {
		sp.worlds += f.worlds()
		if err := f.close(); err != nil {
			return nil, fmt.Errorf("set-up close: %w", err)
		}
	}
	return kept, nil
}

// started is when the process started.
var started = time.Now()

// usage is what the process has spent since it started, or, as the
// difference of two readings, over a stretch of time.
type usage struct {
	wall           time.Duration
	allocB, allocs uint64
	gcs            uint32
	gcPauseNs      uint64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{time.Since(started), ms.TotalAlloc, ms.Mallocs, ms.NumGC, ms.PauseTotalNs}
}

func (u usage) sub(v usage) usage {
	return usage{u.wall - v.wall, u.allocB - v.allocB, u.allocs - v.allocs, u.gcs - v.gcs, u.gcPauseNs - v.gcPauseNs}
}

// recorder accumulates the ops of the timed phase.
type recorder struct {
	traced bool // the current round records spans
	allocs bool // the current round counts allocations per leg
	virt   *hist
	ops    int64
	failed int64
	// plain sums up the rounds that neither record spans nor count
	// allocations: every round of an untraced run, a third of a traced
	// one. The wall-clock metrics are measured on them alone.
	plain plainRounds
}

type plainRounds struct {
	ops, bytes int64
	wall, cpu  time.Duration
	lat        *hist
}

func (r *recorder) isPlain() bool { return !r.traced && !r.allocs }

func (r *recorder) op(lat time.Duration, virt vclock.Time, bytes int, ok bool) {
	r.ops++
	r.virt.add(int64(virt))
	if !ok {
		r.failed++
	}
	if r.isPlain() {
		r.plain.ops++
		r.plain.lat.add(int64(lat))
		if ok {
			r.plain.bytes += int64(bytes)
		}
	}
}

// metrics reports the wall-clock metrics of the plain rounds, under prefix.
func (p *plainRounds) metrics(prefix string) map[string]float64 {
	secs := p.wall.Seconds()
	return map[string]float64{
		prefix + "ops_per_s":     ratio(float64(p.ops), secs),
		prefix + "payload_MBps":  ratio(float64(p.bytes)/1e6, secs),
		prefix + "op_p50_us":     p.lat.quantile(0.5) / 1e3,
		prefix + "op_p99_us":     p.lat.quantile(0.99) / 1e3,
		prefix + "cpu_us_per_op": ratio(float64(p.cpu.Microseconds()), float64(p.ops)),
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "rpc-small, bulk-1m, async-fanin or llm-fabric")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 15, "length of the timed phase")
	traceFlag := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload rpc-small|bulk-1m|async-fanin|llm-fabric --seed N --seconds S --trace 0|1")
		return 2
	}
	// One P: goroutines still interleave, but the OS's cross-thread
	// wake-ups between them, which made runs of one seed differ by up to
	// 45% on a shared 2-CPU machine and are no cost of the library, are
	// gone.
	runtime.GOMAXPROCS(1)
	limit := time.Duration(*seconds*float64(time.Second)) + 150*time.Second
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %v\n", wl.name, limit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	res, err := measure(wl, *seed, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

func measure(wl *workload, seed uint64, seconds time.Duration, traceMode bool) (*result, error) {
	tr := newTracer()
	e := &env{seed: seed, traceMode: traceMode, tr: tr, main: tr.track()}
	e.pool = make([]byte, wl.pool)
	rng := newRand(seed, streamPool)
	for i := range e.pool {
		e.pool[i] = byte(rng.Uint32())
	}
	r := &recorder{virt: newHist(), plain: plainRounds{lat: newHist()}}
	heap0 := liveHeap()

	// Set-up: setupReps samples in a row; the last set-up of the last one
	// is the fixture of the timed phase.
	sp := &setupSampler{wl: wl, e: e}
	var fx fixture
	for i := 0; i < setupReps; i++ {
		f, err := sp.sample(i == setupReps-1)
		if err != nil {
			return nil, err
		}
		fx = f
	}
	fmt.Printf("# %s seed=%d set-up %v per set-up (median of %v), process start to first op %v\n",
		wl.name, seed, medianDur(sp.times), sp.times, time.Since(started))

	// Timed phase. In trace mode rounds rotate through traced, untraced
	// and allocation-counting ones; the rate gap between the traced and
	// the untraced rounds is the tracing overhead.
	fx.begin()
	runtime.GC()
	u0 := readUsage()
	var runErr error
	var tracedOps int64
	var tracedNs time.Duration
	for i := 0; time.Since(started)-u0.wall < seconds; i++ {
		r.traced = traceMode && i%3 == 0
		r.allocs = traceMode && i%3 == 2
		n0, c0, rs := r.ops, cpuTime(), time.Now()
		runErr = fx.round(r)
		d := time.Since(rs)
		switch {
		case r.traced:
			tracedOps, tracedNs = tracedOps+r.ops-n0, tracedNs+d
		case r.isPlain():
			r.plain.wall += d
			r.plain.cpu += cpuTime() - c0
		}
		if runErr != nil {
			break
		}
	}
	ph := readUsage().sub(u0)
	r.traced, r.allocs = false, false

	layer := map[string]float64{}
	if traceMode {
		fx.layers(layer, r.ops)
	}
	closeErr := fx.close()
	fx = nil
	heap2 := liveHeap()
	fmt.Printf("# live heap %.3f MB before set-up, %.3f MB once every world is closed\n", float64(heap0)/1e6, float64(heap2)/1e6)

	res := &result{
		Correct:   runErr == nil && closeErr == nil && r.failed == 0,
		Attempted: r.ops,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	for _, err := range []error{runErr, closeErr} {
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		}
	}
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
		res.Correct = false
	}
	ops := float64(r.ops)
	secs := ph.wall.Seconds()
	fmt.Printf("# %d ops in %.3fs, %d failed; wall latency samples of the plain rounds %d, %d beyond p99\n",
		r.ops, secs, r.failed, r.plain.lat.n, r.plain.lat.beyond(0.99))

	if !traceMode {
		w := r.plain.metrics("")
		fmt.Printf("# wall clock: %.6g ops/s, %.6g MB/s, p50 %.6g us, p99 %.6g us, %.6g us CPU per op\n",
			w["ops_per_s"], w["payload_MBps"], w["op_p50_us"], w["op_p99_us"], w["cpu_us_per_op"])
		e2e := map[string]float64{
			"alloc_B_per_op":  ratio(float64(ph.allocB), ops),
			"allocs_per_op":   ratio(float64(ph.allocs), ops),
			"mem_retained_MB": float64(heap2) / 1e6,
			"setup_s":         medianDur(sp.times).Seconds(),
			"virt_us_p50":     virtUS(r.virt.quantile(0.5)),
		}
		emit(res, endToEnd, e2e)
		return res, nil
	}

	median := func(pick func(setupTimes) time.Duration) float64 {
		ds := make([]time.Duration, len(sp.parts))
		for i, t := range sp.parts {
			ds[i] = pick(t)
		}
		return float64(medianDur(ds)) / 1e6
	}
	layer["setup.world_ms"] = median(func(t setupTimes) time.Duration { return t.world })
	layer["setup.channel_ms"] = median(func(t setupTimes) time.Duration { return t.channel })
	layer["setup.fwd_ms"] = median(func(t setupTimes) time.Duration { return t.fwd })
	layer["setup.coll_ms"] = median(func(t setupTimes) time.Duration { return t.coll })
	layer["setup.heap_retained_MB_per_world"] = ratio(float64(heap2-heap0)/1e6, float64(sp.worlds))
	gcs := float64(ph.gcs)
	layer["runtime.gc_cycles_per_s"] = gcs / secs
	layer["runtime.gc_pause_ms"] = ratio(float64(ph.gcPauseNs)/1e6, gcs)
	for k, v := range r.plain.metrics("wall.") {
		layer[k] = v
	}
	tracedRate := ratio(float64(tracedOps), tracedNs.Seconds())
	plainRate := layer["wall.ops_per_s"]
	layer["trace.ops_per_s"] = tracedRate
	layer["trace.overhead_ratio"] = ratio(plainRate-tracedRate, plainRate)
	recorded, dropped := tr.spanCount()
	layer["trace.spans_per_op"] = ratio(float64(recorded), float64(tracedOps))
	for l, ns := range tr.layerSelf() {
		layer["self."+l+".us_per_op"] = ratio(float64(ns)/1e3, float64(tracedOps))
	}
	layer["fail_ratio"] = ratio(float64(r.failed), ops)
	path := fmt.Sprintf(".bench_build/spans/%s-seed%d.jsonl", wl.name, seed)
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("# %d spans recorded, first %d per track kept in %s (%d not kept); tracing overhead %.1f%% of ops/s\n",
		recorded, trackKeep, path, dropped, 100*layer["trace.overhead_ratio"])
	emit(res, perLayer(), layer)
	return res, nil
}

// emit prints the declared metrics one per line and puts them into the
// result; a declared metric the workload does not exercise reads 0, and
// a measured one that is not declared fails the run.
func emit(res *result, defs []metricDef, vals map[string]float64) {
	declared := map[string]bool{}
	for _, d := range defs {
		declared[d.name] = true
		v := vals[d.name]
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Printf("%-40s %16.6g %s\n", d.name, v, d.unit)
	}
	var extra []string
	for name := range vals {
		if !declared[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(os.Stderr, "perfbench: undeclared metric %s\n", name)
		res.Correct = false
	}
}
