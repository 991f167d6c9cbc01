package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"madeleine2/internal/bip"
	"madeleine2/internal/coll"
	"madeleine2/internal/core"
	"madeleine2/internal/fwd"
	"madeleine2/internal/metrics"
	"madeleine2/internal/simnet"
	"madeleine2/internal/sisci"
	"madeleine2/internal/tcpnet"
	"madeleine2/internal/vclock"
)

// llm-fabric: one long-lived 8-rank two-cluster world (SCI {0..4},
// Myrinet {4..7}, rank 4 the gateway) running the reliable forwarding
// mode behind a lossy FaultPlan. An op is one traffic step on every
// rank: four MoE layers (sparse Alltoallv with a seeded routing table,
// then the router's Allreduce), three prefill->decode KV chunks per
// cross-cluster pair, and two incast Gathers at rank 0. The 8 rank goroutines
// are the simulated nodes; the generator starts a step on all of them
// and waits for the last to finish.

const (
	fabricNodes   = 8
	fabricTables  = 512      // routing tables, rotated per step
	kvChunk       = 64 << 10 // bytes of one KV chunk
	incastBlk     = 32 << 10 // bytes per rank per gather
	routerFloats  = 8
	fabricPoolLen = 256<<10 + kvChunk
)

// moeRoutes are the token bytes each rank routes per MoE layer: to two
// experts, drawn per routing table. Fixing the fan-out and sizes keeps a
// step's work the same for every seed; the seed picks only which experts.
var moeRoutes = [...]int{moeSmall, moeLarge}

const moeSmall, moeLarge = 8 << 10, 16 << 10

// stepBytes is the useful payload of one step: MoE tokens and every
// rank's router vector per layer, the KV chunks and the gathered blocks.
const stepBytes = moeLayers*fabricNodes*(moeSmall+moeLarge+routerFloats*8) +
	kvChunks*(fabricNodes/2)*kvChunk + incastRounds*(fabricNodes-1)*incastBlk

// A step's collectives: moeLayers MoE layers (Alltoallv, then Allreduce),
// kvChunks KV chunks and incastRounds gathers, the traffic of the
// LLM-fabric figure. Each transfer's place in the step (sub) is mixed
// into its payload offset, so every transfer reads different bytes.
const (
	moeLayers    = 4
	kvChunks     = 3
	incastRounds = 2
	stepCalls    = 2*moeLayers + kvChunks + incastRounds

	subMoE    = 0
	subKV     = 16
	subGather = 32
)

type fabricFix struct {
	sess    *core.Session
	comms   []*coll.Comm
	ranks   []*fabricRank
	done    chan rankDone
	wg      sync.WaitGroup
	tables  [][]int // tables[t][src*fabricNodes+dst] = MoE bytes
	pool    []byte
	salt    uint64
	step    int64
	virtMax vclock.Time
	snap    metrics.Snapshot

	// Trace-mode samples (nil otherwise).
	skewH, virtH *hist
}

type rankDone struct {
	rank int
	err  error
	now  vclock.Time
}

type fabricRank struct {
	f     *fabricFix
	c     *coll.Comm
	r     int
	t     *track
	start chan int64
	ids   [5]int32

	moeIn, moeOut []byte
	sc, rc        []int
	router        []float64
	kvIn, kvOut   []byte
	kvSC, kvRC    []int
	gIn, gOut     []byte

	ends               [stepCalls]int64 // wall end of each collective of the step
	calls              int
	a2avH, allredH, gH *hist
}

// fabricWorld builds the two-cluster world with every adapter armed by
// the FaultPlan, the reliable virtual channel and its communicators.
func fabricWorld(env *env, name string, plan *simnet.FaultPlan) (*core.Session, []*coll.Comm, error) {
	t := time.Now()
	w := simnet.NewWorld(fabricNodes)
	for _, r := range []int{0, 1, 2, 3, 4} {
		w.Node(r).AddAdapter(sisci.Network)
	}
	for _, r := range []int{4, 5, 6, 7} {
		w.Node(r).AddAdapter(bip.Network)
	}
	for r := 0; r < fabricNodes; r++ {
		w.Node(r).AddAdapter(tcpnet.Network)
	}
	sess := core.NewSession(w)
	for _, a := range w.Adapters() {
		a.SetFaults(plan)
	}
	env.st.world += time.Since(t)

	t = time.Now()
	vcs, err := fwd.New(sess, fwd.Spec{
		Name:     name,
		Reliable: true,
		Segments: []core.ChannelSpec{
			{Driver: "sisci", Nodes: []int{0, 1, 2, 3, 4}},
			{Driver: "bip", Nodes: []int{4, 5, 6, 7}},
		},
	})
	env.st.fwd += time.Since(t)
	if err != nil {
		return nil, nil, err
	}

	t = time.Now()
	defer func() { env.st.coll += time.Since(t) }()
	comms := make([]*coll.Comm, fabricNodes)
	for node, vc := range vcs {
		c, err := coll.OverVC(vc, coll.Options{Alg: coll.Auto, Name: name})
		if err != nil {
			for _, v := range vcs {
				v.Close()
			}
			return nil, nil, err
		}
		comms[node] = c
	}
	return sess, comms, nil
}

func setupFabric(env *env) (fixture, error) {
	rng := newRand(env.seed, streamFabric)
	plan := &simnet.FaultPlan{Seed: int64(rng.Uint64() >> 1), Corrupt: 0.005, Drop: 0.005}
	sess, comms, err := fabricWorld(env, fmt.Sprintf("llm-%d", env.built), plan)
	if err != nil {
		return nil, err
	}
	f := &fabricFix{
		sess:  sess,
		comms: comms,
		done:  make(chan rankDone, fabricNodes),
		pool:  env.pool,
		salt:  rng.Uint64(),
	}
	for t := 0; t < fabricTables; t++ {
		tab := make([]int, fabricNodes*fabricNodes)
		for src := 0; src < fabricNodes; src++ {
			experts := rng.Perm(fabricNodes - 1)
			for i, size := range moeRoutes {
				dst := experts[i]
				if dst >= src {
					dst++
				}
				tab[src*fabricNodes+dst] = size
			}
		}
		f.tables = append(f.tables, tab)
	}
	if env.traceMode {
		f.skewH, f.virtH = newHist(), newHist()
	}
	var ids [5]int32
	for i, call := range []string{"Alltoallv.moe", "Allreduce", "Alltoallv.kv", "Gather"} {
		ids[i] = env.tr.name("coll."+call, "coll")
	}
	ids[4] = env.tr.name("fabric.step", "bench")
	for r, c := range comms {
		k := &fabricRank{
			f: f, c: c, r: r, t: env.tr.track(), start: make(chan int64, 1), ids: ids,
			moeIn: make([]byte, fabricNodes*16<<10), moeOut: make([]byte, fabricNodes*16<<10),
			sc: make([]int, fabricNodes), rc: make([]int, fabricNodes),
			router: make([]float64, routerFloats),
			kvIn:   make([]byte, kvChunk), kvOut: make([]byte, kvChunk),
			kvSC: make([]int, fabricNodes), kvRC: make([]int, fabricNodes),
			gIn: make([]byte, incastBlk),
		}
		half := fabricNodes / 2
		if r < half {
			k.kvSC[r+half] = kvChunk
		} else {
			k.kvRC[r-half] = kvChunk
		}
		if r == 0 {
			k.gOut = make([]byte, fabricNodes*incastBlk)
		}
		if env.traceMode {
			k.a2avH, k.allredH, k.gH = newHist(), newHist(), newHist()
		}
		f.ranks = append(f.ranks, k)
		f.wg.Add(1)
		go k.loop()
	}
	for i := 0; i < 2; i++ {
		if err := f.round(nil); err != nil {
			f.close()
			return nil, fmt.Errorf("fabric warm-up: %w", err)
		}
	}
	return f, nil
}

func (f *fabricFix) worlds() int { return 1 }

func (f *fabricFix) begin() { f.snap = f.sess.Metrics().Snapshot() }

// block is the seeded payload of one transfer: bytes of the shared
// random pool at an offset mixed from the step, the transfer's place in
// the step and its endpoints, so sender and receiver derive it
// independently.
func (f *fabricFix) block(step int64, sub, src, dst, n int) []byte {
	h := mix64(f.salt ^ uint64(step)*0x9e3779b97f4a7c15 ^ uint64(sub<<24|src<<16|dst<<8))
	off := int(h % uint64(len(f.pool)-n))
	return f.pool[off : off+n]
}

func (k *fabricRank) loop() {
	defer k.f.wg.Done()
	for s := range k.start {
		err := k.step(s)
		k.f.done <- rankDone{rank: k.r, err: err, now: k.c.Now()}
	}
}

// call times one collective into h and records when it ended.
func (k *fabricRank) call(id int, h *hist, fn func() error) error {
	s := k.t.begin(k.ids[id])
	err := fn()
	if e := k.t.end(); recording(k.t) {
		h.add(e - s)
		k.ends[k.calls] = e
	}
	k.calls++
	return err
}

// step runs one traffic step. A failed collective ends the step (the
// communicator is poisoned and its peers fail fast); a payload mismatch
// is noted and the step goes on, so every rank keeps issuing the same
// collectives.
func (k *fabricRank) step(s int64) error {
	f, n, r := k.f, fabricNodes, k.r
	k.t.op = s
	k.t.begin(k.ids[4])
	defer k.t.end()
	k.calls = 0
	var bad error
	check := func(ok bool, what string, from int) {
		if !ok && bad == nil {
			bad = fmt.Errorf("step %d: %s from rank %d differs", s, what, from)
		}
	}

	for layer := 0; layer < moeLayers; layer++ {
		tab := f.tables[(s*moeLayers+int64(layer))%fabricTables]
		stot, rtot := 0, 0
		for d := 0; d < n; d++ {
			k.sc[d], k.rc[d] = tab[r*n+d], tab[d*n+r]
			copy(k.moeIn[stot:], f.block(s, subMoE+layer, r, d, k.sc[d]))
			stot += k.sc[d]
			rtot += k.rc[d]
		}
		if err := k.call(0, k.a2avH, func() error {
			return k.c.Alltoallv(k.moeIn[:stot], k.sc, k.moeOut[:rtot], k.rc)
		}); err != nil {
			return fmt.Errorf("step %d layer %d moe alltoallv: %w", s, layer, err)
		}
		off := 0
		for o := 0; o < n; o++ {
			check(bytes.Equal(k.moeOut[off:off+k.rc[o]], f.block(s, subMoE+layer, o, r, k.rc[o])), "moe block", o)
			off += k.rc[o]
		}

		base := int((s*moeLayers + int64(layer)) % 1024)
		for i := range k.router {
			k.router[i] = float64(r + base + i)
		}
		if err := k.call(1, k.allredH, func() error { return k.c.Allreduce(k.router, k.router, coll.Sum) }); err != nil {
			return fmt.Errorf("step %d layer %d router allreduce: %w", s, layer, err)
		}
		for i, v := range k.router {
			check(v == float64(n*(n-1)/2+n*(base+i)), "router sum", -1)
		}
	}

	half := n / 2
	for c := 0; c < kvChunks; c++ {
		if r < half {
			copy(k.kvIn, f.block(s, subKV+c, r, r+half, kvChunk))
		}
		if err := k.call(2, k.a2avH, func() error { return k.c.Alltoallv(k.kvIn, k.kvSC, k.kvOut, k.kvRC) }); err != nil {
			return fmt.Errorf("step %d kv chunk %d alltoallv: %w", s, c, err)
		}
		if r >= half {
			check(bytes.Equal(k.kvOut, f.block(s, subKV+c, r-half, r, kvChunk)), "kv chunk", r-half)
		}
	}

	for g := 0; g < incastRounds; g++ {
		copy(k.gIn, f.block(s, subGather+g, r, 0, incastBlk))
		if err := k.call(3, k.gH, func() error { return k.c.Gather(0, k.gIn, k.gOut) }); err != nil {
			return fmt.Errorf("step %d incast gather %d: %w", s, g, err)
		}
		if r == 0 {
			for o := 0; o < n; o++ {
				check(bytes.Equal(k.gOut[o*incastBlk:(o+1)*incastBlk], f.block(s, subGather+g, o, 0, incastBlk)), "gather block", o)
			}
		}
	}
	return bad
}

// round runs one step on every rank; a nil recorder is a warm-up step.
func (f *fabricFix) round(r *recorder) error {
	f.step++
	traced := r != nil && r.traced
	for _, k := range f.ranks {
		k.t.on = traced
	}
	t0 := time.Now()
	for _, k := range f.ranks {
		k.start <- f.step
	}
	var first error
	vmax := f.virtMax
	for range f.ranks {
		d := <-f.done
		if d.err != nil && first == nil {
			first = fmt.Errorf("rank %d: %w", d.rank, d.err)
		}
		vmax = max(vmax, d.now)
	}
	lat := time.Since(t0)
	virt := vmax - f.virtMax
	f.virtMax = vmax
	if r == nil {
		return first
	}
	r.op(lat, virt, stepBytes, first == nil)
	if traced {
		f.virtH.add(int64(virt))
		for i := range f.ranks[0].ends {
			lo, hi := f.ranks[0].ends[i], f.ranks[0].ends[i]
			for _, k := range f.ranks[1:] {
				lo, hi = min(lo, k.ends[i]), max(hi, k.ends[i])
			}
			f.skewH.add(hi - lo)
		}
	}
	return first
}

func (f *fabricFix) layers(m map[string]float64, ops int64) {
	d := f.sess.Metrics().Snapshot().Delta(f.snap)
	get := func(name string) float64 {
		v, _ := d.Counter(name)
		return float64(v)
	}
	perOp := func(name string) float64 { return ratio(get(name), float64(ops)) }
	packets, retx := get("fwd/rel/packet"), get("fwd/rel/retransmit")
	m["fwd.retransmit_ratio"] = ratio(retx, packets)
	m["fwd.goodput_ratio"] = ratio(packets, packets+retx)
	m["fwd.nack"] = perOp("fwd/rel/nack")
	m["fwd.backoff"] = perOp("fwd/rel/backoff")
	m["fwd.drop.crc"] = perOp("fwd/drop/crc")
	m["fault.dropped"] = perOp("fault/dropped")
	m["fault.corrupted"] = perOp("fault/corrupted")
	m["coll.msgs_per_op"] = perOp("coll/msgs-out")
	m["coll.bytes_per_op"] = perOp("coll/bytes-out")
	a2av, allred, gather := newHist(), newHist(), newHist()
	for _, k := range f.ranks {
		a2av.merge(k.a2avH)
		allred.merge(k.allredH)
		gather.merge(k.gH)
	}
	m["coll.alltoallv_us_p50"] = a2av.quantile(0.5) / 1e3
	m["coll.alltoallv_us_p99"] = a2av.quantile(0.99) / 1e3
	m["coll.allreduce_us_p50"] = allred.quantile(0.5) / 1e3
	m["coll.gather_us_p50"] = gather.quantile(0.5) / 1e3
	m["coll.rank_skew_us_p50"] = f.skewH.quantile(0.5) / 1e3
	m["virt.fabric.makespan_us_p50"] = virtUS(f.virtH.quantile(0.5))
}

// close stops the rank goroutines and closes the communicators, which
// own the virtual channel. A poisoned communicator is a failure.
func (f *fabricFix) close() error {
	for _, k := range f.ranks {
		close(k.start)
	}
	f.wg.Wait()
	var first error
	for r, c := range f.comms {
		if err := c.Err(); err != nil && first == nil {
			first = fmt.Errorf("rank %d communicator poisoned: %w", r, err)
		}
		c.Close()
	}
	f.sess.Shutdown()
	return first
}
