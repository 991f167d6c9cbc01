package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"madeleine2/internal/core"
	"madeleine2/internal/metrics"
	"madeleine2/internal/simnet"
	"madeleine2/internal/tcpnet"
	"madeleine2/internal/vclock"
)

// async-fanin: one generator submits rounds of asyncConvs independent
// 64 B conversations, each on a directed pair of an 8-node tcp channel
// drawn from the seed,
// through the default progress engine, then drains the receive and send
// completion queues. An op is one conversation; its latency runs from
// its SubmitPacking to the generator seeing the receive End of the
// conversation that delivered its bytes.
//
// In virtual time the conversations of a round arrive as a seeded
// Poisson process (each conversation's causality floor is its arrival),
// and a conversation's virtual latency runs from its arrival to its
// receive End. Were they all floored at the round's start, the median
// would read the same for every seed: the fabric serializes the round.

const (
	asyncNodes = 8
	asyncConvs = 1000
	asyncBytes = 64
	asyncGapUS = 2 // mean virtual inter-arrival time, microseconds
)

type asyncFix struct {
	sess     *core.Session
	chans    map[int]*core.Channel
	scq, rcq *core.CQ
	pairs    [][2]int
	pool     []byte
	rng      *rand.Rand
	main     *track
	roundNo  uint32
	at       vclock.Time // virtual start of the next round

	src, dst []byte                 // asyncConvs payloads, sent and received
	node     []int                  // destination node of each conversation
	t0       []int64                // wall submit time of each conversation
	arrival  []vclock.Time          // virtual arrival of each conversation
	slot     map[*core.AsyncMsg]int // receive conversation -> dst slot
	seen     []bool

	ids  [8]int32
	snap metrics.Snapshot

	// Trace-mode samples (nil otherwise).
	submitH, convH, virtH *hist
	cqWait                int64
	rounds                int64
}

func setupAsync(env *env) (fixture, error) {
	t := time.Now()
	w := simnet.NewWorld(asyncNodes)
	for i := 0; i < asyncNodes; i++ {
		w.Node(i).AddAdapter(tcpnet.Network)
	}
	sess := core.NewSession(w)
	env.st.world += time.Since(t)
	t = time.Now()
	chans, err := sess.NewChannel(core.ChannelSpec{Name: "fanin", Driver: "tcp"})
	env.st.channel += time.Since(t)
	if err != nil {
		return nil, err
	}
	f := &asyncFix{
		sess:    sess,
		chans:   chans,
		scq:     core.NewCQ(),
		rcq:     core.NewCQ(),
		pool:    env.pool,
		rng:     newRand(env.seed, streamAsync),
		main:    env.main,
		src:     make([]byte, asyncConvs*asyncBytes),
		dst:     make([]byte, asyncConvs*asyncBytes),
		node:    make([]int, asyncConvs),
		t0:      make([]int64, asyncConvs),
		arrival: make([]vclock.Time, asyncConvs),
		slot:    make(map[*core.AsyncMsg]int, asyncConvs),
		seen:    make([]bool, asyncConvs),
	}
	for s := 0; s < asyncNodes; s++ {
		for d := 0; d < asyncNodes; d++ {
			if s != d {
				f.pairs = append(f.pairs, [2]int{s, d})
			}
		}
	}
	for i, call := range []string{"SubmitPacking", "SubmitPack", "SubmitEnd.send", "SubmitUnpacking", "SubmitUnpack", "SubmitEnd.recv", "CQ.Wait"} {
		f.ids[i] = env.tr.name("async."+call, "async")
	}
	f.ids[7] = env.tr.name("async.round", "bench")
	if env.traceMode {
		f.submitH, f.convH, f.virtH = newHist(), newHist(), newHist()
	}
	if err := f.run(nil); err != nil {
		f.close()
		return nil, fmt.Errorf("async warm-up: %w", err)
	}
	return f, nil
}

func (f *asyncFix) worlds() int { return 1 }

func (f *asyncFix) begin() { f.snap = f.sess.Metrics().Snapshot() }

func (f *asyncFix) round(r *recorder) error {
	f.main.on = r.traced
	return f.run(r)
}

// submitted closes the span of one Submit* call opened at s and records
// its duration.
func (f *asyncFix) submitted(s int64) {
	if e := f.main.end(); recording(f.main) {
		f.submitH.add(e - s)
	}
}

// run submits one round of conversations and drains both queues. A nil
// recorder is the warm-up round.
func (f *asyncFix) run(r *recorder) error {
	t := f.main
	f.roundNo++
	at := f.at
	arrival := at
	clear(f.slot)
	clear(f.seen)
	t.op = int64(f.roundNo)
	t.begin(f.ids[7])
	defer t.end()
	epoch := time.Now()
	for k := 0; k < asyncConvs; k++ {
		p := f.pairs[f.rng.Intn(len(f.pairs))]
		payload := f.src[k*asyncBytes : (k+1)*asyncBytes]
		binary.LittleEndian.PutUint32(payload, f.roundNo)
		binary.LittleEndian.PutUint32(payload[4:], uint32(k))
		off := f.rng.Intn(len(f.pool) - asyncBytes)
		copy(payload[8:], f.pool[off:])
		f.node[k] = p[1]
		arrival += vclock.Micros(f.rng.ExpFloat64() * asyncGapUS)
		f.arrival[k] = arrival
		f.t0[k] = int64(time.Since(epoch))

		s := t.begin(f.ids[0])
		send, err := f.chans[p[0]].SubmitPackingFrom(p[1], f.scq, arrival)
		f.submitted(s)
		if err != nil {
			return err
		}
		s = t.begin(f.ids[1])
		_ = send.SubmitPack(payload, core.SendCheaper, core.ReceiveCheaper)
		f.submitted(s)
		s = t.begin(f.ids[2])
		_ = send.SubmitEnd()
		f.submitted(s)

		s = t.begin(f.ids[3])
		recv := f.chans[p[1]].SubmitUnpackingFrom(f.rcq, arrival)
		f.submitted(s)
		f.slot[recv] = k
		s = t.begin(f.ids[4])
		_ = recv.SubmitUnpack(f.dst[k*asyncBytes:(k+1)*asyncBytes], core.SendCheaper, core.ReceiveCheaper)
		f.submitted(s)
		s = t.begin(f.ids[5])
		_ = recv.SubmitEnd()
		f.submitted(s)
	}
	var fails int
	var firstErr error
	last := at
	for got := 0; got < asyncConvs; {
		s := t.begin(f.ids[6])
		c, ok := f.rcq.Wait()
		if e := t.end(); recording(t) {
			f.cqWait += e - s
		}
		if !ok {
			return fmt.Errorf("receive queue closed")
		}
		if c.Kind != core.OpEnd {
			continue
		}
		got++
		j := f.slot[c.Req.Msg()]
		k := j
		err := c.Req.Msg().Err()
		if err == nil {
			k, err = f.verify(j)
		}
		lat := time.Since(epoch) - time.Duration(f.t0[k])
		virt := c.Time - f.arrival[k]
		last = max(last, c.Time)
		if r != nil {
			r.op(lat, virt, asyncBytes, err == nil)
			if r.traced {
				f.convH.add(int64(lat))
				f.virtH.add(int64(virt))
			}
		}
		if err != nil {
			fails++
			if firstErr == nil {
				firstErr = fmt.Errorf("round %d receive %d: %w", f.roundNo, j, err)
			}
		}
	}
	for got := 0; got < asyncConvs; {
		s := t.begin(f.ids[6])
		c, ok := f.scq.Wait()
		if e := t.end(); recording(t) {
			f.cqWait += e - s
		}
		if !ok {
			return fmt.Errorf("send queue closed")
		}
		if c.Kind == core.OpEnd {
			got++
			last = max(last, c.Time)
			if err := c.Req.Msg().Err(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("round %d send: %w", f.roundNo, err)
			}
		}
	}
	if n := f.scq.Len() + f.rcq.Len(); n != 0 && firstErr == nil {
		firstErr = fmt.Errorf("round %d: %d completions left over", f.roundNo, n)
	}
	for k, ok := range f.seen {
		if !ok && firstErr == nil {
			firstErr = fmt.Errorf("round %d: conversation %d never delivered", f.roundNo, k)
		}
	}
	f.at = last
	if r != nil && r.traced {
		f.rounds++
	}
	return firstErr
}

// verify checks receive slot j: it must hold, whole, the payload of a
// conversation k of this round addressed to j's node, not seen before.
func (f *asyncFix) verify(j int) (k int, err error) {
	got := f.dst[j*asyncBytes : (j+1)*asyncBytes]
	round := binary.LittleEndian.Uint32(got)
	k = int(binary.LittleEndian.Uint32(got[4:]))
	if round != f.roundNo || k >= asyncConvs {
		return j, fmt.Errorf("slot %d holds a foreign payload (round %d, conversation %d)", j, round, k)
	}
	if f.node[k] != f.node[j] || f.seen[k] {
		return j, fmt.Errorf("conversation %d delivered to the wrong receive or twice", k)
	}
	f.seen[k] = true
	if !bytes.Equal(got, f.src[k*asyncBytes:(k+1)*asyncBytes]) {
		return k, fmt.Errorf("conversation %d payload differs", k)
	}
	return k, nil
}

func (f *asyncFix) layers(m map[string]float64, ops int64) {
	d := f.sess.Metrics().Snapshot().Delta(f.snap)
	parked, _ := d.Counter("async/parked-lease")
	runq, _ := d.Gauge("async/runq-max")
	occ, _ := d.Gauge("async/occupancy-max")
	depth, _ := d.Gauge("async/cq-depth-max")
	m["async.submit_us_p50"] = f.submitH.quantile(0.5) / 1e3
	m["async.cq_wait_ms_per_round"] = ratio(float64(f.cqWait)/1e6, float64(f.rounds))
	m["async.conv_us_p50"] = f.convH.quantile(0.5) / 1e3
	m["async.conv_us_p99"] = f.convH.quantile(0.99) / 1e3
	m["async.parked_lease_ratio"] = ratio(float64(parked), float64(ops))
	m["async.runq_max"] = float64(runq)
	m["async.occupancy_max"] = float64(occ)
	m["async.cq_depth_max"] = float64(depth)
	m["virt.async.conv_us_p50"] = virtUS(f.virtH.quantile(0.5))
}

func (f *asyncFix) close() error {
	for _, ch := range f.chans {
		ch.Close()
	}
	f.sess.Shutdown()
	return nil
}
