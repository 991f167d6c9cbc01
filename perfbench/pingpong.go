package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"madeleine2/internal/bip"
	"madeleine2/internal/core"
	"madeleine2/internal/mpi"
	"madeleine2/internal/nexus"
	"madeleine2/internal/rdma"
	"madeleine2/internal/simnet"
	"madeleine2/internal/sisci"
	"madeleine2/internal/tcpnet"
	"madeleine2/internal/vclock"
	"madeleine2/internal/via"
)

// The ping-pong workloads, rpc-small and bulk-1m: one client sends a
// message and waits for its byte-identical echo, on two-node worlds, one
// world per leg. Batches rotate through the legs in an order drawn from
// the seed. An op is one round trip.

type legKind int

const (
	legBip legKind = iota
	legCore
	legMPI
	legNexus
)

type legSpec struct {
	name   string // metric and span prefix
	kind   legKind
	driver string
	rails  int
}

// rpcLegs is the paper's small-message stack, read bottom-up as in
// Figs. 5-7: raw BIP, Madeleine over every driver, then MPI and Nexus
// over Madeleine/SISCI. Subtracting adjacent legs gives each layer's
// own per-message cost.
var rpcLegs = []legSpec{
	{name: "bip.raw", kind: legBip},
	{name: "core.sisci", kind: legCore, driver: "sisci"},
	{name: "core.bip", kind: legCore, driver: "bip"},
	{name: "core.tcp", kind: legCore, driver: "tcp"},
	{name: "core.via", kind: legCore, driver: "via"},
	{name: "core.rdma", kind: legCore, driver: "rdma"},
	{name: "mpi.sisci", kind: legMPI, driver: "sisci"},
	{name: "nexus.sisci", kind: legNexus, driver: "sisci"},
}

// bulkLegs are the copy-dominated paths: every bulk-capable driver and a
// two-rail striped channel.
var bulkLegs = []legSpec{
	{name: "core.sisci", kind: legCore, driver: "sisci"},
	{name: "core.bip", kind: legCore, driver: "bip"},
	{name: "core.tcp", kind: legCore, driver: "tcp"},
	{name: "core.rdma", kind: legCore, driver: "rdma"},
	{name: "rail.tcp-x2", kind: legCore, driver: "tcp", rails: 2},
}

var networks = map[string]string{
	"bip": bip.Network, "sisci": sisci.Network, "tcp": tcpnet.Network,
	"via": via.Network, "rdma": rdma.Network,
}

// sizeSpec shapes a leg's message sizes: warm messages of warmSize, then
// draws from draw.
type sizeSpec struct {
	warm, warmSize, max int
	draw                func(*rand.Rand) int
}

// rpcSizes is log-uniform over 4 B..4 KiB.
var rpcSizes = sizeSpec{warm: 20, warmSize: 4, max: 4 << 10, draw: func(r *rand.Rand) int {
	return int(math.Round(math.Exp2(2 + 10*r.Float64())))
}}

// bulkSizes is uniform over the top 64 KiB below 1 MiB, so the virtual
// one-way time varies with the seed instead of reading the same on
// every run.
var bulkSizes = sizeSpec{warm: 2, warmSize: 1 << 20, max: 1 << 20, draw: func(r *rand.Rand) int {
	return 1<<20 - r.Intn(1<<16)
}}

// sizer replays a leg's size sequence; client and echo peer each hold one
// built from the same seed, so the peer knows every size without a
// header.
type sizer struct {
	spec sizeSpec
	rng  *rand.Rand
	n    int
}

func newSizer(spec sizeSpec, seed, stream uint64) *sizer {
	return &sizer{spec: spec, rng: newRand(seed, stream)}
}

func (s *sizer) next() int {
	s.n++
	if s.n <= s.spec.warm {
		return s.spec.warmSize
	}
	return s.spec.draw(s.rng)
}

// pingLeg is one ping-pong path: the client's send and receive, run on
// the benchmark's goroutine, and an echo peer in its own goroutine.
type pingLeg struct {
	spec    legSpec
	sizes   *sizer
	offs    *rand.Rand
	idOp    int32
	send    func(t *track, b []byte) error
	recv    func(t *track, b []byte) error
	now     func() vclock.Time
	stop    func() error
	chans   []*core.Channel
	statsAt []core.ChannelStats

	// Trace-mode samples (nil otherwise).
	sendH, waitH, recvH, rtH, virtH *hist
	allocs, allocB, msgs            int64
	minOneway                       vclock.Time
}

// echoPeer runs the far side of a leg: receive a message of the next
// drawn size, send it back, until stop is raised; the client then sends
// one last message that is received and not echoed.
type echoPeer struct {
	stop atomic.Bool
	done chan error
}

func startEcho(sizes *sizer, recv, send func([]byte) error) *echoPeer {
	e := &echoPeer{done: make(chan error, 1)}
	go func() {
		buf := make([]byte, sizes.spec.max)
		for {
			n := sizes.next()
			if err := recv(buf[:n]); err != nil {
				e.done <- fmt.Errorf("echo receive: %w", err)
				return
			}
			if e.stop.Load() {
				e.done <- nil
				return
			}
			if err := send(buf[:n]); err != nil {
				e.done <- fmt.Errorf("echo send: %w", err)
				return
			}
		}
	}()
	return e
}

// halt stops the echo peer and waits for it to exit.
func (l *pingLeg) halt(e *echoPeer, pool []byte) error {
	e.stop.Store(true)
	if err := l.send(nil, pool[:l.sizes.next()]); err != nil {
		return err
	}
	return <-e.done
}

// twoNodes builds a two-node world with `adapters` adapters per node on
// one network, and its session.
func twoNodes(env *env, network string, adapters int) *core.Session {
	t := time.Now()
	w := simnet.NewWorld(2)
	for i := 0; i < 2; i++ {
		for j := 0; j < adapters; j++ {
			w.Node(i).AddAdapter(network)
		}
	}
	sess := core.NewSession(w)
	env.st.world += time.Since(t)
	return sess
}

func openChannel(env *env, sess *core.Session, spec legSpec) (map[int]*core.Channel, error) {
	t := time.Now()
	cs := core.ChannelSpec{Name: spec.name, Driver: spec.driver}
	for i := 0; i < spec.rails && spec.rails > 1; i++ {
		cs.Rails = append(cs.Rails, core.RailSpec{Driver: spec.driver, Adapter: i})
	}
	chans, err := sess.NewChannel(cs)
	env.st.channel += time.Since(t)
	return chans, err
}

func recording(t *track) bool { return t != nil && t.on }

// coreEnd is one rank's side of a Madeleine channel leg.
type coreEnd struct {
	ch     *core.Channel
	a      *vclock.Actor
	remote int
	ids    [6]int32
}

func (e *coreEnd) send(t *track, b []byte, h *hist) error {
	s := t.begin(e.ids[0])
	cn, err := e.ch.BeginPacking(e.a, e.remote)
	if err != nil {
		t.end()
		return err
	}
	t.end()
	t.begin(e.ids[1])
	if err := cn.Pack(b, core.SendCheaper, core.ReceiveCheaper); err != nil {
		t.end()
		return err
	}
	t.end()
	t.begin(e.ids[2])
	err = cn.EndPacking()
	if end := t.end(); recording(t) {
		h.add(end - s)
	}
	return err
}

func (e *coreEnd) recv(t *track, b []byte, wait, body *hist) error {
	s := t.begin(e.ids[3])
	cn, err := e.ch.BeginUnpacking(e.a)
	if err != nil {
		t.end()
		return err
	}
	m := t.end()
	t.begin(e.ids[4])
	if err := cn.Unpack(b, core.SendCheaper, core.ReceiveCheaper); err != nil {
		t.end()
		return err
	}
	t.end()
	t.begin(e.ids[5])
	err = cn.EndUnpacking()
	if end := t.end(); recording(t) {
		wait.add(m - s)
		body.add(end - m)
	}
	return err
}

func newLeg(env *env, spec legSpec, sizes sizeSpec, stream uint64) (*pingLeg, error) {
	l := &pingLeg{
		spec:  spec,
		sizes: newSizer(sizes, env.seed, stream),
		offs:  newRand(env.seed, stream+1000),
		idOp:  env.tr.name(spec.name+".op", "bench"),
	}
	if env.traceMode {
		l.sendH, l.waitH, l.recvH, l.rtH, l.virtH = newHist(), newHist(), newHist(), newHist(), newHist()
	}
	peer := newSizer(sizes, env.seed, stream)
	var err error
	switch spec.kind {
	case legBip:
		err = l.buildBip(env, peer)
	case legCore:
		err = l.buildCore(env, peer)
	case legMPI:
		err = l.buildMPI(env, peer)
	case legNexus:
		err = l.buildNexus(env)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	return l, nil
}

func (l *pingLeg) buildCore(env *env, peer *sizer) error {
	rails := max(l.spec.rails, 1)
	sess := twoNodes(env, networks[l.spec.driver], rails)
	chans, err := openChannel(env, sess, l.spec)
	if err != nil {
		return err
	}
	l.chans = []*core.Channel{chans[0], chans[1]}
	var ids [6]int32
	for i, call := range []string{"BeginPacking", "Pack", "EndPacking", "BeginUnpacking", "Unpack", "EndUnpacking"} {
		ids[i] = env.tr.name(l.spec.name+"."+call, "core")
	}
	client := &coreEnd{ch: chans[0], a: vclock.NewActor(l.spec.name + "/client"), remote: 1, ids: ids}
	far := &coreEnd{ch: chans[1], a: vclock.NewActor(l.spec.name + "/echo"), remote: 0}
	l.send = func(t *track, b []byte) error { return client.send(t, b, l.sendH) }
	l.recv = func(t *track, b []byte) error { return client.recv(t, b, l.waitH, l.recvH) }
	l.now = client.a.Now
	echo := startEcho(peer,
		func(b []byte) error { return far.recv(nil, b, nil, nil) },
		func(b []byte) error { return far.send(nil, b, nil) })
	l.stop = func() error {
		err := l.halt(echo, env.pool)
		chans[0].Close()
		chans[1].Close()
		return err
	}
	return nil
}

// bipEnd is one rank's side of the raw BIP leg: short messages below
// bip.ShortMax, rendezvous long messages above.
type bipEnd struct {
	b    *bip.Interface
	a    *vclock.Actor
	peer int
	ids  [2]int32
}

func (e *bipEnd) send(t *track, b []byte) error {
	t.begin(e.ids[0])
	defer t.end()
	if len(b) < bip.ShortMax {
		return e.b.TSendShort(e.a, e.peer, 0, b)
	}
	return e.b.TSendLong(e.a, e.peer, 0, b)
}

func (e *bipEnd) recv(t *track, b []byte) error {
	t.begin(e.ids[1])
	defer t.end()
	if len(b) < bip.ShortMax {
		d, err := e.b.TRecvShort(e.a, e.peer, 0)
		if err != nil {
			return err
		}
		if len(d) != len(b) {
			return fmt.Errorf("bip short receive: %d B, want %d", len(d), len(b))
		}
		copy(b, d)
		return nil
	}
	n, err := e.b.TRecvLong(e.a, e.peer, 0, b)
	if err == nil && n != len(b) {
		err = fmt.Errorf("bip long receive: %d B, want %d", n, len(b))
	}
	return err
}

func (l *pingLeg) buildBip(env *env, peer *sizer) error {
	sess := twoNodes(env, bip.Network, 1)
	t := time.Now()
	b0, err := bip.Attach(sess.World().Node(0), 0)
	if err != nil {
		return err
	}
	b1, err := bip.Attach(sess.World().Node(1), 0)
	if err != nil {
		return err
	}
	env.st.channel += time.Since(t)
	client := &bipEnd{b: b0, a: vclock.NewActor("bip/ping"), peer: 1,
		ids: [2]int32{env.tr.name("bip.raw.TSend", "bip"), env.tr.name("bip.raw.TRecv", "bip")}}
	far := &bipEnd{b: b1, a: vclock.NewActor("bip/pong"), peer: 0}
	l.send, l.recv, l.now = client.send, client.recv, client.a.Now
	echo := startEcho(peer,
		func(b []byte) error { return far.recv(nil, b) },
		func(b []byte) error { return far.send(nil, b) })
	l.stop = func() error { return l.halt(echo, env.pool) }
	return nil
}

func (l *pingLeg) buildMPI(env *env, peer *sizer) error {
	sess := twoNodes(env, networks[l.spec.driver], 1)
	chans, err := openChannel(env, sess, l.spec)
	if err != nil {
		return err
	}
	t := time.Now()
	c0, err := mpi.NewComm(chans[0], vclock.NewActor("mpi/0"))
	if err != nil {
		return err
	}
	c1, err := mpi.NewComm(chans[1], vclock.NewActor("mpi/1"))
	if err != nil {
		return err
	}
	env.st.channel += time.Since(t)
	idSend := env.tr.name(l.spec.name+".Send", "mpi")
	idRecv := env.tr.name(l.spec.name+".Recv", "mpi")
	recvFrom := func(c *mpi.Comm, t *track, b []byte) error {
		t.begin(idRecv)
		defer t.end()
		st, err := c.Recv(1-c.Rank(), 0, b)
		if err == nil && st.Count != len(b) {
			err = fmt.Errorf("mpi receive: %d B, want %d", st.Count, len(b))
		}
		return err
	}
	l.send = func(t *track, b []byte) error {
		t.begin(idSend)
		defer t.end()
		return c0.Send(1, 0, b)
	}
	l.recv = func(t *track, b []byte) error { return recvFrom(c0, t, b) }
	l.now = c0.Actor().Now
	echo := startEcho(peer,
		func(b []byte) error { return recvFrom(c1, nil, b) },
		func(b []byte) error { return c1.Send(0, 0, b) })
	l.stop = func() error {
		err := l.halt(echo, env.pool)
		if n0, n1 := c0.Inflight(), c1.Inflight(); err == nil && n0+n1 != 0 {
			err = fmt.Errorf("mpi: %d requests still in flight", n0+n1)
		}
		c0.Close()
		c1.Close()
		chans[0].Close()
		chans[1].Close()
		return err
	}
	return nil
}

type nexusReply struct {
	data []byte
	at   vclock.Time
	err  error
}

// buildNexus wires the Fig. 7 echo service: handler 1 on the far process
// echoes the body back as an RSR to handler 2 on the client's process.
func (l *pingLeg) buildNexus(env *env) error {
	sess := twoNodes(env, networks[l.spec.driver], 1)
	chans, err := openChannel(env, sess, l.spec)
	if err != nil {
		return err
	}
	t := time.Now()
	p0, p1 := nexus.Attach(chans[0]), nexus.Attach(chans[1])
	sp01, err := p0.Bind(1)
	if err != nil {
		return err
	}
	sp10, err := p1.Bind(0)
	if err != nil {
		return err
	}
	env.st.channel += time.Since(t)
	replies := make(chan nexusReply, 1)
	p1.Register(1, func(a *vclock.Actor, _ int, buf *nexus.Buffer) {
		data, err := buf.GetBytes()
		if err == nil {
			err = sp10.RSR(a, 2, nexus.NewBuffer().PutBytes(data))
		}
		if err != nil {
			replies <- nexusReply{err: fmt.Errorf("echo handler: %w", err)}
		}
	})
	p0.Register(2, func(a *vclock.Actor, _ int, buf *nexus.Buffer) {
		data, err := buf.GetBytes()
		replies <- nexusReply{data: data, at: a.Now(), err: err}
	})
	app := vclock.NewActor("nexus/app")
	idRSR := env.tr.name(l.spec.name+".RSR", "nexus")
	idWait := env.tr.name(l.spec.name+".reply_wait", "nexus")
	l.send = func(t *track, b []byte) error {
		t.begin(idRSR)
		defer t.end()
		return sp01.RSR(app, 1, nexus.NewBuffer().PutBytes(b))
	}
	l.recv = func(t *track, b []byte) error {
		t.begin(idWait)
		rep := <-replies
		t.end()
		if rep.err != nil {
			return rep.err
		}
		if len(rep.data) != len(b) {
			return fmt.Errorf("nexus reply: %d B, want %d", len(rep.data), len(b))
		}
		copy(b, rep.data)
		app.Sync(rep.at)
		return nil
	}
	l.now = app.Now
	l.stop = func() error {
		p0.Close()
		p1.Close()
		return nil
	}
	return nil
}

// rt runs one round trip of a drawn size from a seeded pool offset and
// checks the echo byte for byte.
func (l *pingLeg) rt(t *track, pool, in []byte) (lat time.Duration, oneway vclock.Time, n int, err error) {
	n = l.sizes.next()
	off := l.offs.Intn(len(pool) - l.sizes.spec.max)
	out := pool[off : off+n]
	in = in[:n]
	v0 := l.now()
	t0 := time.Now()
	t.begin(l.idOp)
	err = l.send(t, out)
	if err == nil {
		err = l.recv(t, in)
	}
	t.end()
	lat = time.Since(t0)
	if err != nil {
		return lat, 0, n, err
	}
	oneway = (l.now() - v0) / 2
	if !bytes.Equal(in, out) {
		return lat, oneway, n, fmt.Errorf("echo of %d B differs from what was sent", n)
	}
	return lat, oneway, n, nil
}

// pingFix is one set-up of a ping-pong workload: a warmed-up world per
// leg.
type pingFix struct {
	legs  []*pingLeg
	order []int
	rot   *rand.Rand
	batch int
	pool  []byte
	in    []byte
	main  *track
	// anchors: the warm-up ping-pongs 4 B messages, which is how the
	// figures measure minimal latency, so it reports virt.<leg>.min_oneway_us.
	anchors bool
}

func setupPing(env *env, specs []legSpec, sizes sizeSpec, batch int) (*pingFix, error) {
	f := &pingFix{
		rot:     newRand(env.seed, streamRotation),
		batch:   batch,
		pool:    env.pool,
		in:      make([]byte, sizes.max),
		main:    env.main,
		anchors: sizes.warmSize == 4,
	}
	for i, spec := range specs {
		l, err := newLeg(env, spec, sizes, streamLegs+uint64(2*i))
		if err != nil {
			f.close()
			return nil, err
		}
		f.legs = append(f.legs, l)
		f.order = append(f.order, i)
	}
	for _, l := range f.legs {
		for i := 0; i < sizes.warm; i++ {
			_, oneway, _, err := l.rt(nil, f.pool, f.in)
			if err != nil {
				f.close()
				return nil, fmt.Errorf("%s warm-up: %w", l.spec.name, err)
			}
			if i >= sizes.warm/2 && (l.minOneway == 0 || oneway < l.minOneway) {
				l.minOneway = oneway
			}
		}
	}
	return f, nil
}

func (f *pingFix) worlds() int { return len(f.legs) }

func (f *pingFix) begin() {
	for _, l := range f.legs {
		l.statsAt = l.statsAt[:0]
		for _, ch := range l.chans {
			l.statsAt = append(l.statsAt, ch.Stats())
		}
	}
}

func (f *pingFix) round(r *recorder) error {
	f.rot.Shuffle(len(f.order), func(i, j int) { f.order[i], f.order[j] = f.order[j], f.order[i] })
	f.main.on = r.traced
	var m0, m1 runtime.MemStats
	for _, li := range f.order {
		l := f.legs[li]
		if r.allocs {
			runtime.ReadMemStats(&m0)
		}
		for i := 0; i < f.batch; i++ {
			f.main.op = r.ops
			lat, oneway, n, err := l.rt(f.main, f.pool, f.in)
			r.op(lat, oneway, 2*n, err == nil)
			if err != nil {
				return fmt.Errorf("%s: %w", l.spec.name, err)
			}
			if r.traced {
				l.rtH.add(int64(lat))
				l.virtH.add(int64(oneway))
			}
		}
		if r.allocs {
			runtime.ReadMemStats(&m1)
			l.allocs += int64(m1.Mallocs - m0.Mallocs)
			l.allocB += int64(m1.TotalAlloc - m0.TotalAlloc)
			l.msgs += int64(2 * f.batch)
		}
	}
	return nil
}

func (f *pingFix) layers(m map[string]float64, _ int64) {
	var msgs, commits int64
	tms := make(map[string]int64)
	for _, l := range f.legs {
		name := l.spec.name
		perMsg := func(v int64) float64 { return ratio(float64(v), float64(l.msgs)) }
		switch {
		case l.spec.kind == legBip:
			m["bip.raw.rt_us_p50"] = l.rtH.quantile(0.5) / 1e3
		case l.spec.kind == legMPI:
			m["mpi.sisci.rt_us_p50"] = l.rtH.quantile(0.5) / 1e3
			m["mpi.allocs_per_msg"] = perMsg(l.allocs)
		case l.spec.kind == legNexus:
			m["nexus.sisci.rsr_us_p50"] = l.rtH.quantile(0.5) / 1e3
		case l.spec.rails > 1:
			m[name+".alloc_B_per_msg"] = perMsg(l.allocB)
			m[name+".rt_us_p50"] = l.rtH.quantile(0.5) / 1e3
		default:
			m[name+".send_us_p50"] = l.sendH.quantile(0.5) / 1e3
			m[name+".recv_wait_us_p50"] = l.waitH.quantile(0.5) / 1e3
			m[name+".recv_us_p50"] = l.recvH.quantile(0.5) / 1e3
			m[name+".allocs_per_msg"] = perMsg(l.allocs)
			m[name+".alloc_B_per_msg"] = perMsg(l.allocB)
		}
		m["virt."+name+".oneway_us"] = virtUS(l.virtH.quantile(0.5))
		if f.anchors {
			m["virt."+name+".min_oneway_us"] = virtUS(float64(l.minOneway))
		}
		if l.spec.kind != legCore {
			continue
		}
		for i, ch := range l.chans {
			now, was := ch.Stats(), l.statsAt[i]
			msgs += now.MessagesOut - was.MessagesOut
			commits += now.Commits - was.Commits
			for tm, n := range now.TMBlocks {
				tms[tm] += n - was.TMBlocks[tm]
			}
		}
	}
	m["core.commits_per_msg"] = ratio(float64(commits), float64(msgs))
	for tm, n := range tms {
		if n != 0 {
			m["core.tm_blocks."+tm] = ratio(float64(n), float64(msgs))
		}
	}
}

func (f *pingFix) close() error {
	var first error
	for _, l := range f.legs {
		if err := l.stop(); err != nil && first == nil {
			first = fmt.Errorf("%s: %w", l.spec.name, err)
		}
	}
	return first
}

func virtUS(t float64) float64 { return t / float64(vclock.Microsecond) }
