package fwd

import (
	"errors"
	"fmt"

	"madeleine2/internal/core"
	"madeleine2/internal/model"
	"madeleine2/internal/simnet"
	"madeleine2/internal/vclock"
)

// This file is the gateway side of the Generic TM (§6.1–§6.2): a receiver
// daemon per (node, real channel) that either delivers packets locally or
// hands them to a forwarding pipeline — two threads exchanging two static
// buffers (dual-buffering, Fig. 9) — whose virtual-time behaviour follows
// the paper's pipeline-period analysis:
//
//	period = max(T_recv, T_send_contended, busFloor) + stepOverhead
//
// T_recv arrives emergently through the incoming packets' stamps; the
// send thread adds the per-step software overhead (≈50 µs, §6.2.2), the
// PCI bus's full-duplex floor (§6.2.2) and the DMA-over-PIO penalty
// (§6.2.3) through the node's bus model.
//
// Remote-derived anomalies never panic the daemon. In reliable mode every
// damaged packet is counted, drained and NACKed; without the protocol the
// daemon degrades as far as the wire format allows: a corrupt payload is
// relayed for the edge to detect, an unroutable packet is dropped, and
// only a damaged header — which hides the payload length and therefore
// desynchronizes the byte stream beyond recovery — is fatal, for the
// handle (VC.Err), not the process.

// token is one of a pipeline's two forwarding buffers.
type token struct {
	buf   []byte
	stamp vclock.Time // when the buffer was freed by the send thread
}

// workItem is a received packet waiting on the pipeline's send thread.
type workItem struct {
	hdr     header
	payload []byte // aliases the token's buffer
	tok     *token
	stampIn vclock.Time // receive completion on the daemon's clock
}

// pipeline is one forwarding direction on a gateway: packets arriving on
// segment inSeg leaving on segment outSeg.
type pipeline struct {
	v      *VC
	inSeg  int
	outSeg int
	free   *simnet.Queue[*token]
	work   *simnet.Queue[workItem]
}

// pipelineBuffers is the dual-buffering depth (Fig. 9 uses two).
const pipelineBuffers = 2

// pipe returns (creating and starting) the pipeline for a direction. A
// pipeline created after Close has begun is stillborn: its queues close
// immediately so the requesting daemon unblocks and exits.
func (v *VC) pipe(inSeg, outSeg int) *pipeline {
	v.mu.Lock()
	defer v.mu.Unlock()
	key := [2]int{inSeg, outSeg}
	p := v.pipes[key]
	if p == nil {
		p = &pipeline{
			v:      v,
			inSeg:  inSeg,
			outSeg: outSeg,
			free:   simnet.NewQueue[*token](),
			work:   simnet.NewQueue[workItem](),
		}
		for i := 0; i < pipelineBuffers; i++ {
			p.free.Push(&token{buf: make([]byte, v.mtu)})
		}
		v.pipes[key] = p
		if v.closing() {
			p.work.Close()
			p.free.Close()
		}
		go p.run()
	}
	return p
}

// daemon serves one real channel of the virtual channel on this rank:
// it reads each packet's self-description header express, then delivers
// the payload locally or forwards it.
func (v *VC) daemon(segIdx int, ch *core.Channel) {
	a := vclock.NewActor(fmt.Sprintf("%s/n%d/seg%d-rx", v.name, v.rank, segIdx))
	d := &daemonState{
		v: v, a: a, segIdx: segIdx, ch: ch,
		lastLSeq: make(map[int]uint32),
	}
	if v.spec.Reliable {
		d.scratch = make([]byte, v.mtu)
	}
	hsize := hdrSize
	if v.spec.Reliable {
		hsize = rhdrSize
	}
	for {
		conn, err := ch.BeginUnpacking(a)
		if err != nil {
			return // channel closed
		}
		hb := make([]byte, hsize)
		if err := conn.Unpack(hb, core.SendCheaper, core.ReceiveExpress); err != nil {
			v.daemonIO(a, err)
			return
		}
		d.hdrAt = a.Now() // the packet's wire activity starts here
		var keep bool
		if v.spec.Reliable {
			keep = d.recvReliable(conn, hb)
		} else {
			keep = d.recvBestEffort(conn, hb)
		}
		if !keep {
			return
		}
	}
}

// daemonState carries one receiver daemon's per-loop context.
type daemonState struct {
	v      *VC
	a      *vclock.Actor
	segIdx int
	ch     *core.Channel

	hdrAt      vclock.Time
	throttleAt vclock.Time
	lastLSeq   map[int]uint32 // reliable: previous hop -> last accepted link seq
	scratch    []byte         // reliable: drain target for packets being dropped
}

// daemonIO classifies a channel-level failure under a daemon: shutdown is
// quiet, anything else surfaces on the handle. Either way the daemon
// stops.
func (v *VC) daemonIO(a *vclock.Actor, err error) {
	if !errors.Is(err, core.ErrClosed) {
		v.fail(fmt.Errorf("fwd daemon %s: %w", a.Name(), err))
	}
}

// throttle is the future-work bandwidth control: regulate the incoming
// flow by pacing payload receptions at the configured average rate (§7).
func (d *daemonState) throttle(n int) {
	if d.v.spec.BandwidthControl > 0 {
		d.throttleAt += vclock.TimeForBytes(n, d.v.spec.BandwidthControl)
		d.a.Sync(d.throttleAt)
	}
}

// recvBestEffort handles one packet without the reliability protocol —
// the paper's trust-the-fabric mode, degrading gracefully instead of
// panicking. Reports whether the daemon should keep serving.
func (d *daemonState) recvBestEffort(conn *core.Connection, hb []byte) bool {
	v, a := d.v, d.a
	h, err := decodeHeader(hb)
	if err != nil {
		// The header hides the payload length; without it the byte
		// stream cannot be resynchronized. Lose the handle, not the
		// process — but close the message scope first, so the dead
		// daemon does not keep the receive lease wedged.
		_ = conn.EndUnpacking()
		v.count(EvDropHeader)
		v.fail(fmt.Errorf("fwd daemon %s: unrecoverable: %w", a.Name(), err))
		return false
	}
	d.throttle(h.Len)
	if h.Len < 0 || h.Len > v.mtu {
		_ = conn.EndUnpacking()
		v.count(EvDropLen)
		v.fail(fmt.Errorf("fwd daemon %s: unrecoverable: packet length %d (MTU %d), corrupted header", a.Name(), h.Len, v.mtu))
		return false
	}
	if h.Dst == v.rank {
		payload := make([]byte, h.Len)
		if h.Len > 0 {
			if err := conn.Unpack(payload, core.SendCheaper, core.ReceiveCheaper); err != nil {
				v.daemonIO(a, err)
				return false
			}
		}
		if err := conn.EndUnpacking(); err != nil {
			v.daemonIO(a, err)
			return false
		}
		corrupt := checksum(payload) != h.CRC
		if corrupt {
			v.count(EvDeliveredCorrupt)
		}
		return d.deliver(h, payload, corrupt)
	}
	hp, ok := v.next[h.Dst]
	if !ok {
		// A routable header with an unknown destination: drain and drop
		// this packet, keep the stream (and the daemon) alive.
		v.count(EvDropRoute)
		if h.Len > 0 {
			sink := make([]byte, h.Len)
			if err := conn.Unpack(sink, core.SendCheaper, core.ReceiveCheaper); err != nil {
				v.daemonIO(a, err)
				return false
			}
		}
		if err := conn.EndUnpacking(); err != nil {
			v.daemonIO(a, err)
			return false
		}
		return true
	}
	// Forwarding: obtain one of the pipeline's two buffers (the
	// dual-buffer exchange point).
	p := v.pipe(d.segIdx, hp.seg)
	tok, ok := p.free.Pop()
	if !ok {
		// Pipeline closed mid-message: release the receive lease on the
		// way out so the VC's close path is not left waiting on it.
		_ = conn.EndUnpacking()
		return false
	}
	a.Sync(tok.stamp)
	payload := tok.buf[:h.Len]
	if h.Len > 0 {
		if err := conn.Unpack(payload, core.SendCheaper, core.ReceiveCheaper); err != nil {
			v.daemonIO(a, err)
			return false
		}
	}
	if err := conn.EndUnpacking(); err != nil {
		v.daemonIO(a, err)
		return false
	}
	if checksum(payload) != h.CRC {
		// Mid-route corruption: the packet is still routable, so relay
		// it and let the delivering edge detect it — the gateway only
		// counts the sighting. Dropping here would silently desync the
		// destination's stream, which has no way to learn a packet died.
		v.count(EvRelayedCorrupt)
	}
	// The incoming transfer's wire interval: from the header's arrival
	// through the payload's byte time (the receive side of Fig. 9),
	// tagged with the originating trace at this gateway's relay hop.
	v.rec.RecordT(a.Name(), d.hdrAt, d.hdrAt+d.ch.Link(h.Len).ByteTime(h.Len), "r", h.Trace, h.Hop+1)
	return p.work.PushIfOpen(workItem{hdr: h, payload: payload, tok: tok, stampIn: a.Now()})
}

// recvReliable handles one packet under the reliability protocol: decide
// the packet's fate from its (checksummed) header, drain exactly one MTU
// of payload whatever the fate, then answer with exactly one verdict.
func (d *daemonState) recvReliable(conn *core.Connection, hb []byte) bool {
	v, a := d.v, d.a
	prev := conn.Remote()
	h, herr := decodeHeaderR(hb)

	const (
		frDeliver = iota
		frForward
		frDup
		frDrop
	)
	fate := frDrop
	var hp hop
	switch {
	case herr != nil:
		v.count(EvDropHeader)
	case h.Len < 0 || h.Len > v.mtu:
		v.count(EvDropLen)
	case h.LSeq == d.lastLSeq[prev]:
		// The retransmit of a packet whose acknowledgment was lost:
		// suppress the duplicate delivery, acknowledge again.
		fate = frDup
		v.count(EvDupSuppressed)
	case h.Dst == v.rank:
		fate = frDeliver
	default:
		var ok bool
		if hp, ok = v.next[h.Dst]; ok {
			fate = frForward
		} else {
			v.count(EvDropRoute)
		}
	}
	if herr == nil {
		d.throttle(h.Len)
	}

	// Fixed framing: a reliable packet is always exactly one MTU on the
	// wire, so every fate — even a damaged header — can drain it and
	// keep the stream aligned.
	var p *pipeline
	var tok *token
	dst := d.scratch
	switch fate {
	case frDeliver:
		dst = make([]byte, v.mtu)
	case frForward:
		p = v.pipe(d.segIdx, hp.seg)
		var ok bool
		if tok, ok = p.free.Pop(); !ok {
			// Pipeline closed mid-message: release the receive lease on
			// the way out (see recvBestEffort).
			_ = conn.EndUnpacking()
			return false
		}
		a.Sync(tok.stamp)
		dst = tok.buf
	}
	if err := conn.Unpack(dst[:v.mtu], core.SendCheaper, core.ReceiveCheaper); err != nil {
		v.daemonIO(a, err)
		return false
	}
	if err := conn.EndUnpacking(); err != nil {
		v.daemonIO(a, err)
		return false
	}
	if (fate == frDeliver || fate == frForward) && checksum(dst[:h.Len]) != h.CRC {
		v.count(EvDropCRC)
		if tok != nil {
			p.free.PushIfOpen(tok)
		}
		fate = frDrop
	}

	switch fate {
	case frDeliver:
		if !d.deliver(h, dst[:h.Len], false) {
			return false
		}
		d.lastLSeq[prev] = h.LSeq
	case frForward:
		v.rec.RecordT(a.Name(), d.hdrAt, d.hdrAt+d.ch.Link(h.Len).ByteTime(h.Len), "r", h.Trace, h.Hop+1)
		if !p.work.PushIfOpen(workItem{hdr: h, payload: tok.buf[:h.Len], tok: tok, stampIn: a.Now()}) {
			return false
		}
		d.lastLSeq[prev] = h.LSeq
	}
	// Exactly one verdict per arrival, after the packet is truly taken
	// (or refused): an acknowledged packet is never lost to a full
	// pipeline or a closing stream.
	vAt := a.Now()
	v.sendVerdict(a, d.segIdx, prev, fate != frDrop)
	if fate == frDrop && herr == nil && h.Trace != 0 {
		// A NACK interrupts a traced message's journey: tag the verdict
		// send so the merged export shows where the loss was paid.
		v.rec.RecordT(a.Name(), vAt, a.Now(), "n:nack", h.Trace, h.Hop+1)
	}
	return true
}

// deliver pushes one accepted payload into the destination stream. A
// false return means delivery raced shutdown and the daemon should stop.
func (d *daemonState) deliver(h header, payload []byte, corrupt bool) bool {
	v := d.v
	if h.Flags&flagFirst != 0 {
		if !v.msgStart.PushIfOpen(h.Origin) {
			v.count(EvDropClosed)
			return false
		}
	}
	if !v.stream(h.Origin).q.PushIfOpen(chunk{
		data:    payload,
		stamp:   d.a.Now(),
		first:   h.Flags&flagFirst != 0,
		last:    h.Flags&flagLast != 0,
		corrupt: corrupt,
		trace:   h.Trace,
		hop:     h.Hop + 1, // delivery hop: sorts after every relay
	}) {
		v.count(EvDropClosed)
		return false
	}
	return true
}

// run is the pipeline's send thread.
func (p *pipeline) run() {
	v := p.v
	a := vclock.NewActor(fmt.Sprintf("%s/n%d/%d->%d-tx", v.name, v.rank, p.inSeg, p.outSeg))
	bus := v.sess.World().Node(v.rank).Bus()
	inCh, outCh := v.chans[p.inSeg], v.chans[p.outSeg]
	var prevReady, prevSendEnd vclock.Time
	for {
		w, ok := p.work.Pop()
		if !ok {
			return
		}
		n := len(w.payload)
		rxLink, txLink := inCh.Link(n), outCh.Link(n)

		// A step is contended when packets arrive too densely for the
		// pipeline to alternate receive and send: unless the incoming gap
		// covers a full receive plus a full send, the two transfers
		// overlap on the bus. Bandwidth control (§7) widens the incoming
		// gap and is how the overlap is broken deliberately.
		inGap := rxLink.Time(n)
		if v.spec.BandwidthControl > 0 {
			inGap = vclock.Max(inGap, vclock.TimeForBytes(n, v.spec.BandwidthControl))
		}
		contended := inGap < rxLink.Time(n)+txLink.Time(n)

		ready := vclock.Max(w.stampIn, prevSendEnd)
		if contended {
			// Full-duplex PCI saturation: 2n bytes cross the bus per
			// step, and the per-step software overhead stays serial.
			ready = vclock.Max(ready, prevReady+bus.Floor(n)+model.GatewayStepOverhead)
		}
		a.Sync(ready)
		a.Advance(model.GatewayStepOverhead) // buffer exchange + header processing

		if contended {
			// DMA-over-PIO arbitration: the send slows while the NIC is
			// mastering the bus with the next packet's receive.
			_, ttxEff := bus.StepTimes(rxLink, txLink, n)
			if extra := ttxEff - txLink.Time(n); extra > 0 {
				a.Advance(extra)
			}
		}
		// Copy avoidance (§6.1): receiving into the outgoing protocol's
		// static buffer saves the gateway copy except when both sides use
		// static buffers (or the ablation forces the copy).
		if v.spec.ForceGatewayCopy || (inCh.UsesStatic(n) && outCh.UsesStatic(n)) {
			a.Advance(vclock.TimeForBytes(n, model.MadCopyBandwidth))
		}

		w.hdr.Hop++ // one more relay on the message's journey
		if err := v.sendPacketOn(p.outSeg, a, v.next[w.hdr.Dst].next, w.hdr, w.payload); err != nil {
			if !errors.Is(err, core.ErrClosed) {
				v.fail(fmt.Errorf("fwd pipeline %s: %w", a.Name(), err))
			}
			return
		}
		v.rec.RecordT(a.Name(), ready, a.Now(), "s", w.hdr.Trace, w.hdr.Hop)
		prevReady, prevSendEnd = ready, a.Now()

		w.tok.stamp = a.Now()
		if !p.free.PushIfOpen(w.tok) {
			return
		}
	}
}
