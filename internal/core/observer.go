package core

import (
	"fmt"
	"strings"
	"sync"

	"madeleine2/internal/metrics"
	"madeleine2/internal/trace"
	"madeleine2/internal/vclock"
)

// Observer is the session-level observability sink: an optional span
// recorder shared by every layer of the message path (pack/unpack,
// Switch-module commits and checkouts, BMM flushes, lease-acquisition
// waits, per-TM transfers, and the forwarding gateway's pipeline) plus
// per-TM latency histograms aggregated across every channel of the
// session. Install it with Session.SetObserver before creating channels.
//
// Counters, gauges and histograms live in a metrics.Registry: installing
// the observer makes its registry the session's (Session.Metrics), so the
// always-on plane and the observer report from the same values.
//
// A nil *Observer is the no-op fast path: channels skip every span
// instrumentation hook (the always-on metrics then land in the session's
// base registry). A non-nil Observer with a nil Recorder keeps only the
// metrics.
type Observer struct {
	rec *trace.Recorder
	reg *metrics.Registry

	mu    sync.Mutex
	wraps map[TM]*obsTM
}

// NewObserver returns an observer recording spans into rec (which may be
// nil to keep only the metrics).
func NewObserver(rec *trace.Recorder) *Observer {
	return &Observer{rec: rec, reg: metrics.NewRegistry()}
}

// Metrics exposes the observer's registry; nil-safe.
func (o *Observer) Metrics() *metrics.Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Recorder exposes the span sink; nil-safe.
func (o *Observer) Recorder() *trace.Recorder {
	if o == nil {
		return nil
	}
	return o.rec
}

// Report renders one registry snapshot: the latency histograms (per TM
// direction, and per rail on striped channels) as a table, then the
// counters and the high-water-mark gauges that have moved.
func (o *Observer) Report() string {
	var b strings.Builder
	snap := o.Metrics().Snapshot()
	if len(snap.Hists) == 0 {
		b.WriteString("(no TM latencies observed)\n")
	} else {
		fmt.Fprintf(&b, "%-18s %8s %12s %12s %12s %12s %12s\n",
			"tm", "count", "min", "p50", "p99", "max", "mean")
		for _, h := range snap.Hists {
			fmt.Fprintf(&b, "%-18s %8d %12v %12v %12v %12v %12v\n",
				h.Name, h.Count, h.Min, h.P50, h.P99, h.Max, h.Mean())
		}
	}
	reportNonZero(&b, "events:\n", snap.Counters)
	reportNonZero(&b, "high-water marks:\n", snap.Gauges)
	return b.String()
}

// reportNonZero renders the nonzero values of one snapshot section under
// its heading; a section with none prints nothing.
func reportNonZero(b *strings.Builder, heading string, vs []metrics.NamedValue) {
	for _, v := range vs {
		if v.Value == 0 {
			continue
		}
		if heading != "" {
			b.WriteString(heading)
			heading = ""
		}
		fmt.Fprintf(b, "  %-24s %8d\n", v.Name, v.Value)
	}
}

// span records one interval ending now on the channel's observer; the
// no-op when unobserved is a single nil check on the hot path. The nil
// receiver is safe so BMMs built over a bare ConnState (white-box tests)
// can call through cs.ch unconditionally.
func (c *Channel) span(a *vclock.Actor, start vclock.Time, label string) {
	if c != nil && c.obs != nil {
		c.obs.rec.Record(a.Name(), start, a.Now(), label)
	}
}

// obsTM decorates a transmission module with transfer spans and per-TM
// latency attribution. BMM constructors install it (instrumentTM), so
// every wire operation of every PMM — built-in or externally registered —
// reports through the same sink without per-driver wiring. The embedded
// TM serves Name/Link/StaticSize/NewBMM untouched.
type obsTM struct {
	TM
	rec     *trace.Recorder
	tx, rx  *trace.Histogram
	txLabel string // "x:<tm>": send-side transfer spans
	rxLabel string // "v:<tm>": receive-side transfer spans
}

// instrumentTM wraps tm when the channel is observed; the identity
// function otherwise (including BMMs built over a bare ConnState with no
// channel, as white-box tests do). Idempotent, and canonical per TM
// identity: the observer caches one decorator per underlying TM, so the
// sync wrappers and the progress engine — whose workers build BMM
// instances for the same TMs concurrently — resolve the same decorator
// and the same pair of histograms. Without the cache each BMM
// construction would register a fresh decorator around the shared
// histograms, and a TM reached from both paths would be wrapped twice.
func instrumentTM(tm TM, cs *ConnState) TM {
	if cs == nil || cs.ch == nil || cs.ch.obs == nil {
		return tm
	}
	o := cs.ch.obs
	if _, wrapped := tm.(*obsTM); wrapped {
		return tm
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if w := o.wraps[tm]; w != nil {
		return w
	}
	if o.wraps == nil {
		o.wraps = make(map[TM]*obsTM)
	}
	name := tm.Name()
	w := &obsTM{
		TM:      tm,
		rec:     o.rec,
		tx:      o.reg.Histogram(name + "/tx"),
		rx:      o.reg.Histogram(name + "/rx"),
		txLabel: "x:" + name,
		rxLabel: "v:" + name,
	}
	o.wraps[tm] = w
	return w
}

// observe attributes the virtual time the operation consumed. Zero-width
// intervals still count in the histogram but are not recorded as spans,
// so free operations cannot flood the recorder's limit.
func (w *obsTM) observe(a *vclock.Actor, start vclock.Time, h *trace.Histogram, label string) {
	now := a.Now()
	h.Observe(now - start)
	if now > start {
		w.rec.Record(a.Name(), start, now, label)
	}
}

func (w *obsTM) SendBuffer(a *vclock.Actor, cs *ConnState, data []byte) error {
	t0 := a.Now()
	err := w.TM.SendBuffer(a, cs, data)
	w.observe(a, t0, w.tx, w.txLabel)
	return err
}

func (w *obsTM) SendBufferGroup(a *vclock.Actor, cs *ConnState, group [][]byte) error {
	t0 := a.Now()
	err := w.TM.SendBufferGroup(a, cs, group)
	w.observe(a, t0, w.tx, w.txLabel)
	return err
}

func (w *obsTM) ReceiveBuffer(a *vclock.Actor, cs *ConnState, dst []byte) error {
	t0 := a.Now()
	err := w.TM.ReceiveBuffer(a, cs, dst)
	w.observe(a, t0, w.rx, w.rxLabel)
	return err
}

func (w *obsTM) ReceiveSubBufferGroup(a *vclock.Actor, cs *ConnState, dsts [][]byte) error {
	t0 := a.Now()
	err := w.TM.ReceiveSubBufferGroup(a, cs, dsts)
	w.observe(a, t0, w.rx, w.rxLabel)
	return err
}

func (w *obsTM) ReceiveStaticBuffer(a *vclock.Actor, cs *ConnState) ([]byte, error) {
	t0 := a.Now()
	buf, err := w.TM.ReceiveStaticBuffer(a, cs)
	w.observe(a, t0, w.rx, w.rxLabel)
	return buf, err
}

// Static-buffer obtain/release are bookkeeping, not transfers — usually
// free, occasionally a credit-return wire write. They contribute spans
// when they cost time but stay out of the transfer-latency histograms,
// which would otherwise drown in zeros.

func (w *obsTM) ReleaseStaticBuffer(a *vclock.Actor, cs *ConnState, buf []byte) error {
	t0 := a.Now()
	err := w.TM.ReleaseStaticBuffer(a, cs, buf)
	w.observe(a, t0, nil, w.rxLabel)
	return err
}

func (w *obsTM) ObtainStaticBuffer(a *vclock.Actor, cs *ConnState) ([]byte, error) {
	t0 := a.Now()
	buf, err := w.TM.ObtainStaticBuffer(a, cs)
	w.observe(a, t0, nil, w.txLabel)
	return buf, err
}
