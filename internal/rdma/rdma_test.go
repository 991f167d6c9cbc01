package rdma

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"madeleine2/internal/model"
	"madeleine2/internal/simnet"
	"madeleine2/internal/vclock"
)

func pair(t *testing.T) (*HCA, *HCA) {
	t.Helper()
	w := simnet.NewWorld(2)
	w.Node(0).AddAdapter(Network)
	w.Node(1).AddAdapter(Network)
	h0, err := Attach(w.Node(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := Attach(w.Node(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	return h0, h1
}

func TestAttachErrors(t *testing.T) {
	w := simnet.NewWorld(1)
	if _, err := Attach(w.Node(0), 0); err == nil {
		t.Error("attach without an rdma adapter must fail")
	}
}

func TestRegistrationCostAndKeys(t *testing.T) {
	h0, _ := pair(t)
	a := vclock.NewActor("app")
	m, err := h0.Register(a, 0x10, make([]byte, 3*model.RDMAPageSize))
	if err != nil {
		t.Fatal(err)
	}
	if a.Now() != 3*model.RDMARegister {
		t.Errorf("3-page registration cost = %v, want %v", a.Now(), 3*model.RDMARegister)
	}
	if m.Key() != 0x10 || m.Size() != 3*model.RDMAPageSize {
		t.Errorf("key/size = %#x/%d", m.Key(), m.Size())
	}
	if _, err := h0.Register(a, 0x10, make([]byte, 8)); !errors.Is(err, ErrKeyInUse) {
		t.Errorf("duplicate key: err = %v, want ErrKeyInUse", err)
	}
	if err := m.Deregister(); err != nil {
		t.Fatal(err)
	}
	// The key is free again after deregistration.
	if _, err := h0.Register(a, 0x10, make([]byte, 8)); err != nil {
		t.Errorf("re-register freed key: %v", err)
	}
}

func TestOneSidedWriteIsZeroCopy(t *testing.T) {
	// An RDMA write lands directly in the memory the target registered —
	// no posted descriptor, no copy-out. The target's own slice mutates.
	h0, h1 := pair(t)
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	dst := make([]byte, 64)
	m, err := h1.Register(r, 1, dst)
	if err != nil {
		t.Fatal(err)
	}
	ep := h0.Dial(1, 0)
	arrive, err := ep.Write(s, 1, 8, []byte("payload"), 7, model.RDMAWrite)
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.WaitWrite(r)
	if err != nil {
		t.Fatal(err)
	}
	if c.Off != 8 || c.Len != 7 || c.Tag != 7 || c.Arrive != arrive {
		t.Fatalf("completion = %+v, arrive %v", c, arrive)
	}
	if !bytes.Equal(dst[8:15], []byte("payload")) {
		t.Errorf("caller buffer = %q, write did not land in registered memory", dst[8:15])
	}
	if r.Now() < model.RDMAWrite.Time(7) {
		t.Errorf("arrival %v earlier than the wire path %v", r.Now(), model.RDMAWrite.Time(7))
	}
}

func TestWriteErrors(t *testing.T) {
	h0, h1 := pair(t)
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	m, err := h1.Register(r, 2, make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	ep := h0.Dial(1, 0)
	if _, err := ep.Write(s, 99, 0, []byte("x"), 0, model.RDMAWrite); !errors.Is(err, ErrNoSuchRegion) {
		t.Errorf("unknown key: err = %v, want ErrNoSuchRegion", err)
	}
	if _, err := ep.Write(s, 2, 12, make([]byte, 8), 0, model.RDMAWrite); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("overrun: err = %v, want ErrOutOfRange", err)
	}
	if err := m.Deregister(); err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Write(s, 2, 0, []byte("x"), 0, model.RDMAWrite); !errors.Is(err, ErrNoSuchRegion) {
		t.Errorf("deregistered key: err = %v, want ErrNoSuchRegion", err)
	}
	if err := m.Deregister(); !errors.Is(err, ErrNotRegistered) {
		t.Errorf("double deregister: err = %v, want ErrNotRegistered", err)
	}
}

func TestDeregisterWakesBlockedWait(t *testing.T) {
	_, h1 := pair(t)
	r := vclock.NewActor("r")
	m, err := h1.Register(r, 3, make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := m.WaitWrite(vclock.NewActor("waiter"))
		errc <- err
	}()
	if err := m.Deregister(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, ErrNotRegistered) {
			t.Errorf("woken WaitWrite: err = %v, want ErrNotRegistered", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitWrite still blocked after Deregister")
	}
}

func TestWriteReturnsVisibilityTime(t *testing.T) {
	// Write reports when its bytes became visible: the same time the
	// target's completion carries, never earlier than the doorbell, and
	// non-decreasing across writes posted back to back.
	h0, h1 := pair(t)
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	m, err := h1.Register(r, 4, make([]byte, 256))
	if err != nil {
		t.Fatal(err)
	}
	ep := h0.Dial(1, 0)
	prev := vclock.Time(-1)
	for i := 0; i < 3; i++ {
		arrive, err := ep.Write(s, 4, i*8, []byte("chunk"), uint64(i), model.RDMAWrite)
		if err != nil {
			t.Fatal(err)
		}
		if arrive < s.Now() || arrive < prev {
			t.Errorf("write %d visible at %v: before the initiator clock %v or the previous write %v", i, arrive, s.Now(), prev)
		}
		prev = arrive
		c, err := m.WaitWrite(r)
		if err != nil {
			t.Fatal(err)
		}
		if c.Tag != uint64(i) || c.Arrive != arrive {
			t.Errorf("target completion %d = %+v, want tag %d arriving at %v", i, c, i, arrive)
		}
	}
}

func TestRead(t *testing.T) {
	h0, h1 := pair(t)
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	src := make([]byte, 32)
	copy(src[4:], "remote bytes")
	m, err := h1.Register(r, 5, src)
	if err != nil {
		t.Fatal(err)
	}
	ep := h0.Dial(1, 0)
	dst := make([]byte, 12)
	before := s.Now()
	if err := ep.Read(s, 5, 4, dst, model.RDMAWrite); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, []byte("remote bytes")) {
		t.Errorf("read = %q", dst)
	}
	if s.Now()-before < model.RDMACtrl.Fixed+model.RDMAWrite.Time(12) {
		t.Errorf("read round trip %v too cheap", s.Now()-before)
	}
	if err := ep.Read(s, 5, 30, make([]byte, 8), model.RDMAWrite); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("overrun read: err = %v, want ErrOutOfRange", err)
	}
	if err := m.Deregister(); err != nil {
		t.Fatal(err)
	}
	if err := ep.Read(s, 5, 0, dst, model.RDMAWrite); !errors.Is(err, ErrNoSuchRegion) {
		t.Errorf("deregistered read: err = %v, want ErrNoSuchRegion", err)
	}
}

func TestFaultPlanStrikesWrites(t *testing.T) {
	// The target adapter's fault plan garbles RDMA payloads exactly like
	// two-sided traffic: bytes land torn, the completion still arrives.
	h0, h1 := pair(t)
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	dst := make([]byte, 64)
	m, err := h1.Register(r, 6, dst)
	if err != nil {
		t.Fatal(err)
	}
	h1.Adapter().SetFaults(&simnet.FaultPlan{Seed: 11, Corrupt: 1, MinBytes: 1})
	payload := bytes.Repeat([]byte{0x5a}, 32)
	ep := h0.Dial(1, 0)
	if _, err := ep.Write(s, 6, 0, payload, 0, model.RDMAWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := m.WaitWrite(r); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(dst[:32], payload) {
		t.Error("fault plan did not strike the RDMA payload")
	}
	if bytes.Equal(payload, bytes.Repeat([]byte{0x5a}, 32)) == false {
		t.Error("strike modified the sender's buffer in place")
	}
	if st := h1.Adapter().FaultStats(); st.Corrupted == 0 {
		t.Errorf("fault stats = %+v, corruption not counted", st)
	}
}

// TestClosedWorldIsCollectable checks that attaching leaves no
// process-wide reference behind: the HCA lives on its adapter, so a
// world nobody uses any more is garbage, adapters included.
// The adapter sits on reference cycles (node, world, driver state) and
// Go never runs a finalizer set on a cycle, so the probe is the
// adapter's transmit engine: a leaf that only the adapter reaches.
func TestClosedWorldIsCollectable(t *testing.T) {
	collected := make(chan struct{})
	func() {
		h0, h1 := pair(t)
		s, r := vclock.NewActor("s"), vclock.NewActor("r")
		m, err := h1.Register(r, 1, make([]byte, 64))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h0.Dial(1, 0).Write(s, 1, 0, []byte("ping"), 0, model.RDMAWrite); err != nil {
			t.Fatal(err)
		}
		if _, err := m.WaitWrite(r); err != nil {
			t.Fatal(err)
		}
		if err := m.Deregister(); err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(h0.Adapter().TxEngine(), func(*vclock.Resource) { close(collected) })
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Error("an unused world's adapter survived a collection")
}
