package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []float64
	e.At(3, func() { got = append(got, 3) })
	e.At(1, func() { got = append(got, 1) })
	e.At(2, func() { got = append(got, 2) })
	e.Run()
	want := []float64{1, 2, 3}
	if len(got) != 3 {
		t.Fatalf("got %v events, want 3", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired value %v, want %v", i, got[i], want[i])
		}
	}
	if e.Now() != 3 {
		t.Errorf("Now() = %v, want 3", e.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of order: %v", got)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	id := e.At(1, func() { fired = true })
	id.Cancel()
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(1)
	var got []float64
	for _, at := range []float64{1, 2, 3, 4, 5} {
		at := at
		e.At(at, func() { got = append(got, at) })
	}
	e.RunUntil(3)
	if len(got) != 3 {
		t.Fatalf("RunUntil(3) fired %d events, want 3", len(got))
	}
	if e.Now() != 3 {
		t.Errorf("Now() = %v after RunUntil(3), want 3", e.Now())
	}
	e.RunUntil(10)
	if len(got) != 5 {
		t.Errorf("after RunUntil(10) fired %d events, want 5", len(got))
	}
	if e.Now() != 10 {
		t.Errorf("Now() = %v after RunUntil(10), want 10", e.Now())
	}
}

func TestEngineSchedulingInsideEvent(t *testing.T) {
	e := NewEngine(1)
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 5 {
			e.After(1, chain)
		}
	}
	e.At(0, chain)
	e.Run()
	if count != 5 {
		t.Errorf("chained events ran %d times, want 5", count)
	}
	if e.Now() != 4 {
		t.Errorf("Now() = %v, want 4", e.Now())
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(5, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	e.At(1, func() {})
}

func TestTicker(t *testing.T) {
	e := NewEngine(1)
	var times []float64
	var stop func()
	stop = e.Ticker(0, 15, func() {
		times = append(times, e.Now())
		if e.Now() >= 45 {
			stop()
		}
	})
	e.Run()
	want := []float64{0, 15, 30, 45}
	if len(times) != len(want) {
		t.Fatalf("ticker fired at %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("tick %d at %v, want %v", i, times[i], want[i])
		}
	}
}

func TestTickerStopBeforeFirstTick(t *testing.T) {
	e := NewEngine(1)
	n := 0
	stop := e.Ticker(5, 1, func() { n++ })
	stop()
	e.RunUntil(100)
	if n != 0 {
		t.Errorf("stopped ticker fired %d times", n)
	}
}

func TestHalt(t *testing.T) {
	e := NewEngine(1)
	n := 0
	for i := 1; i <= 10; i++ {
		e.At(float64(i), func() {
			n++
			if n == 3 {
				e.Halt()
			}
		})
	}
	e.Run()
	if n != 3 {
		t.Errorf("Halt did not stop Run: %d events fired", n)
	}
	// Run can resume afterwards.
	e.Run()
	if n != 10 {
		t.Errorf("resumed Run fired %d total events, want 10", n)
	}
}

// fired records one event firing: its scheduled time and its scheduling
// order k.
type fired struct {
	at float64
	k  int
}

// orderHandler is a Handler event of the order property test.
type orderHandler struct {
	fire func()
}

func (h *orderHandler) Fire() { h.fire() }

// Property: however events are scheduled — closures and Handlers mixed,
// many at equal times, more scheduled from inside firing events, some
// cancelled — every live event fires exactly once, with the clock at its
// scheduled time, in exact (time, scheduling order) order.
func TestEventOrderProperty(t *testing.T) {
	f := func(seed int64, raw []uint16) bool {
		if len(raw) > 200 {
			raw = raw[:200]
		}
		e := NewEngine(seed)
		var got []fired
		var ids []EventID
		done := map[int]bool{}      // fired so far
		cancelled := map[int]bool{} // cancelled before firing
		k := 0
		var schedule func(at float64, r uint16)
		schedule = func(at float64, r uint16) {
			me := k
			k++
			fire := func() {
				if e.Now() != at {
					t.Errorf("event %d: clock %v != scheduled %v", me, e.Now(), at)
				}
				if done[me] {
					t.Errorf("event %d fired twice", me)
				}
				got = append(got, fired{at, me})
				done[me] = true
				if r&0x30 == 0x30 && k < 400 {
					// Schedule a follow-up, often at this very instant.
					schedule(at+float64(r>>8&1), r>>1)
				}
				if r&0x40 != 0 && len(ids) > 0 {
					// Cancel an event: a pending one must never fire;
					// a fired one's ID is stale and must not touch the
					// event that reused its slot.
					victim := int(r>>7) % len(ids)
					ids[victim].Cancel()
					if !done[victim] {
						cancelled[victim] = true
					}
				}
			}
			var id EventID
			if r&1 == 0 {
				id = e.At(at, fire)
			} else {
				id = e.AfterHandler(at-e.Now(), &orderHandler{fire: fire})
			}
			ids = append(ids, id)
		}
		for _, r := range raw {
			schedule(float64(r%8), r)
		}
		e.Run()
		for i := 1; i < len(got); i++ {
			a, b := got[i-1], got[i]
			if a.at > b.at || (a.at == b.at && a.k >= b.k) {
				t.Errorf("event %d (t=%v) fired after event %d (t=%v)", b.k, b.at, a.k, a.at)
				return false
			}
		}
		for i := 0; i < k; i++ {
			if done[i] == cancelled[i] {
				t.Errorf("event %d: fired %v, cancelled while pending %v", i, done[i], cancelled[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
}

// Events are recycled once fired; an EventID kept from the old use must
// not cancel the new event that reuses the slot.
func TestStaleCancelAfterReuse(t *testing.T) {
	e := NewEngine(1)
	stale := e.At(1, func() {})
	e.Run()
	fired := false
	id := e.At(2, func() { fired = true })
	if id.e != stale.e {
		t.Fatal("the fired event's slot was not reused; the test proves nothing")
	}
	stale.Cancel()
	e.Run()
	if !fired {
		t.Error("a stale Cancel cancelled the event that reused its slot")
	}

	// The same from inside the callback: it reschedules (taking its own
	// slot back) and then cancels its own, already-fired, ID.
	var self EventID
	n := 0
	self = e.At(3, func() {
		e.After(1, func() { n++ })
		self.Cancel()
	})
	e.Run()
	if n != 1 {
		t.Errorf("follow-up fired %d times after its parent cancelled itself, want 1", n)
	}

	// A cancelled event is recycled when drained; its ID stays inert.
	dead := e.At(10, func() { t.Error("cancelled event fired") })
	dead.Cancel()
	e.Run()
	fired = false
	e.At(11, func() { fired = true })
	dead.Cancel()
	e.Run()
	if !fired {
		t.Error("cancelling a drained event twice cancelled its successor")
	}
}

// Handler events share At's sequence numbers: same-instant events fire in
// scheduling order whichever entry point scheduled them.
func TestHandlerInterleavesWithAt(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 6; i++ {
		i := i
		if i%2 == 0 {
			e.At(5, func() { got = append(got, i) })
		} else {
			e.AfterHandler(5, &orderHandler{fire: func() { got = append(got, i) }})
		}
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired as %v, want 0..5 in order", got)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		e := NewEngine(42)
		var out []float64
		var rec func()
		rec = func() {
			out = append(out, e.Now())
			if len(out) < 100 {
				e.After(e.Rand().Float64(), rec)
			}
		}
		e.At(0, rec)
		e.Run()
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at event %d: %v vs %v", i, a[i], b[i])
		}
	}
}
