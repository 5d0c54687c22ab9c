package sim

import (
	"testing"
	"testing/quick"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("dispatch order = %v, want [1 2 3]", got)
	}
	if s.Now() != 30 {
		t.Fatalf("Now = %v, want 30", s.Now())
	}
}

func TestSchedulerTieBreakFIFO(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(10, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(5, func() {})
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler()
	fired := 0
	s.At(10, func() { fired++ })
	s.At(20, func() { fired++ })
	s.At(30, func() { fired++ })
	s.RunUntil(20)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if s.Now() != 20 {
		t.Fatalf("Now = %v, want 20", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
	// RunUntil advances the clock even with no events in range.
	s.RunUntil(25)
	if s.Now() != 25 || fired != 2 {
		t.Fatalf("Now=%v fired=%d after empty RunUntil", s.Now(), fired)
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler()
	var order []string
	s.At(10, func() {
		order = append(order, "a")
		s.After(5, func() { order = append(order, "c") })
		s.After(1, func() { order = append(order, "b") })
	})
	s.Run()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v", order)
	}
}

func TestActorSequentialProcessing(t *testing.T) {
	s := NewScheduler()
	var starts []Time
	a := NewActor(s, "ac0", func(a *Actor, _ Message) {
		starts = append(starts, a.Now())
		a.Charge(100)
	})
	// Three messages arrive at once; they must process back-to-back.
	a.Deliver("m1", 0)
	a.Deliver("m2", 0)
	a.Deliver("m3", 0)
	s.Run()
	want := []Time{0, 100, 200}
	for i := range want {
		if starts[i] != want[i] {
			t.Fatalf("starts = %v, want %v", starts, want)
		}
	}
	if a.BusyTime != 300 {
		t.Fatalf("BusyTime = %v, want 300", a.BusyTime)
	}
	if a.Processed != 3 {
		t.Fatalf("Processed = %d, want 3", a.Processed)
	}
	if a.QueueWait != 0+100+200 {
		t.Fatalf("QueueWait = %v, want 300", a.QueueWait)
	}
}

func TestActorIdleGapsDoNotCharge(t *testing.T) {
	s := NewScheduler()
	a := NewActor(s, "ac0", func(a *Actor, _ Message) { a.Charge(10) })
	a.Deliver(1, 0)
	a.Deliver(2, 1000) // arrives long after the first completes
	s.Run()
	if a.BusyTime != 20 {
		t.Fatalf("BusyTime = %v, want 20", a.BusyTime)
	}
	if s.Now() != 1010 {
		t.Fatalf("Now = %v, want 1010", s.Now())
	}
	if u := a.Utilization(); u < 0.019 || u > 0.021 {
		t.Fatalf("Utilization = %v, want ~0.0198", u)
	}
}

func TestActorSendUsesLocalClock(t *testing.T) {
	s := NewScheduler()
	var bStart Time
	b := NewActor(s, "b", func(a *Actor, _ Message) { bStart = a.Now() })
	a := NewActor(s, "a", func(a *Actor, _ Message) {
		a.Charge(500)
		a.Send(b, "hi", 200) // emitted at local t=500, +200 latency
		a.Charge(100)        // work after the send
	})
	a.Deliver("go", 0)
	s.Run()
	if bStart != 700 {
		t.Fatalf("b started at %v, want 700", bStart)
	}
	if a.BusyTime != 600 {
		t.Fatalf("a.BusyTime = %v, want 600", a.BusyTime)
	}
}

func TestActorPipelineThroughput(t *testing.T) {
	// Two-stage pipeline: stage1 charges 60, stage2 charges 100. With n
	// messages the makespan must be ≈ 60 + n*100 (bottleneck-bound), the
	// core of the streaming-CC speedup argument.
	s := NewScheduler()
	done := 0
	st2 := NewActor(s, "st2", func(a *Actor, _ Message) { a.Charge(100); done++ })
	st1 := NewActor(s, "st1", func(a *Actor, m Message) {
		a.Charge(60)
		a.Send(st2, m, 0)
	})
	const n = 100
	for i := 0; i < n; i++ {
		st1.Deliver(i, 0)
	}
	s.Run()
	if done != n {
		t.Fatalf("done = %d, want %d", done, n)
	}
	makespan := s.Now()
	if makespan != 60+n*100 {
		t.Fatalf("makespan = %v, want %v", makespan, Time(60+n*100))
	}
}

func TestLinkBandwidthSerialization(t *testing.T) {
	s := NewScheduler()
	l := NewLink(s, "net", 100, 1_000_000_000) // 1 GB/s → 1ns/byte
	var arrivals []Time
	l.Transfer(0, 1000, func(at Time) { arrivals = append(arrivals, at) })
	l.Transfer(0, 1000, func(at Time) { arrivals = append(arrivals, at) })
	s.Run()
	// First: tx 0..1000, +100 latency = 1100. Second waits for the wire:
	// tx 1000..2000, +100 = 2100.
	if arrivals[0] != 1100 || arrivals[1] != 2100 {
		t.Fatalf("arrivals = %v, want [1100 2100]", arrivals)
	}
	if l.BytesSent != 2000 || l.Transfers != 2 {
		t.Fatalf("accounting: bytes=%d transfers=%d", l.BytesSent, l.Transfers)
	}
}

func TestLinkInfiniteBandwidth(t *testing.T) {
	s := NewScheduler()
	l := NewLink(s, "mem", 50, 0)
	at := l.Transfer(10, 1<<30, nil)
	if at != 60 {
		t.Fatalf("arrival = %v, want 60 (latency only)", at)
	}
}

func TestLinkTransferTo(t *testing.T) {
	s := NewScheduler()
	var got Message
	var at Time
	a := NewActor(s, "dst", func(a *Actor, m Message) { got, at = m, a.Now() })
	l := NewLink(s, "net", 500, 0)
	l.TransferTo(0, 64, a, "payload")
	s.Run()
	if got != "payload" || at != 500 {
		t.Fatalf("got %v at %v, want payload at 500", got, at)
	}
}

func TestTimeString(t *testing.T) {
	for _, tc := range []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500µs"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
	} {
		if got := tc.t.String(); got != tc.want {
			t.Errorf("(%d).String() = %q, want %q", int64(tc.t), got, tc.want)
		}
	}
}

// TestSchedulerDeterminism: identical event programs produce identical
// execution traces (quick-checked over random delay vectors).
func TestSchedulerDeterminism(t *testing.T) {
	run := func(delays []uint16) []Time {
		s := NewScheduler()
		var trace []Time
		a := NewActor(s, "a", func(a *Actor, _ Message) {
			trace = append(trace, a.Now())
			a.Charge(75)
		})
		for _, d := range delays {
			a.Deliver(nil, Time(d))
		}
		s.Run()
		return trace
	}
	check := func(delays []uint16) bool {
		t1 := run(delays)
		t2 := run(delays)
		if len(t1) != len(t2) {
			return false
		}
		for i := range t1 {
			if t1[i] != t2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCostModelSane(t *testing.T) {
	c := DefaultCosts()
	if c.IndexLookup <= 0 || c.RecordUpdate <= 0 || c.TxnCommit <= 0 {
		t.Fatal("zero cost in default model")
	}
	// The calibration target from CostModel's doc: a payment-like op sequence
	// (4 record ops + txn overhead + locking) should cost 1–2µs so a
	// single executor lands in the 0.5–1.0 M tx/s band.
	payment := c.TxnBegin + c.TxnCommit +
		4*(c.IndexLookup+c.LockAcquire+c.RecordUpdate+c.LockRelease)
	if payment < 1*Microsecond || payment > 2*Microsecond {
		t.Fatalf("payment calibration = %v, want within [1µs, 2µs]", payment)
	}
	if c.SerializeCost(16<<10) != 1024 {
		t.Fatalf("SerializeCost(16KiB) = %v, want 1024ns", c.SerializeCost(16<<10))
	}
}
