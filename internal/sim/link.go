package sim

// Link models a unidirectional transport with fixed propagation latency
// and finite bandwidth. Transfers serialize on the link: a transfer may
// begin only when the previous one has finished transmitting. This is the
// simulated stand-in for the paper's shared-memory queues (high bandwidth,
// ~100ns latency) and the InfiniBand network carrying DPI flows (lower
// bandwidth, microsecond latency); CostModel holds the calibrated figures.
type Link struct {
	Name        string
	sched       *Scheduler
	Latency     Time  // propagation delay per message
	BytesPerSec int64 // bandwidth; 0 means infinite

	freeAt Time
	// Accounting.
	BytesSent int64
	Transfers int64
	BusyTime  Time
}

// NewLink returns a link on scheduler s.
func NewLink(s *Scheduler, name string, latency Time, bytesPerSec int64) *Link {
	return &Link{Name: name, sched: s, Latency: latency, BytesPerSec: bytesPerSec}
}

// txDuration returns the wire occupancy for size bytes.
func (l *Link) txDuration(size int64) Time {
	if l.BytesPerSec <= 0 || size <= 0 {
		return 0
	}
	d := Time(float64(size) / float64(l.BytesPerSec) * float64(Second))
	if d < 1 {
		d = 1
	}
	return d
}

// Transfer moves size bytes starting no earlier than `from` virtual time,
// invoking deliver at the arrival time. It returns the arrival time.
// Pass the sender's local clock as `from` (e.g. actor.Now()).
func (l *Link) Transfer(from Time, size int64, deliver func(arrival Time)) Time {
	start := from
	if l.freeAt > start {
		start = l.freeAt
	}
	dur := l.txDuration(size)
	l.freeAt = start + dur
	l.BusyTime += dur
	l.BytesSent += size
	l.Transfers++
	arrival := l.freeAt + l.Latency
	if deliver != nil {
		l.sched.At(arrival, func() { deliver(arrival) })
	}
	return arrival
}

// TransferTo is a convenience that delivers msg to an actor on arrival.
func (l *Link) TransferTo(from Time, size int64, to *Actor, msg Message) Time {
	return l.Transfer(from, size, func(Time) { to.enqueue(msg) })
}

// Utilization returns wire busy time as a fraction of elapsed virtual
// time.
func (l *Link) Utilization() float64 {
	now := l.sched.Now()
	if now == 0 {
		return 0
	}
	return float64(l.BusyTime) / float64(now)
}
