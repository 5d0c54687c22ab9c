package metrics

// Window is a sliding-window aggregator over timestamped observations:
// Add(at, v) accumulates values into fixed-width time buckets and
// Sum(now) returns the total over the trailing span, expiring buckets
// lazily. Timestamps are int64 nanoseconds (virtual or wall clock — the
// window is agnostic), must be non-decreasing within ~one span, and all
// operations are O(number of buckets).
//
// A Window is not safe for concurrent use; the adaptation controller
// owns its windows and only touches them from one AC's event handler.
type Window struct {
	span    int64 // trailing duration covered
	width   int64 // bucket width
	sums    []float64
	starts  []int64 // bucket start time per slot; -1 = empty
	started bool
}

// NewWindow returns a sliding window covering span nanoseconds with the
// given number of buckets (resolution of expiry). span and buckets must
// be positive.
func NewWindow(span int64, buckets int) *Window {
	if span <= 0 || buckets <= 0 {
		panic("metrics: Window needs positive span and buckets")
	}
	w := &Window{span: span, width: span / int64(buckets), sums: make([]float64, buckets), starts: make([]int64, buckets)}
	if w.width == 0 {
		w.width = 1
	}
	for i := range w.starts {
		w.starts[i] = -1
	}
	return w
}

// slot maps a timestamp to its ring slot and bucket start.
func (w *Window) slot(at int64) (int, int64) {
	b := at / w.width
	return int(b % int64(len(w.sums))), b * w.width
}

// Add accumulates v at time at.
func (w *Window) Add(at int64, v float64) {
	i, start := w.slot(at)
	if w.starts[i] != start {
		w.sums[i] = 0
		w.starts[i] = start
	}
	w.sums[i] += v
	w.started = true
}

// Sum returns the total of observations within (now-span, now].
func (w *Window) Sum(now int64) float64 {
	if !w.started {
		return 0
	}
	var total float64
	oldest := now - w.span
	for i, start := range w.starts {
		if start >= 0 && start > oldest && start <= now {
			total += w.sums[i]
		}
	}
	return total
}

// Rate returns Sum(now) per second.
func (w *Window) Rate(now int64) float64 {
	return w.Sum(now) / (float64(w.span) / 1e9)
}

// Reset clears all buckets.
func (w *Window) Reset() {
	for i := range w.starts {
		w.starts[i] = -1
		w.sums[i] = 0
	}
	w.started = false
}
