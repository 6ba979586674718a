package guard

import "sync"

// Breaker is a divergence circuit breaker: per key (a design name), it
// counts consecutive numeric simulation failures and, once they reach the
// threshold, short-circuits further attempts so callers can fall back to a
// cheap degraded path instead of re-running a computation that keeps
// blowing up.
//
// The state machine is deliberately count-based, not time-based — there is
// no wall clock anywhere, so a request trace replayed in order reproduces
// the exact same breaker decisions:
//
//	closed    every attempt allowed; a failure increments the consecutive
//	          count, a success resets it; count == threshold opens.
//	open      attempts are denied except every probeEvery-th one, which is
//	          allowed through as a half-open probe.
//	half-open the probe's outcome decides: success closes the breaker and
//	          clears the count, failure re-opens it for another
//	          probeEvery-1 denials.
//
// Only numeric failures (IsNumeric: ErrDiverged, ErrNonFinite) and
// failures the caller explicitly classifies as breaking count; transient
// cancellations never trip the breaker — a client hanging up is not
// evidence the design diverges.
type Breaker struct {
	threshold  int
	probeEvery int

	mu sync.Mutex
	m  map[string]*breakerEntry
}

type breakerEntry struct {
	fails   int // consecutive breaking failures
	open    bool
	skipped int // denials since the breaker opened
}

// NewBreaker returns a breaker that opens after threshold consecutive
// failures and, while open, lets every probeEvery-th attempt through as a
// half-open probe. threshold < 1 is clamped to 1, probeEvery < 1 to 1
// (every attempt probes, i.e. the breaker only sheds the failure count).
func NewBreaker(threshold, probeEvery int) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	if probeEvery < 1 {
		probeEvery = 1
	}
	return &Breaker{threshold: threshold, probeEvery: probeEvery, m: map[string]*breakerEntry{}}
}

// Allow reports whether an attempt for key should run. While the breaker
// is open it returns false except on each probeEvery-th call, which is the
// half-open probe.
func (b *Breaker) Allow(key string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.m[key]
	if e == nil || !e.open {
		return true
	}
	e.skipped++
	if e.skipped%b.probeEvery == 0 {
		return true
	}
	return false
}

// Record feeds an attempt's outcome back. err == nil closes the breaker
// and clears the failure count. A breaking error (IsNumeric) increments
// the consecutive count and opens the breaker at the threshold. Any other
// error — transient cancellations included — leaves the state untouched.
//
// A success on a key that is already closed with no failures, the common
// case on every healthy request, leaves the state gauge alone: it costs
// one map lookup and never touches the metrics registry.
func (b *Breaker) Record(key string, err error) {
	if err != nil && !IsNumeric(err) {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.m[key]
	if e == nil {
		e = &breakerEntry{}
		b.m[key] = e
	} else if err == nil && e.fails == 0 && !e.open {
		return
	}
	if err == nil {
		e.fails, e.open, e.skipped = 0, false, 0
		setBreakerState(key, 0)
		return
	}
	e.fails++
	if e.fails >= b.threshold {
		e.open = true
		setBreakerState(key, 1)
	}
}

// Open reports whether the breaker for key is currently open.
func (b *Breaker) Open(key string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.m[key]
	return e != nil && e.open
}
