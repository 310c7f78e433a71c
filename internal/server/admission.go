package server

import (
	"sync"
	"time"
)

// tokenBucket is a classic rate limiter: capacity burst tokens, refilled at
// rate tokens/second. A zero rate disables limiting (allow always).
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time // injectable clock for tests
}

func newTokenBucket(rate float64, burst int) *tokenBucket {
	if burst < 1 {
		burst = 1
	}
	b := &tokenBucket{
		rate:   rate,
		burst:  float64(burst),
		tokens: float64(burst),
		now:    time.Now,
	}
	b.last = b.now()
	return b
}

// allow consumes one token if available.
func (b *tokenBucket) allow() bool {
	if b.rate <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	b.tokens += now.Sub(b.last).Seconds() * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
