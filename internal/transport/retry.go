package transport

import (
	"math/rand"
	"sync"
	"time"
)

// RetryPolicy retries calls that failed at the transport level (see
// Unavailable). Application Faults are never retried: the site answered,
// so repeating the operation would not change the outcome and might not
// be idempotent.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts including the first;
	// values <= 1 disable retries.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry.
	BaseDelay time.Duration
	// MaxDelay caps the grown backoff; zero means uncapped.
	MaxDelay time.Duration
	// Multiplier grows the backoff per retry; values < 1 are treated as 1.
	Multiplier float64
	// Jitter randomizes away up to this fraction of each backoff (0..1),
	// decorrelating retry storms from many callers.
	Jitter float64
	// Seed seeds the jitter RNG so retry schedules are reproducible; zero
	// selects a fixed default seed.
	Seed int64
}

// DefaultRetryPolicy suits intra-VO calls: three quick attempts, well
// under a single DefaultCallTimeout in added latency.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   25 * time.Millisecond,
		MaxDelay:    time.Second,
		Multiplier:  2,
		Jitter:      0.2,
	}
}

// Delay computes the backoff after the attempt-th try (1-based) failed.
// A nil rng means no jitter, for callers that sleep on a virtual clock,
// where determinism matters more than decorrelation.
func (p RetryPolicy) Delay(attempt int, rng *rand.Rand) time.Duration {
	d := float64(p.BaseDelay)
	mult := p.Multiplier
	if mult < 1 {
		mult = 1
	}
	for i := 1; i < attempt; i++ {
		d *= mult
		if p.MaxDelay > 0 && d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.Jitter > 0 && rng != nil {
		d *= 1 - p.Jitter*rng.Float64()
	}
	return time.Duration(d)
}

// RetryBudget caps the global ratio of retries to successful calls with a
// token bucket: every retry withdraws one token, every success deposits
// PerSuccess. When a whole destination goes dark the breaker absorbs the
// load after a few failures; the budget bounds the extra traffic retries
// may generate before that happens, so a flaky VO cannot be drowned in
// its own repair attempts. A nil *RetryBudget is an unlimited budget.
type RetryBudget struct {
	mu         sync.Mutex
	tokens     float64
	max        float64
	perSuccess float64
}

// DefaultRetryBudgetTokens is the bucket size of NewRetryBudget(0, 0).
const DefaultRetryBudgetTokens = 20.0

// NewRetryBudget builds a budget with the given bucket size and
// per-success refill; non-positive arguments select defaults (20, 0.1).
func NewRetryBudget(max, perSuccess float64) *RetryBudget {
	if max <= 0 {
		max = DefaultRetryBudgetTokens
	}
	if perSuccess <= 0 {
		perSuccess = 0.1
	}
	return &RetryBudget{tokens: max, max: max, perSuccess: perSuccess}
}

// Withdraw spends one token for a retry, reporting false when the budget
// is exhausted.
func (b *RetryBudget) Withdraw() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Deposit refills the budget after a successful call.
func (b *RetryBudget) Deposit() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tokens += b.perSuccess
	if b.tokens > b.max {
		b.tokens = b.max
	}
}
