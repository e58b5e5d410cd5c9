package gmetad

import (
	"testing"
	"time"
)

// wantWindow is the retry window the backoff schedule promises after k
// consecutive failures, before jitter: 15 s doubling per failure after
// the first, capped at 2 min.
func wantWindow(k int) time.Duration {
	w := 15 * time.Second
	for i := 1; i < k; i++ {
		w *= 2
	}
	return min(w, 2*time.Minute)
}

// checkWindow fails unless got lies within ±20 % jitter of wantWindow(k).
func checkWindow(t *testing.T, link string, k int, got time.Duration) {
	t.Helper()
	want := wantWindow(k)
	lo, hi := time.Duration(0.8*float64(want)), time.Duration(1.2*float64(want))
	if got < lo || got > hi {
		t.Errorf("%s: retry window after %d failures = %v, want within [%v, %v]", link, k, got, lo, hi)
	}
}

// TestBackoffWindowsAndBreakerCap pins the retry schedule and the
// breaker's cadence cap, both fixed constants: on a poll link and on a
// subscription link alike, the k-th consecutive failure holds the
// address back 0.8–1.2 × min(15 s·2^(k−1), 2 min), and an open breaker
// never stretches a source's cadence past 4 × PollInterval.
func TestBackoffWindowsAndBreakerCap(t *testing.T) {
	const failures = 8 // past the 2 min cap, short of the breaker threshold

	t.Run("poll", func(t *testing.T) {
		r := newRig(t)
		g := r.gmetad(Config{
			GridName: "SDSC",
			Sources:  []DataSource{{Name: "dead", Kind: SourceGmond, Addrs: []string{"dead:8649"}}},
		}, "")
		for k := 1; k <= failures; k++ {
			now := r.clk.Advance(15 * time.Second)
			g.PollOnce(now)
			a := g.Status()[0].Addrs[0]
			if a.Fails != k {
				t.Fatalf("after %d polls the address has %d failures", k, a.Fails)
			}
			checkWindow(t, "poll", k, a.RetryAt.Sub(now))
		}
	})

	t.Run("subscription", func(t *testing.T) {
		r := newRig(t)
		g := r.gmetad(Config{
			GridName: "earth",
			Sources: []DataSource{{
				Name: "sdsc", Kind: SourceGmetad, Addrs: []string{"sdsc:8652"}, Subscribe: true,
			}},
		}, "")
		sub := g.order[0].sub
		for k := 1; k <= failures; k++ {
			// Step to the lapse of the previous window: the round's
			// poll gate launches the next connect attempt, which fails
			// to dial and schedules the one after it.
			sub.mu.Lock()
			retryAt := sub.retryAt
			sub.mu.Unlock()
			if retryAt.After(r.clk.Now()) {
				r.clk.Advance(retryAt.Sub(r.clk.Now()))
			}
			now := r.clk.Now()
			g.PollOnce(now)
			deadline := time.Now().Add(2 * time.Second)
			for {
				sub.mu.Lock()
				state, fails, retryAt := sub.state, sub.fails, sub.retryAt
				sub.mu.Unlock()
				if state == subIdle && fails == k {
					checkWindow(t, "subscription", k, retryAt.Sub(now))
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("attempt %d: link state %d with %d failures after 2 s", k, state, fails)
				}
				time.Sleep(time.Millisecond)
			}
		}
	})

	t.Run("breaker", func(t *testing.T) {
		r := newRig(t)
		const poll = 10 * time.Second
		g := r.gmetad(Config{
			GridName:     "SDSC",
			PollInterval: poll,
			Sources:      []DataSource{{Name: "dead", Kind: SourceGmond, Addrs: []string{"dead:8649"}}},
		}, "")
		var longest time.Duration
		var last time.Time
		for i := 0; i < 60; i++ {
			now := r.clk.Advance(poll)
			g.PollOnce(now)
			next := g.Status()[0].NextPollAt
			if next.IsZero() || next.Equal(last) {
				continue // closed, or this round was deferred
			}
			last = next
			stretch := next.Sub(now)
			if stretch > 4*poll {
				t.Fatalf("round %d: breaker stretched the cadence to %v, cap is %v", i, stretch, 4*poll)
			}
			longest = max(longest, stretch)
		}
		if longest != 4*poll {
			t.Errorf("longest stretch = %v, want the cap %v to be reached", longest, 4*poll)
		}
	})
}
