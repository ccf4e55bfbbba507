package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile: a
// tail percentile read off fewer samples is one outlier, not a trend.
const minTail = 10

// rank returns the 1-based nearest-rank position of the q-quantile among n
// sorted samples: the smallest r with r ≥ q·n.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond returns how many of n samples lie strictly beyond the
// nearest-rank q-quantile.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

// samplesFor returns the smallest sample count whose q-quantile has at
// least tail samples beyond it.
func samplesFor(q float64, tail int) int {
	n := 1
	for beyond(n, q) < tail {
		n++
	}
	return n
}

// percentile returns the nearest-rank q-quantile of xs in seconds, and
// whether at least minTail samples lie beyond it.
func percentile(xs []time.Duration, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[rank(len(s), q)-1].Seconds(), beyond(len(s), q) >= minTail
}

// medianSeconds is the nearest-rank median of xs in seconds.
func medianSeconds(xs []time.Duration) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// tally is the failure ledger of one run: every attempted job lands in it
// exactly once, as a success or as a failure with a reason. It is safe for
// concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   map[string]int
}

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(reason string) {
	t.mu.Lock()
	t.attempted++
	t.failed++
	if t.reasons == nil {
		t.reasons = make(map[string]int)
	}
	t.reasons[reason]++
	t.mu.Unlock()
}

// demote turns a job already booked as a success into a failure, for a
// check that can only run after the job was counted.
func (t *tally) demote(reason string) {
	t.mu.Lock()
	t.attempted--
	t.mu.Unlock()
	t.fail(reason)
}

// record books one job: a nil error is a success, anything else a failure
// named by the error text.
func (t *tally) record(err error) {
	if err != nil {
		t.fail(err.Error())
		return
	}
	t.ok()
}

// errorRate is failed jobs over attempted jobs (0 when nothing ran).
func (t *tally) errorRate() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

func (t *tally) counts() (attempted, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed
}

// summary lists the failure reasons, most frequent first.
func (t *tally) summary() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.reasons))
	for r, n := range t.reasons {
		out = append(out, fmt.Sprintf("%dx %s", n, r))
	}
	sort.Strings(out)
	return out
}
