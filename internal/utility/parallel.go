package utility

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// forEachIndex runs fn(i) for every i in [0, n) across at most workers
// goroutines (≤ 0 means GOMAXPROCS, and the pool never exceeds n — the
// worker-clamp rule every fan-out in this package shares). Once ctx is
// cancelled no further indices are started; the caller decides whether
// that matters by checking ctx.Err afterwards. fn must be safe to call
// concurrently for distinct indices.
func forEachIndex(ctx context.Context, n, workers int, fn func(int)) {
	if n == 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Cell addresses one utility-matrix entry.
type Cell struct {
	Round  int
	Subset Set
}
