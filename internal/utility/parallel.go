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

// Union returns a followed by the cells of b that a does not hold, in b's
// order and each once, and at, where at[i] is the index of b[i] in the
// returned list. The cells of a must be distinct.
func Union(a, b []Cell) (cells []Cell, at []int) {
	index := make(map[cellKey]int, len(a)+len(b))
	for i, c := range a {
		index[cellKey{t: c.Round, set: c.Subset.Key()}] = i
	}
	cells = a[:len(a):len(a)] // appends copy rather than write into a's array
	at = make([]int, len(b))
	for i, c := range b {
		ck := cellKey{t: c.Round, set: c.Subset.Key()}
		j, ok := index[ck]
		if !ok {
			j = len(cells)
			index[ck] = j
			cells = append(cells, c)
		}
		at[i] = j
	}
	return cells, at
}
