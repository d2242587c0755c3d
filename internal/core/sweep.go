package core

import (
	"runtime"
	"sync"
)

// Sweep evaluates fn over every point, fanning the points out across
// GOMAXPROCS workers. Each fn call must be self-contained (typically: build
// a World from the point's seed, run it, return metrics) — Worlds are
// single-threaded, so parallelism lives here, across independent worlds.
// Results are returned in point order.
func Sweep[P, R any](points []P, fn func(P) R) []R {
	results := make([]R, len(points))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(points) {
		workers = len(points)
	}
	if workers <= 1 {
		for i, p := range points {
			results[i] = fn(p)
		}
		return results
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = fn(points[i])
			}
		}()
	}
	for i := range points {
		next <- i
	}
	close(next)
	wg.Wait()
	return results
}

// First returns the smallest index in [0, n) whose test holds, or n if none
// does, fanning the indices out across GOMAXPROCS workers. Each worker calls
// newTest once and hands its test strictly increasing indices (with gaps),
// so a test may carry state from one index to the next, such as a cracker
// already fed the samples up to its last index; the outcome at an index must
// depend on that index alone. Every index below the result is tested exactly
// once. Indices above it may be tested too, and their outcomes are
// discarded.
func First(n int, newTest func() func(int) bool) int {
	// next is the lowest index no worker has taken, best the lowest success
	// so far. Indices are taken in ascending order, so once a worker's next
	// index reaches best, every index below best has been taken, and it
	// stops.
	var (
		mu         sync.Mutex
		next, best = 0, n
		wg         sync.WaitGroup
	)
	for w := 0; w < min(runtime.GOMAXPROCS(0), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			test := newTest()
			for {
				mu.Lock()
				i := next
				if i >= best {
					mu.Unlock()
					return
				}
				next++
				mu.Unlock()
				if test(i) {
					mu.Lock()
					best = min(best, i)
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return best
}

// Seeds returns n deterministic distinct seeds derived from base, for
// multi-trial experiments.
func Seeds(base uint64, n int) []uint64 {
	out := make([]uint64, n)
	x := base
	for i := range out {
		x = x*6364136223846793005 + 1442695040888963407
		out[i] = x
	}
	return out
}

// Mean averages a float64 slice (0 for empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Fraction reports the share of true values.
func Fraction(bs []bool) float64 {
	if len(bs) == 0 {
		return 0
	}
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return float64(n) / float64(len(bs))
}
