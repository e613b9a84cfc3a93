package main

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// coldStart empties every sync.Pool of the checker and returns the
// freed heap to the OS (runRep does the same, with its set-ups between
// the two collections).
func coldStart() {
	runtime.GC()
	debug.FreeOSMemory()
}

// cpuTime returns the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler polls the live heap — the bytes the last completed GC
// found reachable — on its own goroutine and keeps the maximum. Live
// heap, unlike HeapSys, does not depend on how much address space the
// runtime happened to retain.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func readLiveHeap(s []metrics.Sample) uint64 {
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// startHeapSampler starts polling every interval until Stop.
func startHeapSampler(interval time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: liveHeapMetric}}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			if v := readLiveHeap(s); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends the polling, waits for the goroutine to exit and returns
// the highest live heap seen, in bytes.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	<-h.done
	if v := readLiveHeap([]metrics.Sample{{Name: liveHeapMetric}}); v > h.peak {
		h.peak = v
	}
	return h.peak
}

// runtimeCounters is a snapshot of the allocation and GC counters the
// per-layer runtime metrics are deltas of.
type runtimeCounters struct {
	allocBytes, mallocs, gcCycles uint64
	gcCPU, userCPU                float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/user:cpu-seconds",
}

func readRuntimeCounters() runtimeCounters {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return s[i].Value.Uint64()
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	return runtimeCounters{allocBytes: u(0), mallocs: u(1), gcCycles: u(2), gcCPU: f(3), userCPU: f(4)}
}

// sub returns the counter delta c - o.
func (c runtimeCounters) sub(o runtimeCounters) runtimeCounters {
	return runtimeCounters{
		allocBytes: c.allocBytes - o.allocBytes,
		mallocs:    c.mallocs - o.mallocs,
		gcCycles:   c.gcCycles - o.gcCycles,
		gcCPU:      c.gcCPU - o.gcCPU,
		userCPU:    c.userCPU - o.userCPU,
	}
}
