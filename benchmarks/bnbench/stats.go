package main

import (
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// median returns the middle value of v (the mean of the middle two for an
// even count). It sorts a copy, so callers keep their round order.
func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// quantile returns the q-quantile (0 < q < 1) of an ascending slice by the
// nearest-rank rule: with 20000 samples, q = 0.99 leaves 200 beyond it.
func quantile[T any](sorted []T, q float64) T {
	return sorted[min(int(float64(len(sorted))*q), len(sorted)-1)]
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cpuTime is the process's user+system CPU time so far, from the scheduler's
// own clock: getrusage counts in timer ticks, too coarse for a round of a
// tenth of a second.
func cpuTime() time.Duration {
	const clockProcessCPUTime = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// liveHeapMiB is HeapAlloc after two collections: the first frees the
// garbage, the second the objects whose finalizers the first one ran.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
