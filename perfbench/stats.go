package main

import (
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the "inclusive" method), or 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio is a/b, or 0 when b is 0 (a layer that did not run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// procSample is one reading of the process-wide counters the runtime
// metrics are deltas of.
type procSample struct {
	at    time.Time
	mem   runtime.MemStats
	cpuNs int64 // user + system CPU time of the whole process
}

func sampleProc() procSample {
	var s procSample
	runtime.ReadMemStats(&s.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpuNs = ru.Utime.Nano() + ru.Stime.Nano()
	}
	s.at = time.Now()
	return s
}

// runtimeMetrics reports allocation, GC and CPU figures over the window
// between two samples, normalised by the answers delivered in it.
func runtimeMetrics(a, b procSample, answers int) map[string]float64 {
	wall := b.at.Sub(a.at).Seconds()
	n := float64(answers)
	return map[string]float64{
		"runtime.allocs_per_answer":        ratio(float64(b.mem.Mallocs-a.mem.Mallocs), n),
		"runtime.alloc_bytes_per_answer":   ratio(float64(b.mem.TotalAlloc-a.mem.TotalAlloc), n),
		"runtime.gc_cycles_per_1k_answers": ratio(1000*float64(b.mem.NumGC-a.mem.NumGC), n),
		"runtime.gc_pause_ms":              float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e6,
		"runtime.cpu_util":                 ratio(float64(b.cpuNs-a.cpuNs)/1e9, wall*float64(runtime.GOMAXPROCS(0))),
	}
}
