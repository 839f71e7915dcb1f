package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a tail percentile for
// it to be reported; with fewer the percentile is missing.
const minBeyond = 10

// series is a set of measured values of one quantity.
type series []float64

// quantile returns the nearest-rank p-quantile and whether it may be
// reported: a median needs one sample, a tail percentile (p > 0.5)
// needs at least minBeyond samples beyond it.
func (s series) quantile(p float64) (float64, bool) {
	n := len(s)
	if n == 0 {
		return 0, false
	}
	if p > 0.5 && float64(n)*(1-p) < minBeyond {
		return 0, false
	}
	sorted := append(series(nil), s...)
	sort.Float64s(sorted)
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i], true
}

func (s series) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

func (s series) min() float64 {
	if len(s) == 0 {
		return 0
	}
	m := s[0]
	for _, v := range s[1:] {
		m = math.Min(m, v)
	}
	return m
}

func (s series) max() float64 {
	var m float64
	for _, v := range s {
		m = math.Max(m, v)
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// point is one sample of a monotone counter: at time t (ns since the
// phase started) the counter read n.
type point struct {
	t int64
	n int64
}

// countLags pairs the k-th event of a sorted time list with the first
// moment a counter curve reached k, and returns each pair's lag in ms
// (negative lags, where the counter outran the client's own clock
// read, count as zero). Events the curve never reaches are skipped;
// callers check completeness separately.
func countLags(events []int64, curve []point) series {
	out := make(series, 0, len(events))
	j := 0
	for k := range events {
		for j < len(curve) && curve[j].n < int64(k+1) {
			j++
		}
		if j == len(curve) {
			break
		}
		lag := curve[j].t - events[k]
		if lag < 0 {
			lag = 0
		}
		out = append(out, float64(lag)/1e6)
	}
	return out
}

// curveTimes turns a counter curve into a sorted event-time list: the
// k-th entry is the first moment the counter reached k.
func curveTimes(curve []point, n int) []int64 {
	out := make([]int64, 0, n)
	for _, p := range curve {
		for int64(len(out)) < p.n && len(out) < n {
			out = append(out, p.t)
		}
	}
	return out
}

// asCurve is the counter curve of a sorted event-time list.
func asCurve(events []int64) []point {
	out := make([]point, len(events))
	for i, t := range events {
		out[i] = point{t: t, n: int64(i + 1)}
	}
	return out
}

// endToEndSamples gathers a run's end-to-end samples. Every metric is
// the median over the run's set-ups, rounds or report reads; the
// visibility percentiles are taken per round first, so one disturbed
// round moves them no more than it moves the throughput.
type endToEndSamples struct {
	setup, batch, rate, retained    series
	visP50, visP99                  series
	visN                            int
	reportMs, reportAllocs, allocMB series
}

// addRound takes one timed round: its wall time, its impressions per
// second, the heap it retained and each impression's visibility lag.
func (e *endToEndSamples) addRound(batch time.Duration, rate, retained float64, visible series) {
	e.batch = append(e.batch, batch.Seconds())
	e.rate = append(e.rate, rate)
	e.retained = append(e.retained, retained)
	if p50, ok := visible.quantile(0.5); ok {
		e.visP50 = append(e.visP50, p50)
	}
	if p99, ok := visible.quantile(0.99); ok {
		e.visP99 = append(e.visP99, p99)
	}
	e.visN += len(visible)
}

func (e *endToEndSamples) addReads(reads []reportRead) {
	for _, rd := range reads {
		e.reportMs = append(e.reportMs, ms(rd.d))
		e.reportAllocs = append(e.reportAllocs, float64(rd.mallocs))
		e.allocMB = append(e.allocMB, float64(rd.bytes)/1e6)
	}
}

// record stores the medians. A visibility percentile is missing unless
// every round had enough samples beyond it.
func (e *endToEndSamples) record(r *results) {
	r.quantile("setup_s", e.setup, 0.5)
	r.quantile("batch_s", e.batch, 0.5)
	r.quantile("impressions_per_s", e.rate, 0.5)
	r.quantile("retained_heap_mb", e.retained, 0.5)
	r.quantile("report_ms", e.reportMs, 0.5)
	r.quantile("report_allocs", e.reportAllocs, 0.5)
	r.quantile("report_alloc_mb", e.allocMB, 0.5)
	for name, s := range map[string]series{"visible_p50_ms": e.visP50, "visible_p99_ms": e.visP99} {
		if len(s) < len(e.batch) || len(s) == 0 {
			r.miss(name, fmt.Sprintf("a round had fewer than %d samples beyond it", minBeyond))
			continue
		}
		v, _ := s.quantile(0.5)
		r.set(name, v, e.visN)
	}
}

// reportRead is one timed report call with its allocation delta.
type reportRead struct {
	d              time.Duration
	mallocs, bytes uint64
}

// timedRead collects garbage left by earlier work, so it is not
// collected on fn's time, then measures fn.
func timedRead(fn func() error) (reportRead, error) {
	runtime.GC()
	return measure(fn)
}

// measure runs fn once, timing it and taking the runtime.MemStats
// Mallocs/TotalAlloc delta it caused.
func measure(fn func() error) (reportRead, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	runtime.ReadMemStats(&after)
	return reportRead{d: d, mallocs: after.Mallocs - before.Mallocs, bytes: after.TotalAlloc - before.TotalAlloc}, err
}

// liveHeap is the live heap after a forced collection, in MB.
func liveHeap() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// threadCPUTime is the CPU time the calling thread has used, user and
// system. Unlike the wall clock it leaves out the time other processes
// on the host take, and unlike the process's CPU time it leaves out
// the garbage collector's background workers, which soak up idle
// processors by amounts that vary from run to run. The caller locks
// its goroutine to the thread.
func threadCPUTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_THREAD, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
