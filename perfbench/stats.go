package main

import (
	"bufio"
	"math"
	"math/bits"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// latHist records latencies in nanoseconds: one bucket per nanosecond
// below 2^16 ns, then 1024 buckets per power of two (under 0.1% wide).
// Quantiles interpolate inside the bucket that holds the rank, so a
// percentile reads as a measured number with all its digits, not a
// bucket bound.
type latHist struct {
	n      uint64
	counts []uint32
}

const (
	exactBits = 16
	subBits   = 10
	maxExp    = 40 // values at or above 2^40 ns (18 minutes) are clamped
)

func newLatHist() *latHist {
	return &latHist{counts: make([]uint32, 1<<exactBits+(maxExp-exactBits)<<subBits)}
}

func bucketOf(v uint64) int {
	if v < 1<<exactBits {
		return int(v)
	}
	if v >= 1<<maxExp {
		v = 1<<maxExp - 1
	}
	e := bits.Len64(v) - 1
	sub := int(v>>(uint(e)-subBits)) & (1<<subBits - 1)
	return 1<<exactBits + (e-exactBits)<<subBits + sub
}

// bucketRange returns the half-open value range [lo, hi) of bucket i.
func bucketRange(i int) (lo, hi float64) {
	if i < 1<<exactBits {
		return float64(i), float64(i + 1)
	}
	i -= 1 << exactBits
	e := i>>subBits + exactBits
	sub := i & (1<<subBits - 1)
	width := math.Ldexp(1, e-subBits)
	lo = math.Ldexp(1, e) + float64(sub)*width
	return lo, lo + width
}

func (h *latHist) recordNs(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))]++
	h.n++
}

// latBuf collects one round's latency samples in nanoseconds.
type latBuf []int32

func (b *latBuf) add(ns int64) { *b = append(*b, int32(min(max(ns, 0), math.MaxInt32))) }

// take returns the samples collected so far and empties the buffer.
func (b *latBuf) take() []int32 {
	out := append([]int32(nil), *b...)
	*b = (*b)[:0]
	return out
}

// clock reads monotonic nanoseconds since it was made: one clock read
// per call, which is all a timed operation pays for.
type clock struct{ base time.Time }

func timeBase() clock { return clock{time.Now()} }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// quantile returns the q-quantile in nanoseconds, interpolated linearly
// inside the bucket that holds rank q·n.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n)
	var below float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if below+float64(c) >= rank {
			lo, hi := bucketRange(i)
			return lo + (rank-below)/float64(c)*(hi-lo)
		}
		below += float64(c)
	}
	_, hi := bucketRange(len(h.counts) - 1)
	return hi
}

// median returns the median of xs (NaN when empty); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// cpuTime returns the process's user and system CPU time.
func cpuTime() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// heapLiveBytes runs a full GC and returns the live heap it found.
func heapLiveBytes() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// vmTicks reads the first line of /proc/stat: the clock ticks all CPUs of
// the machine spent busy, including ticks the hypervisor stole, and all
// ticks.
func vmTicks() (busy, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ { // user .. steal
		n, _ := strconv.ParseUint(f[i], 10, 64)
		total += n
		if i != 4 && i != 5 { // idle, iowait
			busy += n
		}
	}
	return busy, total
}

// procIO reads the read and write syscall counts of /proc/self/io.
func procIO() (syscr, syscw uint64) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		n, _ := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
		switch name {
		case "syscr":
			syscr = n
		case "syscw":
			syscw = n
		}
	}
	return syscr, syscw
}

// procSnap is the process-wide state the traced run reads around each
// measured window; add accumulates the differences over windows.
type procSnap struct {
	user, sys      time.Duration
	syscr, syscw   uint64
	mallocs        uint64
	gcCycles       uint64
	gcPause        time.Duration
	schedLatencies []uint64 // /sched/latencies:seconds bucket counts
}

var schedBuckets []float64

func takeProcSnap() procSnap {
	var s procSnap
	s.syscr, s.syscw = procIO()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs = ms.Mallocs
	s.gcCycles = uint64(ms.NumGC)
	s.gcPause = time.Duration(ms.PauseTotalNs)
	sm := []metrics.Sample{{Name: "/sched/latencies:seconds"}}
	metrics.Read(sm)
	h := sm[0].Value.Float64Histogram()
	schedBuckets = h.Buckets
	s.schedLatencies = append([]uint64(nil), h.Counts...)
	s.user, s.sys = cpuTime()
	return s
}

func (d *procSnap) add(a, b procSnap) {
	d.user += b.user - a.user
	d.sys += b.sys - a.sys
	d.syscr += b.syscr - a.syscr
	d.syscw += b.syscw - a.syscw
	d.mallocs += b.mallocs - a.mallocs
	d.gcCycles += b.gcCycles - a.gcCycles
	d.gcPause += b.gcPause - a.gcPause
	if d.schedLatencies == nil {
		d.schedLatencies = make([]uint64, len(b.schedLatencies))
	}
	for i := range d.schedLatencies {
		d.schedLatencies[i] += b.schedLatencies[i] - a.schedLatencies[i]
	}
}

// schedP99 returns the 99th percentile of the scheduling latencies in the
// accumulated windows, in microseconds, interpolated inside its bucket.
func (d *procSnap) schedP99() float64 {
	var n uint64
	for _, c := range d.schedLatencies {
		n += c
	}
	if n == 0 {
		return 0
	}
	rank := 0.99 * float64(n)
	var below float64
	for i, c := range d.schedLatencies {
		if c == 0 {
			continue
		}
		if below+float64(c) >= rank {
			lo, hi := schedBuckets[i], schedBuckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			return (lo + (rank-below)/float64(c)*(hi-lo)) * 1e6
		}
		below += float64(c)
	}
	return 0
}
