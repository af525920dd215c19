package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// epoch anchors every span and phase timestamp: nanoseconds since the
// benchmark process started, on the monotonic clock.
var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }

// cpuSeconds is the process's user+system CPU time (getrusage). It counts
// every goroutine, the garbage collector's included.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// point is the process state at one phase boundary; the difference of two
// points is what a phase cost.
type point struct {
	wall       int64   // nowNS
	cpu        float64 // getrusage user+sys seconds
	allocBytes uint64  // cumulative heap allocation
	gcCPU      float64 // cumulative GC CPU seconds (runtime estimate)
	stealS     float64 // cumulative CPU time the hypervisor took from this machine
}

var pointMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
}

func takePoint() point {
	s := make([]metrics.Sample, len(pointMetrics))
	for i, name := range pointMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return point{
		wall:       nowNS(),
		cpu:        cpuSeconds(),
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		stealS:     stealSeconds(),
	}
}

// stealSeconds is the machine-wide steal time from /proc/stat: CPU time the
// hypervisor gave to other guests while this one had work to run. It is 0
// where the kernel does not report it.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / userHZ
}

// userHZ is the kernel's clock-tick rate for /proc/stat (USER_HZ, 100 on
// Linux for every architecture Go supports).
const userHZ = 100

// phase is the cost between two points.
type phase struct {
	wallS      float64
	cpuS       float64
	allocBytes uint64
	gcCPU      float64
	stealS     float64
}

func between(a, b point) phase {
	return phase{
		wallS:      float64(b.wall-a.wall) / 1e9,
		cpuS:       b.cpu - a.cpu,
		allocBytes: b.allocBytes - a.allocBytes,
		gcCPU:      b.gcCPU - a.gcCPU,
		stealS:     b.stealS - a.stealS,
	}
}

func (p *phase) add(o phase) {
	p.wallS += o.wallS
	p.cpuS += o.cpuS
	p.allocBytes += o.allocBytes
	p.gcCPU += o.gcCPU
	p.stealS += o.stealS
}

// heapPeak samples the live heap (as of the last GC) on a short period and
// keeps the maximum: the peak_heap_mb source.
type heapPeak struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

const heapSamplePeriod = 5 * time.Millisecond

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	h.sample()
	go func() {
		defer close(h.done)
		t := time.NewTicker(heapSamplePeriod)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				h.sample()
			case <-h.stop:
				return
			}
		}
	}()
	return h
}

func (h *heapPeak) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for old := h.peak.Load(); v > old && !h.peak.CompareAndSwap(old, v); old = h.peak.Load() {
	}
}

// atRest collects garbage and samples: called right after a run while its
// protocol state is still referenced, it reads that state's live size
// exactly instead of whenever the last GC cycle happened to run.
func (h *heapPeak) atRest() {
	runtime.GC()
	h.sample()
}

// finish stops the sampler, waits for it, and returns the peak in MB.
func (h *heapPeak) finish() float64 {
	close(h.stop)
	<-h.done
	h.sample()
	return float64(h.peak.Load()) / (1 << 20)
}

// settle frees the previous repetition's garbage so every repetition
// starts from the same heap and the live-heap reading is fresh.
func settle() { runtime.GC() }

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

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
