package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// perCore is tenant ticks per second of wallNS per GOMAXPROCS.
func perCore(ticks float64, wallNS int64) float64 {
	return ratio(ticks, float64(wallNS)/1e9) / float64(runtime.GOMAXPROCS(0))
}

// ratio returns a/b, or 0 when b is 0 (a layer not on the workload's path).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuSeconds is the CPU time this process has used so far, user plus
// system. Unlike wall time it leaves out the time the host gave to other
// processes.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// stopwatch reads wall and process CPU time together.
type stopwatch struct {
	wall time.Time
	cpu  float64
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuSeconds()} }

// rtSample is a runtime/metrics reading: cumulative heap allocation and GC
// CPU. Reading these never stops the world, unlike runtime.ReadMemStats.
type rtSample struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// readRT reads the runtime counters. The sample buffer is the caller's so
// hot call sites do not allocate.
func readRT(buf []metrics.Sample) rtSample {
	metrics.Read(buf)
	return rtSample{
		allocBytes:   buf[0].Value.Uint64(),
		allocObjects: buf[1].Value.Uint64(),
		gcCPU:        buf[2].Value.Float64(),
		totalCPU:     buf[3].Value.Float64(),
	}
}

func newRTBuf() []metrics.Sample {
	buf := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		buf[i].Name = n
	}
	return buf
}

func (a rtSample) sub(b rtSample) rtSample {
	return rtSample{
		allocBytes:   a.allocBytes - b.allocBytes,
		allocObjects: a.allocObjects - b.allocObjects,
		gcCPU:        a.gcCPU - b.gcCPU,
		totalCPU:     a.totalCPU - b.totalCPU,
	}
}

// liveHeapMB collects garbage and returns the live heap in MB: the memory
// the system under test holds, free of the collector's pacing.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// hostLine describes the machine a result was measured on, so results from
// different CPUs are never mixed up.
func hostLine() string {
	info := map[string]string{"model name": "unknown", "cpu MHz": "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			k, v, _ := strings.Cut(sc.Text(), ":")
			if k = strings.TrimSpace(k); info[k] == "unknown" {
				info[k] = strings.TrimSpace(v)
			}
		}
		f.Close()
	}
	return fmt.Sprintf("host: cpu=%q mhz=%s nproc=%d gomaxprocs=%d go=%s os=%s/%s",
		info["model name"], info["cpu MHz"], runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// digest folds values into a running fnv-1a/64 hash.
type digest struct{ h uint64 }

func newDigest() digest { return digest{h: fnv.New64a().Sum64()} }

func (d *digest) add(vs ...float64) {
	h := fnv.New64a()
	var b [8]byte
	put := func(u uint64) {
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	put(d.h)
	for _, v := range vs {
		put(math.Float64bits(v))
	}
	d.h = h.Sum64()
}

func (d digest) String() string { return strconv.FormatUint(d.h, 16) }
