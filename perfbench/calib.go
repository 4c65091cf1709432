package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The machine's speed drifts: on a shared 2-CPU VM the server's CPU per
// request and boot time rose 1.6 to 2.1 times within a minute and stayed
// there. So the bounded time metrics are reported at a reference speed:
// each raw time is scaled by calibRef over the median time of calibUnit,
// a fixed unit of work that shares no code with the program, timed in
// the same run while the server is idle. In that slowdown a
// compute-bound unit slowed 1.54 times and an allocation-bound one 2.2
// times, so calibUnit does both. Boot time is a wall time and is scaled
// by the unit's wall time; the server's CPU time is scaled by the unit's
// thread CPU time, since time the host steals from the VM slows the
// unit's wall clock and the boot but not the server's CPU accounting.
// The raw times are printed beside the scaled ones.

// calibRef is the reference time of one calibUnit, wall or CPU, about
// its median on a quiet 2-CPU x86-64 VM, so that scaled figures stay
// near real times.
const calibRef = 37 * time.Millisecond

// calibSample is one calibUnit timing.
type calibSample struct {
	wall, cpu time.Duration
}

var (
	calibSink  float64
	calibTable []uint32 // 16 MiB, filled on first use
)

// calibNode is an allocation of the size the auditors make by the
// million.
type calibNode struct {
	v    [4]float64
	next *calibNode
}

// calibUnit times a fixed unit of work on one OS thread. Compute:
// three rounds of filling, sorting and bucketing a fresh 512 KiB slice
// of pseudo-random floats, then a chain of 65536 dependent reads from a
// 16 MiB table. Allocation: 60000 linked heap nodes indexed by a map,
// then a walk over the map.
func calibUnit() calibSample {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if calibTable == nil {
		calibTable = make([]uint32, 1<<22)
		for i := range calibTable {
			calibTable[i] = uint32(i*2654435761) >> 10
		}
	}
	t0, c0 := time.Now(), threadCPU()
	x := uint64(88172645463325252)
	for r := 0; r < 3; r++ {
		xs := make([]float64, 1<<16)
		for i := range xs {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			xs[i] = float64(x>>11) / (1 << 53)
		}
		sort.Float64s(xs)
		m := make(map[uint64]int, 1024)
		for i := 0; i < 20000; i++ {
			m[uint64(xs[i%len(xs)]*1e6)%4096]++
		}
		calibSink += xs[len(xs)/2] + float64(len(m))
	}
	j := uint32(1)
	for i := 0; i < 1<<16; i++ {
		j = calibTable[(j*2654435761+uint32(i))&(1<<22-1)]
	}
	calibSink += float64(j)
	nodes := make(map[int]*calibNode)
	var prev *calibNode
	for i := 0; i < 60000; i++ {
		n := &calibNode{next: prev}
		n.v[0] = float64(i)
		nodes[i*7919%100003] = n
		prev = n
	}
	for _, n := range nodes {
		calibSink += n.v[0]
	}
	took := calibSample{wall: time.Since(t0), cpu: threadCPU() - c0}
	// Collect the unit's garbage now, so the driver's collector does not
	// run beside the boot or phase that follows.
	runtime.GC()
	return took
}

// threadCPU reads the calling thread's CPU clock
// (CLOCK_THREAD_CPUTIME_ID, nanosecond resolution; getrusage counts
// whole scheduler ticks).
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_THREAD_CPUTIME_ID): %v", errno))
	}
	return time.Duration(ts.Nano())
}

// speedScale returns calibRef over the median wall time and over the
// median CPU time of the samples: the factors that bring a wall time and
// a CPU time measured alongside them to the reference speed (1 with no
// samples).
func speedScale(samples []calibSample) (wall, cpu float64) {
	if len(samples) == 0 {
		return 1, 1
	}
	ws := make([]float64, len(samples))
	cs := make([]float64, len(samples))
	for i, s := range samples {
		ws[i], cs[i] = float64(s.wall), float64(s.cpu)
	}
	return float64(calibRef) / medianFloat(ws), float64(calibRef) / medianFloat(cs)
}
