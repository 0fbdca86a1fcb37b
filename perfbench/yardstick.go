package main

import (
	"runtime"
	"syscall"
)

// The yardstick is a fixed integer loop in the benchmark's own code. It
// calls nothing in the library, so no change to the program can move
// its time; only the host's speed can. A run times it between passes
// and scales its CPU times by the yardstick's reference time over its
// measured time (README.md, "Sizing and noise").
const (
	// yardstickIters is the length of one yardstick loop.
	yardstickIters = 64_000_000
	// yardstickRefS is the yardstick's median CPU time on the reference
	// machine the README's sizing figures come from.
	yardstickRefS = 0.145
)

// yardSink keeps the compiler from dropping the loop.
var yardSink uint64

// yardstick runs the loop once on a locked OS thread and returns that
// thread's CPU seconds, so that the garbage collector and other
// goroutines running beside it are not counted.
func yardstick() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPUSeconds()
	x := uint64(1)
	for i := 0; i < yardstickIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 17
	}
	yardSink += x
	return threadCPUSeconds() - start
}

// threadCPUSeconds is the CPU time the calling OS thread has used.
func threadCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_THREAD, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
