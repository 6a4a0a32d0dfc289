package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The benchmark's gated timings are CPU time, not wall time: on a shared
// 2-vCPU virtual machine the hypervisor stole 15–85 of every 200 vCPU ticks
// per second under load, which wall time counts and CPU time does not.

const (
	clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPUTime  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// processCPU is the CPU time consumed by every thread of the process.
func processCPU() time.Duration { return cpuClock(clockProcessCPUTime) }

// threadCPU is the CPU time consumed by the calling OS thread; the main
// goroutine is locked to its thread, so this is the analyst's CPU time.
func threadCPU() time.Duration { return cpuClock(clockThreadCPUTime) }

// clocks reads wall and process CPU time together.
type clocks struct {
	wall time.Time
	cpu  time.Duration
}

func now() clocks { return clocks{wall: time.Now(), cpu: processCPU()} }

// since returns the wall and process CPU time elapsed since c.
func (c clocks) since() (wall, cpu time.Duration) {
	return time.Since(c.wall), processCPU() - c.cpu
}
