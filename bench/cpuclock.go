package main

import (
	"syscall"
	"time"
	"unsafe"
)

// Linux's CPU-time clocks (clock_gettime(2)), which the benchmark times
// its work with. On a paravirtualized guest with steal-time accounting
// they leave out the time the host ran someone else on the vCPU, which
// wall time counts; on a shared host that time comes and goes with the
// neighbours' load, whatever the benchmarked code does.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// processCPU is the CPU time every thread of the process has used.
func processCPU() time.Duration { return cpuClock(clockProcessCPU) }

// threadCPU is the CPU time the calling OS thread has used; it means
// something only to a goroutine locked to its thread.
func threadCPU() time.Duration { return cpuClock(clockThreadCPU) }
