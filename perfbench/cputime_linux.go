package main

import (
	"syscall"
	"time"
	"unsafe"
)

// processCPU is the CPU time the process has used so far, over all its
// threads (CLOCK_PROCESS_CPUTIME_ID). A kernel with paravirtual steal-time
// accounting leaves out the time the hypervisor gave the virtual CPU to
// another guest, so on a shared host this clock follows the work done,
// where the wall clock follows the neighbours' load as well.
func processCPU() time.Duration { return cpuClock(2) } // CLOCK_PROCESS_CPUTIME_ID

// threadCPU is the CPU time the calling thread has used so far
// (CLOCK_THREAD_CPUTIME_ID), steal left out as for processCPU. The caller
// locks its goroutine to the thread.
func threadCPU() time.Duration { return cpuClock(3) } // CLOCK_THREAD_CPUTIME_ID

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
