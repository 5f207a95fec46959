//go:build !linux

package main

import "time"

var processStart = time.Now()

// processCPU and threadCPU are the wall time since the process started
// where no CPU clock is read.
func processCPU() time.Duration { return time.Since(processStart) }

func threadCPU() time.Duration { return time.Since(processStart) }
