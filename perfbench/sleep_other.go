//go:build !linux

package main

import "time"

// sleeper is time.Sleep where no timerfd is available.
type sleeper struct{}

func newSleeper() *sleeper { return &sleeper{} }

func (s *sleeper) sleep(d time.Duration) { time.Sleep(d) }

func (s *sleeper) close() {}
