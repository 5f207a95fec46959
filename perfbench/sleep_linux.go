package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// sleeper waits out open-loop gaps on a timerfd read through the runtime's
// network poller. time.Sleep cannot serve here: an idle Go process parks
// in epoll_wait with a millisecond timeout, so every wake-up would run up
// to a millisecond late and that lateness would count in every latency.
// A timerfd wakes the poller at its expiry, and a goroutine blocked on it
// holds no P, unlike one blocked in nanosleep.
type sleeper struct{ f *os.File }

func newSleeper() *sleeper {
	const tfdNonblock = syscall.O_NONBLOCK
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, 1 /* CLOCK_MONOTONIC */, tfdNonblock|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return &sleeper{}
	}
	return &sleeper{f: os.NewFile(fd, "timerfd")}
}

// sleep blocks for d.
func (s *sleeper) sleep(d time.Duration) {
	if s.f == nil {
		time.Sleep(d)
		return
	}
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)} // interval, value
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.f.Fd(), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		time.Sleep(d)
		return
	}
	var buf [8]byte
	s.f.Read(buf[:])
}

func (s *sleeper) close() {
	if s.f != nil {
		s.f.Close()
	}
}
