package main

import (
	"runtime"
	"syscall"
	"time"
)

// preciseSleeper sleeps the calling goroutine's own OS thread with
// nanosleep. time.Sleep parks on the runtime's poller, which on Linux
// waits in whole milliseconds once every thread is idle; an open-loop
// generator that slept that coarsely would add its own lateness to every
// request it times. Call lock on the worker goroutine before sleeping
// and unlock when it is done.
type preciseSleeper struct{}

func (preciseSleeper) lock() {
	runtime.LockOSThread()
	// PR_SET_TIMERSLACK (29): let this thread's timers fire within 1µs
	// instead of the default 50µs. Best effort; a refusal only costs
	// precision.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, 29, 1000, 0)
}

func (preciseSleeper) unlock() { runtime.UnlockOSThread() }

func (preciseSleeper) sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
