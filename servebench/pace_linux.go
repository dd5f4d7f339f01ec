package main

import (
	"runtime"
	"syscall"
	"time"
)

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK option.
const prSetTimerSlack = 29

// sleep blocks for about d. The Go timer wheel wakes sleepers about a
// millisecond late on many Linux hosts, which would swamp sub-millisecond
// open-loop schedules, so the wait is a raw nanosleep on a thread whose
// timer slack is cut from the default 50µs to 1µs. The goroutine is
// locked to its thread only for the duration of the call; a blocking
// syscall hands the thread's P to other goroutines meanwhile.
func sleep(d time.Duration) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	// A failed prctl only leaves the default slack; the wait still ends.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
