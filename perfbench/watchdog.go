package main

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"
)

// errDeadline reports a round that did not finish in time.
var errDeadline = errors.New("round exceeded its deadline")

// withDeadline runs fn on its own goroutine and waits at most d for it to
// return. On expiry it writes every goroutine's stack to dump and returns
// errDeadline; fn's goroutines are still running, so the caller reports the
// failure and ends the process rather than waiting on them.
func withDeadline(d time.Duration, dump io.Writer, fn func()) error {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-done:
		return nil
	case <-timer.C:
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		fmt.Fprintf(dump, "perfbench: round still running after %v; goroutines:\n%s\n", d, buf[:n])
		return errDeadline
	}
}
