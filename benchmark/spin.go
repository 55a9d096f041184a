package awcbench

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// schedIdle is Linux's SCHED_IDLE policy: run only when nothing else wants
// the CPU, and yield it the moment something does.
const schedIdle = 5

// SpinIdle busy-loops on every CPU at SCHED_IDLE priority and never
// returns, unless the policy cannot be set. It is the body of the idle
// spinner process.
func SpinIdle() error {
	setIdle := func() error {
		param := struct{ priority int32 }{0}
		if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
			return fmt.Errorf("sched_setscheduler(SCHED_IDLE): %w", errno)
		}
		return nil
	}
	// Try on this thread first, so a refusal is reported and nothing spins
	// at normal priority.
	runtime.LockOSThread()
	if err := setIdle(); err != nil {
		return err
	}
	for i := 1; i < runtime.NumCPU(); i++ {
		go func() {
			runtime.LockOSThread()
			if setIdle() != nil {
				return
			}
			for {
			}
		}()
	}
	for {
	}
}

// StartIdleSpinner starts `<this binary> -idle-spin` and returns a function
// that stops it and waits for it to end.
//
// Why: a closed-loop run leaves each core idle for a moment between a
// request's hand-offs; an idle virtual CPU halts, and waking a halted
// virtual CPU costs whatever the host charges just then — the dominant
// run-to-run noise on the box the bounds were sized on (README "Load
// model" has the numbers). The spinner keeps the CPUs from halting, the
// user-space form of booting with idle=poll, and takes no CPU anything else
// wants. When the kernel refuses SCHED_IDLE the benchmark runs without it
// and says so.
func StartIdleSpinner() (stop func(), err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-idle-spin")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return nil, fmt.Errorf("idle spinner exited at once: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	return func() {
		_ = cmd.Process.Kill() // already-exited is fine
		<-done
	}, nil
}
