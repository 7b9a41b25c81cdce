//go:build linux

// Package affinity provides the real pinning mechanics the paper's operators
// use: sched_setaffinity / sched_getaffinity via raw syscalls (what taskset
// does), goroutine-to-CPU pinning, and host topology discovery from sysfs.
// It is the operational counterpart of the simulator: a library for pinning
// actual processes on the current machine.
package affinity

import (
	"fmt"
	"runtime"
	"syscall"
	"unsafe"

	"repro/internal/topology"
)

// maskWords is sized for kernels up to 1024 CPUs, matching topology.MaxCPUs.
const maskWords = topology.MaxCPUs / 64

// cpuMask is the kernel's cpu_set_t bit layout.
type cpuMask [maskWords]uint64

func maskFromSet(s topology.CPUSet) cpuMask {
	var m cpuMask
	s.ForEach(func(c int) bool {
		m[c/64] |= 1 << uint(c%64)
		return true
	})
	return m
}

func setFromMask(m cpuMask) topology.CPUSet {
	var s topology.CPUSet
	for w, bits := range m {
		for b := 0; b < 64; b++ {
			if bits&(1<<uint(b)) != 0 {
				s.Add(w*64 + b)
			}
		}
	}
	return s
}

// Set binds pid (0 = calling thread) to the given CPU set.
func Set(pid int, s topology.CPUSet) error {
	if s.IsEmpty() {
		return fmt.Errorf("affinity: refusing to set an empty CPU set on pid %d", pid)
	}
	m := maskFromSet(s)
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY,
		uintptr(pid), uintptr(len(m)*8), uintptr(unsafe.Pointer(&m[0])))
	if errno != 0 {
		return fmt.Errorf("affinity: sched_setaffinity(pid=%d, %q): %w", pid, s.String(), errno)
	}
	return nil
}

// Get returns the CPU set pid (0 = calling thread) is allowed to run on.
func Get(pid int) (topology.CPUSet, error) {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY,
		uintptr(pid), uintptr(len(m)*8), uintptr(unsafe.Pointer(&m[0])))
	if errno != 0 {
		return topology.CPUSet{}, fmt.Errorf("affinity: sched_getaffinity(pid=%d): %w", pid, errno)
	}
	return setFromMask(m), nil
}

// PinnedRun locks the calling goroutine to an OS thread, pins that thread to
// the CPU set, runs fn, and restores the previous affinity: the way to run a
// "pinned" worker on a real host.
func PinnedRun(s topology.CPUSet, fn func() error) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	prev, err := Get(0)
	if err != nil {
		return err
	}
	if err := Set(0, s); err != nil {
		return err
	}
	defer func() {
		_ = Set(0, prev) // best effort restore; the thread is ours anyway
	}()
	return fn()
}

// Supported reports whether real affinity syscalls work here.
func Supported() bool {
	_, err := Get(0)
	return err == nil
}
