package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a Linux CPU affinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

// pinToOneCPU restricts every thread of this process to the lowest CPU
// it may run on, sets GOMAXPROCS to 1 and returns that CPU. Threads and
// processes started afterwards inherit the mask, so serve's server and its
// worker subprocesses share the CPU with the client. Their hand-offs are
// then context switches on one busy CPU rather than wake-ups of an idle
// one, which on a shared virtual machine cost a varying share of a warm
// job. unpin restores the previous mask and GOMAXPROCS.
func pinToOneCPU() (cpu int, unpin func() error, err error) {
	var allowed cpuMask
	if err := affinity(syscall.SYS_SCHED_GETAFFINITY, 0, &allowed); err != nil {
		return 0, nil, err
	}
	cpu = -1
	for i := 0; i < len(allowed)*64 && cpu < 0; i++ {
		if allowed[i/64]&(1<<(i%64)) != 0 {
			cpu = i
		}
	}
	if cpu < 0 {
		return 0, nil, errors.New("empty CPU affinity mask")
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	if err := setAllThreads(&one); err != nil {
		return 0, nil, err
	}
	procs := runtime.GOMAXPROCS(1)
	return cpu, func() error {
		runtime.GOMAXPROCS(procs)
		return setAllThreads(&allowed)
	}, nil
}

// setAllThreads sets the mask of every thread of this process. A thread
// started from a thread not yet set during a pass keeps the old mask, so
// it repeats until a pass finds no new thread.
func setAllThreads(m *cpuMask) error {
	done := map[int]bool{}
	for {
		entries, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		fresh := 0
		for _, e := range entries {
			tid, err := strconv.Atoi(e.Name())
			if err != nil || done[tid] {
				continue
			}
			if err := affinity(syscall.SYS_SCHED_SETAFFINITY, tid, m); err != nil && !errors.Is(err, syscall.ESRCH) {
				return err
			}
			done[tid] = true
			fresh++
		}
		if fresh == 0 {
			return nil
		}
	}
}

// affinity gets or sets the mask of thread tid (0 is the calling thread).
func affinity(trap uintptr, tid int, m *cpuMask) error {
	_, _, errno := syscall.RawSyscall(trap, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if errno != 0 {
		return fmt.Errorf("sched affinity: %w", errno)
	}
	return nil
}
