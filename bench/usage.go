package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is a snapshot of what the process has consumed so far; since
// reports the growth over an interval.
type usage struct {
	cpu     time.Duration
	mallocs uint64
	gcCPU   float64 // seconds
}

func tv(t syscall.Timeval) time.Duration {
	return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
}

// processCPU is user+sys CPU of this process from getrusage: time a
// neighbour steals from the box does not count toward it.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func startUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	u := usage{cpu: processCPU(), mallocs: ms.Mallocs}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = s[0].Value.Float64()
	}
	return u
}

// since returns process CPU, heap allocations and the share of that CPU
// the Go runtime estimates it spent on garbage collection since u was taken.
func (u usage) since() (cpu time.Duration, mallocs uint64, gcFrac float64) {
	now := startUsage()
	cpu = now.cpu - u.cpu
	if cpu > 0 {
		gcFrac = (now.gcCPU - u.gcCPU) / cpu.Seconds()
	}
	return cpu, now.mallocs - u.mallocs, gcFrac
}

// stealReader reads the machine's stolen time: the CPU time the hypervisor
// gave to other guests while this one had work to run, which the kernel
// counts in /proc/stat. It is the one direct sign a run has of its
// neighbours. Where the file is missing or has no such column every
// reading is 0 and nothing is ever called stolen.
type stealReader struct {
	f   *os.File
	buf [256]byte
}

func openSteal() *stealReader {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return &stealReader{}
	}
	return &stealReader{f: f}
}

func (s *stealReader) Close() {
	if s.f != nil {
		s.f.Close()
	}
}

// ticks is the steal column of the aggregate "cpu" line: hundredths of a
// second (USER_HZ), summed over the CPUs.
func (s *stealReader) ticks() int64 {
	if s.f == nil {
		return 0
	}
	n, _ := s.f.ReadAt(s.buf[:], 0)
	line, _, _ := strings.Cut(string(s.buf[:n]), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}
