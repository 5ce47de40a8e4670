package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSnapshot is the process-level counters read around a phase. The load
// generator runs in this process too, so these describe client and server
// together: they compare two versions of the program under identical
// client work, they are not the server's cost alone.
type procSnapshot struct {
	cpu     time.Duration // user + system
	mallocs uint64
	bytes   uint64
	gcPause time.Duration
}

func (s procSnapshot) sub(o procSnapshot) procSnapshot {
	return procSnapshot{cpu: s.cpu - o.cpu, mallocs: s.mallocs - o.mallocs, bytes: s.bytes - o.bytes, gcPause: s.gcPause - o.gcPause}
}

func (s *procSnapshot) add(o procSnapshot) {
	s.cpu += o.cpu
	s.mallocs += o.mallocs
	s.bytes += o.bytes
	s.gcPause += o.gcPause
}

func readProc() procSnapshot {
	var ru syscall.Rusage
	var s procSnapshot
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.bytes, s.gcPause = ms.Mallocs, ms.TotalAlloc, time.Duration(ms.PauseTotalNs)
	return s
}

// heapInUseMB forces a collection and returns the bytes of live Go heap
// objects, in MB (10^6 bytes). It reads HeapAlloc, not HeapInuse: the
// latter also counts the free part of partly used spans, which depends on
// what was allocated and freed before and not on what is held now.
func heapInUseMB() float64 {
	runtime.GC()
	runtime.GC() // a second cycle frees what finalizers released in the first
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// rssPeakMB returns the process's peak resident set (VmHWM) in MB, or 0
// where /proc does not offer it.
func rssPeakMB() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	return 0
}
