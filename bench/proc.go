package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// procSample is a reading of the process-wide counters the report
// carries beside the timings: Go heap accounting, CPU time, and the
// kernel's per-process I/O accounting (which also sees the writes that
// bypass the counting filesystem: checkpoints, job records, sockets).
type procSample struct {
	totalAlloc, mallocs uint64
	numGC               uint32
	gcPauseNS           uint64
	cpuS                float64
	writeSyscalls       int64
	wcharBytes          int64
}

func readProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := procSample{totalAlloc: ms.TotalAlloc, mallocs: ms.Mallocs, numGC: ms.NumGC, gcPauseNS: ms.PauseTotalNs}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpuS = float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
	}
	io := procFields("/proc/self/io")
	s.writeSyscalls, s.wcharBytes = io["syscw"], io["wchar"]
	return s
}

// procFields parses a "key: value [unit]" file under /proc; a missing
// file (non-Linux host) yields an empty map and the counters read 0.
func procFields(path string) map[string]int64 {
	out := map[string]int64{}
	f, err := os.Open(path)
	if err != nil {
		return out
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		fields := strings.Fields(v)
		if len(fields) == 0 {
			continue
		}
		if n, err := strconv.ParseInt(fields[0], 10, 64); err == nil {
			out[k] = n
		}
	}
	return out
}

// peakRSSMB is the process's high-water resident set, in MiB.
func peakRSSMB() float64 {
	return float64(procFields("/proc/self/status")["VmHWM"]) / 1024
}
