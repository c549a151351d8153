package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// now is the benchmark's one wall-clock read.
func now() time.Time {
	return time.Now() //detlint:allow wallclock: the benchmark measures host time, never simulated time
}

// processSample is a point-in-time reading of the process's clocks and
// heap.
type processSample struct {
	wall  time.Time
	cpu   time.Duration // user + system CPU of the whole process
	alloc uint64        // heap bytes allocated since start
}

func sampleProcess() processSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	return processSample{
		wall:  now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: heapAllocated(s),
	}
}

// maxRSSBytes returns the process's peak resident set size.
func maxRSSBytes() int64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	// Linux reports kilobytes.
	return ru.Maxrss * 1024
}

// hostFacts describes the machine a result was measured on.  Results
// are only ever compared with results from the same host.
type hostFacts struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Seed       int64  `json:"seed"`
	Workload   string `json:"workload"`
}

func host(workload string, seed int64) hostFacts {
	return hostFacts{
		Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPUModel: cpuModel(), Seed: seed, Workload: workload,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown"
// where there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
