package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU so far. CPU per operation is
// the end-to-end figure least bent by a noisy neighbour on a shared box.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procField reads one "Key: value" line of a /proc file (value's first
// word); ok is false where /proc does not offer it.
func procField(path, key string) (string, bool) {
	f, err := os.Open(path)
	if err != nil {
		return "", false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, val, found := strings.Cut(sc.Text(), ":")
		if found && strings.TrimSpace(name) == key {
			return strings.TrimSpace(val), true
		}
	}
	return "", false
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	v, ok := procField("/proc/self/status", "VmHWM")
	if !ok {
		return 0
	}
	kb, _ := strconv.ParseFloat(strings.Fields(v)[0], 64)
	return kb / 1024
}

// writeSyscalls counts the process's write(2)-family calls so far. The
// benchmark itself writes nothing while it measures, so the delta over a
// durable run is the number of log group writes — one per fsync — which
// is the only outside view of the group-commit size. ok is false where
// /proc/self/io is unavailable.
func writeSyscalls() (int64, bool) {
	v, ok := procField("/proc/self/io", "syscw")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(v, 10, 64)
	return n, err == nil
}

func cpuModel() string {
	v, _ := procField("/proc/cpuinfo", "model name")
	return v
}
