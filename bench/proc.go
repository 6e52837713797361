package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	stdruntime "runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuNow returns the user+sys CPU time this process has used so far.
// Client, server and harness share the process, so a window's delta is
// the whole cost of the operations in it.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTicks is the aggregate "cpu" line of /proc/stat in clock ticks.
type cpuTicks struct {
	steal, total uint64
}

// parseProcStat reads the aggregate cpu line: user nice system idle
// iowait irq softirq steal [guest guest_nice]. Guest time is already
// inside user and nice, so the total is the first eight fields.
func parseProcStat(r io.Reader) (cpuTicks, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 9 || f[0] != "cpu" {
			continue
		}
		var t cpuTicks
		for i := 1; i <= 8; i++ {
			v, err := strconv.ParseUint(f[i], 10, 64)
			if err != nil {
				return cpuTicks{}, fmt.Errorf("proc stat field %d: %w", i, err)
			}
			t.total += v
			if i == 8 {
				t.steal = v
			}
		}
		return t, nil
	}
	if err := sc.Err(); err != nil {
		return cpuTicks{}, err
	}
	return cpuTicks{}, fmt.Errorf("proc stat: no aggregate cpu line")
}

// stealNow samples /proc/stat; the zero value where it cannot be read,
// so steal reads 0 off Linux.
func stealNow() cpuTicks {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	defer f.Close()
	t, err := parseProcStat(f)
	if err != nil {
		return cpuTicks{}
	}
	return t
}

// stealFrac is the share of all vCPU time between two samples that the
// hypervisor gave to someone else.
func stealFrac(a, b cpuTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// envStamp describes where and on what a run was measured.
func envStamp(seed int64) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return fmt.Sprintf("env commit=%s go=%s nproc=%d GOMAXPROCS=%d kernel=%q seed=%d",
		commit, stdruntime.Version(), stdruntime.NumCPU(), stdruntime.GOMAXPROCS(0), kernel, seed)
}
