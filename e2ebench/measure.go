package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile is the nearest-rank q-quantile of xs (sorted in place) and the
// number of samples above its rank.
func quantile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1], len(xs) - rank
}

func median(xs []float64) float64 {
	v, _ := quantile(append([]float64(nil), xs...), 0.5)
	return v
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS makes VmHWM restart from the current RSS, so a later
// peakRSSMB covers only what ran in between.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuStat is the machine-wide "cpu" line of /proc/stat: total and steal
// jiffies.
type cpuStat struct{ total, steal uint64 }

func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	var s cpuStat
	// user nice system idle iowait irq softirq steal; guest time is
	// already inside user.
	for i := 1; i < len(fields) && i <= 8; i++ {
		v, _ := strconv.ParseUint(fields[i], 10, 64)
		s.total += v
		if i == 8 {
			s.steal = v
		}
	}
	return s
}

// stealPct is the share of CPU time the hypervisor took between a and b.
func stealPct(a, b cpuStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// host is the noise record printed beside every run's metrics.
type host struct {
	numCPU, maxProcs int
	goVersion        string
	stealPct         float64
}

func (h host) String() string {
	return fmt.Sprintf("host num_cpu=%d GOMAXPROCS=%d go=%s steal_pct=%.1f",
		h.numCPU, h.maxProcs, h.goVersion, h.stealPct)
}

func hostRecord(steal float64) host {
	return host{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), steal}
}

// allocStats reads the runtime's cumulative heap allocation bytes and GC
// cycle count.
func allocStats() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}
