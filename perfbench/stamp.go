package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// machine is the stamp printed on every output.
type machine struct {
	nproc, gomaxprocs int
	goVersion         string
	cpuModel          string
	llcBytes          int64 // 0 when the kernel does not report it
}

func readMachine() machine {
	return machine{
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
		cpuModel:   cpuModel(),
		llcBytes:   llcBytes(),
	}
}

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

// llcBytes reads the size of cpu0's highest-level cache from sysfs.
func llcBytes() int64 {
	const dir = "/sys/devices/system/cpu/cpu0/cache/"
	best, bestLevel := int64(0), 0
	for i := 0; ; i++ {
		idx := dir + "index" + strconv.Itoa(i) + "/"
		lv, err := os.ReadFile(idx + "level")
		if err != nil {
			break
		}
		level, _ := strconv.Atoi(strings.TrimSpace(string(lv)))
		sz, err := os.ReadFile(idx + "size")
		if err != nil || level < bestLevel {
			continue
		}
		s := strings.TrimSpace(string(sz))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			best, bestLevel = v*mult, level
		}
	}
	return best
}

// peakRSSBytes is the process's peak resident set size.
func peakRSSBytes() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss << 10 // Linux reports KiB
}

// cpuNs is the process's user+system CPU time.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// stealNs is the machine-wide time the hypervisor ran other guests on
// this guest's CPUs, from /proc/stat (0 where it is not reported).
func stealNs() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseInt(f[8], 10, 64)
	return ticks * 1e7 // USER_HZ = 100
}

// timing is one timed interval: a setup or a Runner.Run.
type timing struct {
	wall  time.Duration
	cpu   int64 // process user+system CPU time, ns
	steal int64 // machine-wide steal time, ns
}

// measure runs f and times it.
func measure(f func()) timing {
	s0, c0, t0 := stealNs(), cpuNs(), time.Now()
	f()
	wall := time.Since(t0)
	return timing{wall: wall, cpu: cpuNs() - c0, steal: stealNs() - s0}
}

// stolen reports whether the hypervisor ran other guests on this guest's
// CPUs for more than maxStealShare of the interval's wall time.
func (t timing) stolen() bool { return float64(t.steal) > maxStealShare*float64(t.wall) }

// unstolen returns the indices of the timings that were not stolen, or,
// when fewer than k were not, the k with the least steal per wall second.
func unstolen(ts []timing, k int) []int {
	var keep []int
	for i, t := range ts {
		if !t.stolen() {
			keep = append(keep, i)
		}
	}
	if len(keep) >= k {
		return keep
	}
	all := make([]int, len(ts))
	for i := range all {
		all[i] = i
	}
	share := func(i int) float64 { return float64(ts[i].steal) / float64(ts[i].wall) }
	sort.SliceStable(all, func(a, b int) bool { return share(all[a]) < share(all[b]) })
	return all[:min(k, len(all))]
}

func (t timing) String() string {
	s := fmt.Sprintf("%.4f s (cpu %.4f s, machine steal %.2f s)", t.wall.Seconds(), secs(t.cpu), secs(t.steal))
	if t.stolen() {
		s += " stolen"
	}
	return s
}
