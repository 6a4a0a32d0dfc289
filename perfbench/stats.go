package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// stage accumulates the cost of one timed layer: wall nanoseconds plus the
// heap objects and bytes allocated while it ran.
type stage struct {
	ns, allocs, bytes int64
}

// time runs f and charges its wall time and allocations to the stage.
func (s *stage) time(f func()) {
	a0, b0 := heapAllocs()
	t0 := time.Now()
	f()
	s.ns += time.Since(t0).Nanoseconds()
	a1, b1 := heapAllocs()
	s.allocs += int64(a1 - a0)
	s.bytes += int64(b1 - b0)
}

var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
}

// heapAllocs returns the process's cumulative heap allocations.
func heapAllocs() (objects, bytes uint64) {
	metrics.Read(allocSamples)
	return allocSamples[0].Value.Uint64(), allocSamples[1].Value.Uint64()
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// cpuMark is a point on the runtime's CPU accounting.
type cpuMark struct{ gc, total float64 }

func markCPU() cpuMark {
	metrics.Read(cpuSamples)
	return cpuMark{gc: cpuSamples[0].Value.Float64(), total: cpuSamples[1].Value.Float64()}
}

// gcShare is the share of the process's CPU time spent in GC since m.
func (m cpuMark) gcShare() float64 {
	now := markCPU()
	if now.total <= m.total {
		return 0
	}
	return (now.gc - m.gc) / (now.total - m.total)
}

// liveHeap collects garbage and returns the bytes still live on the heap.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// ioCounters reads the process's write accounting from /proc/self/io:
// bytes passed to write-family syscalls and the number of those calls.
// Both are zero where the file does not exist.
func ioCounters() (wchar, syscw int64) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		switch k {
		case "wchar":
			wchar = n
		case "syscw":
			syscw = n
		}
	}
	return wchar, syscw
}

// stealMark is a point on the host's CPU accounting in /proc/stat.
type stealMark struct{ steal, total int64 }

func markSteal() stealMark {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealMark{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	var m stealMark
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		if i == 8 {
			m.steal = v
		}
		if i <= 8 {
			m.total += v
		}
	}
	return m
}

// share is the fraction of all vCPU time since m that the hypervisor
// stole from the machine.
func (m stealMark) share() float64 {
	now := markSteal()
	return per(float64(now.steal-m.steal), float64(now.total-m.total))
}

// peakRSS returns the process's peak resident set in MiB, from
// /proc/self/status (0 where it cannot be read).
func peakRSS() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// fsType names the filesystem holding dir, from the longest matching
// mount point in /proc/mounts ("unknown" if it cannot be read).
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := -1, "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, typ = len(mp), f[2]
		}
	}
	return typ
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

// median returns the median of xs (sorted in place).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return per(sum, float64(len(xs)))
}

// per divides, returning 0 for an empty denominator.
func per(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
