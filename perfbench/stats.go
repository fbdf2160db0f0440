package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// minBeyond is the number of samples a reported percentile must have
// beyond it; fewer make its value a statement about a handful of outliers.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs and the sample
// count, refusing a percentile with fewer than minBeyond samples above it.
func percentile(xs []float64, p float64) (float64, int, error) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, n, fmt.Errorf("percentile p%g of %d samples: undefined", p, n)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if beyond := n - rank; beyond < minBeyond {
		return 0, n, fmt.Errorf("percentile p%g of %d samples: %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], n, nil
}

// median is the middle value of xs (mean of the middle two for even
// counts); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// peakRSSMB reads the process's high-water resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// memSnap is a point-in-time read of the allocation counters.
type memSnap struct{ mallocs, bytes uint64 }

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{ms.Mallocs, ms.TotalAlloc}
}

func (m memSnap) since(earlier memSnap) memSnap {
	return memSnap{m.mallocs - earlier.mallocs, m.bytes - earlier.bytes}
}

// stealTicks reads the machine's cumulative steal time, in clock ticks:
// time the hypervisor gave this machine's CPUs to someone else while they
// had work. It is the eighth value of the cpu line of /proc/stat, and 0
// where the kernel does not report it.
func stealTicks() uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseUint(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// stealTick is how often a stealLog samples.
const stealTick = 100 * time.Millisecond

// stealLog samples stealTicks every stealTick from start to stop.
type stealLog struct {
	mu   sync.Mutex
	at   []time.Time
	v    []uint64
	quit chan struct{}
	done chan struct{}
}

func startStealLog() *stealLog {
	l := &stealLog{quit: make(chan struct{}), done: make(chan struct{})}
	l.sample()
	go func() {
		defer close(l.done)
		t := time.NewTicker(stealTick)
		defer t.Stop()
		for {
			select {
			case <-l.quit:
				return
			case <-t.C:
				l.sample()
			}
		}
	}()
	return l
}

func (l *stealLog) sample() {
	v, now := stealTicks(), time.Now()
	l.mu.Lock()
	l.at, l.v = append(l.at, now), append(l.v, v)
	l.mu.Unlock()
}

// stop takes a last sample and ends the sampling goroutine.
func (l *stealLog) stop() {
	l.sample()
	close(l.quit)
	<-l.done
}

// upTo is the steal counted by the last sample at or before t.
func (l *stealLog) upTo(t time.Time) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := sort.Search(len(l.at), func(i int) bool { return l.at[i].After(t) }) - 1
	return l.v[max(i, 0)]
}
