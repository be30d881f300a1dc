package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"rsin/internal/obs"
)

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
// An empty sample yields 0; callers report the sample count beside it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// histQuantile estimates the q-quantile of an obs histogram by linear
// interpolation inside the bucket that holds it, clamped to the observed
// min and max. The registry keeps buckets, not samples, so this is the
// resolution an operator scraping /metrics gets.
func histQuantile(h obs.HistogramSnapshot, q float64) float64 {
	if h.N == 0 {
		return 0
	}
	rank := q * float64(h.N)
	cum := 0.0
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo := h.Min
			if i > 0 {
				lo = math.Max(lo, h.Bounds[i-1])
			}
			hi := h.Max
			if i < len(h.Bounds) {
				hi = math.Min(hi, h.Bounds[i])
			}
			if hi < lo {
				hi = lo
			}
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return h.Max
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size (Linux reports KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// nproc bounds the generator's connections.
func nproc() int { return runtime.NumCPU() }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// environment is what every run records beside its numbers.
type environment struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func readEnvironment() environment {
	env := environment{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Commit:     os.Getenv("RSIN_COMMIT"),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if env.Commit == "" {
		env.Commit = "unknown" // run.sh sets RSIN_COMMIT
	}
	return env
}
