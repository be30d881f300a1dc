package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// workloads.json fixes each workload's rates, ladder, latency limit and
// the share of --seconds each phase gets; it also carries the per-layer →
// end-to-end map, and documents the reasons, the held-out seed and the
// recorded environment for readers. It is embedded so a built binary
// cannot drift from it.
//
//go:embed workloads.json
var workloadsJSON []byte

type workloadConfig struct {
	Why     string  `json:"why"`
	Nominal float64 `json:"nominal_per_s"`
	// Ladder holds the offered rates, ascending and at most 10% apart,
	// that the slo_rate_per_s staircase walks.
	Ladder []float64 `json:"ladder_per_s"`
	// LimitMS is the grant-latency limit at percentile SLOPercentile.
	LimitMS       float64 `json:"latency_limit_ms"`
	SLOPercentile float64 `json:"slo_percentile"`
	// Overload is the fixed offered rate past capacity (front-door only).
	Overload float64 `json:"overload_per_s,omitempty"`
	// Shares of --seconds given to the nominal segment and the overload
	// segment.
	NominalShare  float64 `json:"nominal_share"`
	OverloadShare float64 `json:"overload_share,omitempty"`
	// Windows is how many windows of the nominal stream a run serves,
	// interleaved with the Trials ladder trials (see endToEnd).
	Windows int `json:"windows"`
	Trials  int `json:"rung_trials"`
	// Warmup is the number of nominal-stream arrivals each set-up serves,
	// closed-loop, before measuring.
	Warmup int `json:"warmup_arrivals"`
}

// Shares of --seconds and repeat counts that every workload shares.
const (
	rungShare  = 0.05 // each ladder trial
	traceShare = 0.28 // the traced run's nominal stream, served untraced and then traced
	probeShare = 0.08 // each traced-run probe through a layer the workload does not use
	// setups is how many set-ups an untraced run makes before its first
	// window; every ladder trial makes one more.
	setups = 3
)

// layerMetric is one per-layer metric, the end-to-end metrics it should
// move and the workloads it should move them on.
type layerMetric struct {
	Metric string   `json:"metric"`
	Unit   string   `json:"unit"`
	Moves  []string `json:"moves"`
	On     []string `json:"on"`
}

type benchConfig struct {
	Workloads map[string]workloadConfig `json:"workloads"`
	Layers    []layerMetric             `json:"layers"`
}

func loadConfig() (benchConfig, error) {
	var c benchConfig
	if err := json.Unmarshal(workloadsJSON, &c); err != nil {
		return c, fmt.Errorf("parsing workloads.json: %w", err)
	}
	for name, w := range c.Workloads {
		for i := 1; i < len(w.Ladder); i++ {
			if w.Ladder[i] <= w.Ladder[i-1] || w.Ladder[i] > 1.1*w.Ladder[i-1]+1e-9 {
				return c, fmt.Errorf("workload %s: ladder %v must ascend in steps of at most 10%%", name, w.Ladder)
			}
		}
	}
	return c, nil
}
