package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"

	"aergia/internal/experiments"
	"aergia/internal/runner"
)

// defaultSeed is the workload seed whose float64 records are pinned by
// digests.json.
const defaultSeed = 1

// clients is the closed loop's width: one client per CPU of the 2-vCPU
// machine the benchmark was sized on. Each holds at most one connection.
const clients = 2

// flExperiments are the quick FL experiments of the paper-reproduction
// path; every fl-sweep sweep runs all of them on both backends.
var flExperiments = []string{"fig1a", "fig9", "fig-bandwidth", "fig-churn", "async"}

// staticExperiments are the quick static experiments: near-zero compute.
var staticExperiments = []string{"table1", "profiler", "ablation-sched", "fig4"}

// workload is one traffic mix against one daemon layout.
type workload struct {
	name string
	// fleet runs a control daemon with no local slots plus two one-slot
	// workers; otherwise one daemon with two local slots.
	fleet bool
	// resubmit makes every other sweep of a client a repeat of one it
	// already completed, answered from the store.
	resubmit bool
	// sweep returns client c's k-th fresh sweep under the workload seed.
	sweep func(seed uint64, c, k int) sweepSpec
	// sample is how many fl results a run checks against in-process runs
	// (0 checks every result).
	sample int
}

// workloads are the traffic mixes; doc.go gives the reason for each, and
// why a tiny-fleet mix is not among them.
var workloads = map[string]workload{
	"fl-sweep": {
		name:  "fl-sweep",
		fleet: true,
		sweep: func(seed uint64, c, k int) sweepSpec {
			return sweepSpec{
				Experiments: flExperiments,
				Seeds:       []uint64{jobSeed(seed, c, k)},
				Backends:    []string{"serial", "serial32"},
				Quick:       []bool{true},
			}
		},
		sample: 2,
	},
	"tiny-local": {
		name:     "tiny-local",
		resubmit: true,
		sweep:    staticSweep,
	},
}

// staticSweep lists the static experiments in an order drawn from the
// sweep's seed. The order decides which worker slot gets the one heavy job
// (fig4); a fixed order lets the closed loop lock into one dispatch pattern
// for a whole run, and different runs into different ones.
func staticSweep(seed uint64, c, k int) sweepSpec {
	rng := rand.New(rand.NewPCG(seed, uint64(c)<<32|uint64(k)))
	order := make([]string, len(staticExperiments))
	for i, j := range rng.Perm(len(order)) {
		order[i] = staticExperiments[j]
	}
	return sweepSpec{
		Experiments: order,
		Seeds:       []uint64{jobSeed(seed, c, k)},
		Quick:       []bool{true},
	}
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// jobSeed derives the experiment seed of client c's k-th fresh sweep. Seeds
// of one run are distinct by construction (k < 2^15 in any run), so a
// fresh sweep is never answered from the store.
func jobSeed(seed uint64, c, k int) uint64 {
	return 1 + (mix64(seed)%(1<<30))<<16 + uint64(k)<<1 + uint64(c)
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// sweepSpec is the POST /jobs sweep body (the runner.Sweep axes used here).
type sweepSpec struct {
	Experiments []string `json:"experiments"`
	Seeds       []uint64 `json:"seeds"`
	Backends    []string `json:"backends,omitempty"`
	Quick       []bool   `json:"quick"`
}

// jobSpec is one expected job of a sweep.
type jobSpec struct {
	ID         string
	Experiment string
	Options    experiments.Options
}

// jobs expands the sweep in the daemon's order, with the IDs the daemon
// must answer with.
func (s sweepSpec) jobs() ([]jobSpec, error) {
	expanded, err := runner.Sweep{
		Experiments: s.Experiments, Seeds: s.Seeds, Backends: s.Backends, Quick: s.Quick,
	}.Expand()
	if err != nil {
		return nil, fmt.Errorf("expand sweep: %w", err)
	}
	out := make([]jobSpec, len(expanded))
	for i, j := range expanded {
		out[i] = jobSpec{ID: j.ID(), Experiment: j.Experiment, Options: j.Options}
	}
	return out, nil
}
