package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"aergia/internal/runner"
)

// endToEnd brings the workload's daemons up, drives the closed loop on
// them for the run's seconds with tracing off, stops them and verifies
// every observed outcome. The set-ups are timed in three groups: before the
// phase (the last set serves it), right after it, and after the output
// check.
func (b *bench) endToEnd(w workload) (report, error) {
	setups, c, err := b.setUp(w, true)
	if err != nil {
		return report{}, err
	}
	defer c.stop()
	steal0, total0, err := cpuTicks()
	if err != nil {
		return report{}, err
	}
	ph, err := b.runPhase(c, w, b.seconds, nil)
	if err != nil {
		return report{}, err
	}
	steal1, total1, err := cpuTicks()
	if err != nil {
		return report{}, err
	}
	b.note("CPU time stolen by the host during the phase: %.2f%%",
		100*float64(steal1-steal0)/float64(max(total1-total0, 1)))
	rss, err := c.rssMB()
	if err != nil {
		return report{}, err
	}
	c.stop()
	more, _, err := b.setUp(w, false)
	if err != nil {
		return report{}, err
	}
	setups = append(setups, more...)
	failed, err := b.verify(w, ph, "measured phase")
	if err != nil {
		return report{}, err
	}
	more, _, err = b.setUp(w, false)
	if err != nil {
		return report{}, err
	}
	setups = append(setups, more...)
	if b.seed == defaultSeed {
		bad, err := b.checkDigests(w, ph)
		if err != nil {
			return report{}, err
		}
		failed += bad
	}
	m := b.phaseMetrics(ph, failed)
	b.note("setup_s is the median of %d set-ups from %.4f s to %.4f s", len(setups), slices.Min(setups), slices.Max(setups))
	m["setup_s"] = metric{median(setups), "s"}
	m["rss_peak_mb"] = metric{rss, "MB"}
	return report{Correct: failed == 0, Attempted: len(ph.jobs), Failed: failed, Metrics: m}, finite(m)
}

// cpuTicks returns the steal and total ticks of all CPUs from /proc/stat.
// Time the host gives other guests slows every metric of a run at once;
// the note lets a reader tell such a run from a slow program.
func cpuTicks() (steal, total uint64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// setUp brings the workload's daemons up setupsPerGroup times and returns
// each set-up's time. With keep, the last set stays up and is returned;
// otherwise every set is stopped.
func (b *bench) setUp(w workload, keep bool) ([]float64, *cluster, error) {
	var times []float64
	for i := 0; i < setupsPerGroup; i++ {
		dir, err := os.MkdirTemp(b.work, "setup-")
		if err != nil {
			return nil, nil, err
		}
		c, d, err := b.startCluster(dir, w.fleet)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, d.Seconds())
		if keep && i == setupsPerGroup-1 {
			return times, c, nil
		}
		c.stop()
	}
	return times, nil, nil
}

// phaseMetrics derives the end-to-end metrics of one phase. jobs_per_s is
// every verified job whose done event was read over the time to the last
// such event. Latencies are over executed jobs and sweeps: a resubmitted
// sweep is answered from the store in about a millisecond, and mixing the
// two populations half and half would put the median on the gap between
// them.
func (b *bench) phaseMetrics(ph *phase, failed int) map[string]metric {
	var done int
	var jobMS []float64
	for _, j := range ph.jobs {
		if !verified(j) {
			continue
		}
		done++
		if j.executed {
			jobMS = append(jobMS, ms(j.latency))
		}
	}
	beyond := tailCount(len(jobMS))
	jobTail, pct := tail(jobMS, beyond)
	extreme, extremePct := tail(jobMS, tailBeyond)
	attempted := len(ph.jobs)
	b.note("job_tail_ms is p%.2f of n=%d executed jobs (%d beyond it); p%.2f, the highest with %d beyond, is %.4g ms",
		pct, len(jobMS), beyond, extremePct, tailBeyond, extreme)
	b.note("%d verified jobs in %.3fs; %d executed sweeps", done, ph.elapsed.Seconds(), len(ph.sweepMS))
	b.note("failed_ratio %.4f (%d of %d attempted)", float64(failed)/float64(attempted), failed, attempted)
	return map[string]metric{
		"jobs_per_s":   {float64(done) / ph.elapsed.Seconds(), "jobs/s"},
		"job_p50_ms":   {median(jobMS), "ms"},
		"job_tail_ms":  {jobTail, "ms"},
		"sweep_p50_ms": {median(ph.sweepMS), "ms"},
		"ok_ratio":     {float64(attempted-failed) / float64(attempted), "ratio"},
	}
}

// traced measures every layer in process, then reruns the workload for
// the run's seconds on fresh daemons with the generator's spans on. The
// per-layer metrics come from the layer harness and that rerun; comparing
// the rerun's trace.* numbers with the untraced runs' end-to-end ones
// gives the tracing overhead (steady.py prints it).
func (b *bench) traced(w workload) (report, error) {
	m := map[string]metric{}
	checks, failed, err := b.layers(m)
	if err != nil {
		return report{}, err
	}
	c, _, err := b.startCluster(filepath.Join(b.work, "traced"), w.fleet)
	if err != nil {
		return report{}, err
	}
	defer c.stop()
	ph, err := b.runPhase(c, w, b.seconds, b.spans)
	if err != nil {
		return report{}, err
	}
	if w.fleet {
		leases, heartbeats, err := c.fedCounters(context.Background())
		if err != nil {
			return report{}, err
		}
		b.note("control /metrics: %.0f leases (%.3f per executed job), %.0f heartbeats",
			leases, leases/float64(executedJobs(ph)), heartbeats)
	}
	c.stop()
	bad, err := b.verify(w, ph, "traced phase")
	if err != nil {
		return report{}, err
	}
	e2e := b.phaseMetrics(ph, bad)
	m["aergiad.submit_ms"] = metric{median(ph.submitMS), "ms"}
	m["aergiad.first_event_ms"] = metric{median(ph.firstEvMS), "ms"}
	m["aergiad.result_get_ms"] = metric{median(ph.resultGetMS), "ms"}
	m["trace.jobs_per_s"] = e2e["jobs_per_s"]
	m["trace.job_p50_ms"] = e2e["job_p50_ms"]
	failed += bad
	return report{Correct: failed == 0, Attempted: checks + len(ph.jobs), Failed: failed, Metrics: m}, finite(m)
}

// verified reports whether a job was accepted, ended done and served the
// record the output check expects.
func verified(j *jobResult) bool {
	return !j.refused && !j.mismatch && j.status == string(runner.StatusDone)
}

// executedJobs counts the phase's jobs that ran rather than being
// answered from the store.
func executedJobs(ph *phase) int {
	n := 0
	for _, j := range ph.jobs {
		if j.executed && !j.refused {
			n++
		}
	}
	return n
}

// finite rejects a metric that has no value, such as a median of no
// samples: the run measured too little to report it.
func finite(m map[string]metric) error {
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s has no value: the run measured too little", name)
		}
	}
	return nil
}
