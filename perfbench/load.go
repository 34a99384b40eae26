package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync"
	"time"
)

// jobResult is what the closed loop observed of one job.
type jobResult struct {
	spec jobSpec
	// executed is false for jobs of a resubmitted sweep, answered from the
	// store without running.
	executed bool
	// latency runs from the POST of the job's sweep to its "event: done".
	latency time.Duration
	status  string
	result  json.RawMessage
	// refused marks a job the daemon did not accept; mismatch, a served
	// record that differs from the in-process run.
	refused, mismatch bool
}

// phase is the outcome of one measured closed-loop phase.
type phase struct {
	elapsed     time.Duration // from the start of the phase to its last done event read
	jobs        []*jobResult  // every job of every sweep POSTed in the phase
	sweepMS     []float64     // latencies of executed sweeps only
	submitMS    []float64
	firstEvMS   []float64
	resultGetMS []float64
}

// loadClient is one closed-loop client: it holds at most one connection,
// POSTs a sweep, follows each job's SSE stream until done, then fetches the
// results.
type loadClient struct {
	id      int
	c       *cluster
	w       workload
	seed    uint64
	http    *http.Client
	rng     *rand.Rand
	spans   *recorder
	done    []sweepPlan // fresh sweeps completed so far, for resubmission
	sweepNo int
	// after closes when the previous client's first sweep was accepted;
	// accepted closes when this client's was.
	after, accepted chan struct{}
}

// sweepPlan is one sweep body with the jobs it must expand to.
type sweepPlan struct {
	grid sweepSpec
	jobs []jobSpec
}

// drainLimit bounds how long the clients may take to finish their last
// sweeps once the phase's POST window has closed; a quick fl-sweep sweep
// takes about 20 s on the fleet.
const drainLimit = 90 * time.Second

// runPhase drives the workload's closed loop: clients POST sweeps for d,
// and every sweep POSTed is followed to its end (doc.go, jobs_per_s, says
// why the phase is not cut at d).
func (b *bench) runPhase(c *cluster, w workload, d time.Duration, spans *recorder) (*phase, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d+drainLimit)
	defer cancel()
	start := time.Now()
	deadline := start.Add(d)
	results := make([]*phase, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	// Clients start in order, each once its predecessor's first sweep is
	// accepted: two sweeps POSTed at the same instant would interleave
	// their jobs in the queue at random, and the queue order decides which
	// sweep finishes first.
	prev := make(chan struct{})
	close(prev)
	for i := 0; i < clients; i++ {
		lc := &loadClient{
			id: i, c: c, w: w, seed: b.seed, spans: spans, after: prev, accepted: make(chan struct{}),
			http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
			rng:  rand.New(rand.NewPCG(b.seed, uint64(i)+1)),
		}
		prev = lc.accepted
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = lc.loop(ctx, start, deadline)
			lc.http.CloseIdleConnections()
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	out := &phase{}
	for _, r := range results {
		out.elapsed = max(out.elapsed, r.elapsed)
		out.jobs = append(out.jobs, r.jobs...)
		out.sweepMS = append(out.sweepMS, r.sweepMS...)
		out.submitMS = append(out.submitMS, r.submitMS...)
		out.firstEvMS = append(out.firstEvMS, r.firstEvMS...)
		out.resultGetMS = append(out.resultGetMS, r.resultGetMS...)
	}
	if len(out.jobs) == 0 {
		return nil, fmt.Errorf("%s: no job completed in %s", w.name, d)
	}
	return out, nil
}

// loop runs sweeps, starting each before deadline; ctx bounds the whole
// loop, and running out of it is an error.
func (lc *loadClient) loop(ctx context.Context, start, deadline time.Time) (*phase, error) {
	out := &phase{}
	defer lc.markAccepted()
	select {
	case <-lc.after:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	for time.Now().Before(deadline) {
		plan, executed := lc.next()
		if err := lc.sweep(ctx, start, plan, executed, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// next returns the client's next sweep: every other one repeats a sweep
// it already completed when the workload resubmits.
func (lc *loadClient) next() (sweepPlan, bool) {
	k := lc.sweepNo
	lc.sweepNo++
	if lc.w.resubmit && k%2 == 1 && len(lc.done) > 0 {
		return lc.done[lc.rng.IntN(len(lc.done))], false
	}
	grid := lc.w.sweep(lc.seed, lc.id, k)
	specs, err := grid.jobs()
	if err != nil {
		panic(err) // the workload tables are static and valid
	}
	return sweepPlan{grid: grid, jobs: specs}, true
}

func (lc *loadClient) sweep(ctx context.Context, start time.Time, plan sweepPlan, executed bool, out *phase) error {
	specs := plan.jobs
	body, err := json.Marshal(map[string]any{"sweep": plan.grid})
	if err != nil {
		return err
	}
	trace := lc.spans.newTrace()
	root := lc.spans.begin(trace, nil, "sweep")
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, lc.c.base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := lc.http.Do(req)
	if err != nil {
		return fmt.Errorf("POST /jobs: %w", err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("POST /jobs: %w", err)
	}
	submitted := time.Now()
	lc.markAccepted()
	lc.spans.end(lc.spans.begin(trace, root, "aergiad.submit").at(t0), submitted)
	out.submitMS = append(out.submitMS, ms(submitted.Sub(t0)))
	if resp.StatusCode == http.StatusTooManyRequests {
		for _, s := range specs {
			out.jobs = append(out.jobs, &jobResult{spec: s, executed: executed, refused: true})
		}
		return nil
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("POST /jobs: %s: %s", resp.Status, raw)
	}
	var accepted struct {
		Jobs []struct {
			ID string `json:"id"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(raw, &accepted); err != nil {
		return fmt.Errorf("POST /jobs: %w", err)
	}
	if len(accepted.Jobs) != len(specs) {
		return fmt.Errorf("POST /jobs: %d jobs accepted, %d expected", len(accepted.Jobs), len(specs))
	}
	for i, a := range accepted.Jobs {
		if a.ID != specs[i].ID {
			return fmt.Errorf("POST /jobs: job %d is %s, expected %s", i, a.ID, specs[i].ID)
		}
	}
	mine := make([]*jobResult, 0, len(specs))
	for _, s := range specs {
		sp := lc.spans.begin(trace, root, "job.events")
		first, doneAt, err := lc.follow(ctx, s.ID)
		if err != nil {
			return err
		}
		lc.spans.end(sp, doneAt)
		lc.spans.end(lc.spans.begin(trace, sp, "aergiad.first_event").at(t0), first)
		if executed {
			out.firstEvMS = append(out.firstEvMS, ms(first.Sub(t0)))
		}
		j := &jobResult{spec: s, executed: executed, latency: doneAt.Sub(t0)}
		mine = append(mine, j)
		out.elapsed = doneAt.Sub(start)
	}
	sweepDone := time.Now()
	out.jobs = append(out.jobs, mine...)
	lc.spans.end(root, sweepDone)
	if executed {
		out.sweepMS = append(out.sweepMS, ms(sweepDone.Sub(t0)))
	}
	for _, j := range mine {
		gs := lc.spans.begin(trace, root, "aergiad.result_get")
		t := time.Now()
		if err := fetchRecord(ctx, lc.http, lc.c, j); err != nil {
			return err
		}
		now := time.Now()
		lc.spans.end(gs, now)
		out.resultGetMS = append(out.resultGetMS, ms(now.Sub(t)))
	}
	if executed {
		lc.done = append(lc.done, plan)
	}
	return nil
}

// markAccepted lets the next client start; later calls are no-ops.
func (lc *loadClient) markAccepted() {
	select {
	case <-lc.accepted:
	default:
		close(lc.accepted)
	}
}

// follow reads a job's SSE stream until "event: done" and returns when the
// first event and the done event were read.
func (lc *loadClient) follow(ctx context.Context, id string) (first, done time.Time, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, lc.c.base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return first, done, err
	}
	resp, err := lc.http.Do(req)
	if err != nil {
		return first, done, fmt.Errorf("GET events %s: %w", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return first, done, fmt.Errorf("GET events %s: %s", id, resp.Status)
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return first, done, fmt.Errorf("GET events %s: stream ended before done: %w", id, err)
		}
		if !strings.HasPrefix(line, "event:") {
			continue
		}
		now := time.Now()
		if first.IsZero() {
			first = now
		}
		if strings.TrimSpace(line) == "event: done" {
			done = now
			break
		}
	}
	// Drain the stream's tail so the connection is reused.
	if _, err := io.Copy(io.Discard, br); err != nil {
		return first, done, fmt.Errorf("GET events %s: %w", id, err)
	}
	return first, done, nil
}

// fetchRecord GETs a job's record into j.
func fetchRecord(ctx context.Context, hc *http.Client, c *cluster, j *jobResult) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/jobs/"+j.spec.ID, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("GET /jobs/%s: %w", j.spec.ID, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("GET /jobs/%s: %w", j.spec.ID, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /jobs/%s: %s", j.spec.ID, resp.Status)
	}
	var rec struct {
		Status string          `json:"status"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		return fmt.Errorf("GET /jobs/%s: %w", j.spec.ID, err)
	}
	j.status, j.result = rec.Status, rec.Result
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
