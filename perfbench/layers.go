package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	"aergia/internal/chaos"
	"aergia/internal/codec"
	"aergia/internal/comm"
	"aergia/internal/dataset"
	"aergia/internal/enclave"
	"aergia/internal/experiments"
	"aergia/internal/fed"
	"aergia/internal/fl"
	"aergia/internal/nn"
	"aergia/internal/obs"
	"aergia/internal/rpc"
	"aergia/internal/runner"
	"aergia/internal/sched"
	"aergia/internal/sim"
	"aergia/internal/tensor"
)

// Timing of one micro-measurement: calls are grouped into batches of about
// batchTime, at least minBatches batches are run for about callBudget in
// all, and the median batch gives the per-call time.
const (
	batchTime  = 20 * time.Millisecond
	minBatches = 5
	callBudget = 200 * time.Millisecond
)

// layerSet collects per-layer metrics and the passivity checks made while
// measuring them.
type layerSet struct {
	b       *bench
	m       map[string]metric
	checks  int
	failed  int
	workDir string
}

func (l *layerSet) set(name string, v float64, unit string) { l.m[name] = metric{v, unit} }

// check counts one passivity check; a failure is noted and counted in the
// run's failed jobs.
func (l *layerSet) check(ok bool, format string, args ...any) {
	l.checks++
	if !ok {
		l.failed++
		l.b.note("passivity check failed: "+format, args...)
	}
}

// perCall returns the median duration of one fn call.
func perCall(fn func() error) (time.Duration, error) {
	if err := fn(); err != nil { // warm-up: lazy buffers, pools, caches
		return 0, err
	}
	t := time.Now()
	if err := fn(); err != nil {
		return 0, err
	}
	n := int(batchTime / max(time.Since(t), time.Nanosecond))
	n = max(n, 1)
	var per []float64
	deadline := time.Now().Add(callBudget)
	for len(per) < minBatches || time.Now().Before(deadline) {
		t := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		per = append(per, float64(time.Since(t))/float64(n))
	}
	return time.Duration(median(per)), nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layers measures every module through its public functions, in process.
// Each measurement is a span of the run's trace.
func (b *bench) layers(m map[string]metric) (checks, failed int, err error) {
	l := &layerSet{b: b, m: m, workDir: filepath.Join(b.work, "layers")}
	if err := os.MkdirAll(l.workDir, 0o755); err != nil {
		return 0, 0, err
	}
	steps := []struct {
		name string
		fn   func() error
	}{
		{"tensor", l.tensor},
		{"nn", l.nn},
		{"dataset", l.dataset},
		{"fl", l.fl},
		{"comm.stack", l.stack},
		{"chaos.passivity", l.churnPassivity},
		{"codec", l.codec},
		{"sched.enclave", l.schedEnclave},
		{"runner", l.runner},
		{"rpc", l.rpc},
		{"fed", l.fed},
	}
	for _, s := range steps {
		if err := b.spans.timed("layer."+s.name, s.fn); err != nil {
			return 0, 0, fmt.Errorf("layer %s: %w", s.name, err)
		}
	}
	return l.checks, l.failed, nil
}

// tensor times the fused workspace kernels at the second conv of
// cifar10-small (8×16×16 input, 8 3×3 filters) and its first dense layer
// (256→32), both with the fused ReLU.
func (l *layerSet) tensor() error {
	for _, name := range []string{"serial", "serial32", "parallel32"} {
		be, err := tensor.NewBackend(name, 0)
		if err != nil {
			return err
		}
		dt := be.DType()
		rng := tensor.NewRNG(11)
		randn := func(std float64, shape ...int) *tensor.Tensor {
			t := tensor.MustNewOf(dt, shape...)
			t.FillNormal(rng, std)
			return t
		}
		x, w, bias := randn(1, 8, 16, 16), randn(0.1, 8, 8, 3, 3), randn(0.1, 8)
		gwAcc, gbAcc := tensor.MustNewOf(dt, 8, 8, 3, 3), tensor.MustNewOf(dt, 8)
		ws := &tensor.Workspace{}
		y, err := be.Conv2DFused(x, w, bias, 1, 1, tensor.ActReLU, ws)
		if err != nil {
			return err
		}
		gy := randn(1, y.Shape()...)
		convFwd, err := perCall(func() error {
			_, err := be.Conv2DFused(x, w, bias, 1, 1, tensor.ActReLU, ws)
			return err
		})
		if err != nil {
			return err
		}
		convBwd, err := perCall(func() error {
			_, err := be.Conv2DGradsFused(x, w, gy, 1, 1, tensor.ActReLU, gwAcc, gbAcc, ws)
			return err
		})
		if err != nil {
			return err
		}
		dw, db, dx, dgy := randn(0.1, 32, 256), randn(0.1, 32), randn(1, 256), randn(1, 32)
		dgw, dgb := tensor.MustNewOf(dt, 32, 256), tensor.MustNewOf(dt, 32)
		dws := &tensor.Workspace{}
		denseFwd, err := perCall(func() error {
			_, err := be.DenseForwardFused(dw, db, dx, tensor.ActReLU, dws)
			return err
		})
		if err != nil {
			return err
		}
		denseBwd, err := perCall(func() error {
			_, err := be.DenseBackwardFused(dw, dx, dgy, tensor.ActReLU, dgw, dgb, dws)
			return err
		})
		if err != nil {
			return err
		}
		l.set("tensor.conv_fwd_us."+name, us(convFwd), "us")
		l.set("tensor.conv_bwd_us."+name, us(convBwd), "us")
		l.set("tensor.dense_fwd_us."+name, us(denseFwd), "us")
		l.set("tensor.dense_bwd_us."+name, us(denseBwd), "us")
	}
	return nil
}

// nn times fmnist-small training steps (batch 8), the frozen-features step
// weak clients take after offloading, and a 100-sample evaluation.
func (l *layerSet) nn() error {
	ds, err := dataset.Generate(dataset.Config{Kind: dataset.FMNIST, N: 108, Seed: 7, Small: true, NoiseStd: 1.4})
	if err != nil {
		return err
	}
	xs, ys := ds.Inputs(), ds.Labels()
	bx, by, tx, ty := xs[:8], ys[:8], xs[8:], ys[8:]
	for _, name := range []string{"serial", "serial32"} {
		be, err := tensor.NewBackend(name, 0)
		if err != nil {
			return err
		}
		net, err := nn.BuildWith(nn.ArchFMNISTSmall, 7, be)
		if err != nil {
			return err
		}
		opt := nn.NewSGD(0.05)
		step := func() error {
			_, err := net.TrainBatch(bx, by, opt)
			return err
		}
		train, err := perCall(step)
		if err != nil {
			return err
		}
		const allocRuns = 20
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < allocRuns; i++ {
			if err := step(); err != nil {
				return err
			}
		}
		runtime.ReadMemStats(&m1)
		net.SetFeaturesFrozen(true)
		frozen, err := perCall(step)
		if err != nil {
			return err
		}
		net.SetFeaturesFrozen(false)
		eval, err := perCall(func() error {
			_, err := net.Evaluate(tx, ty)
			return err
		})
		if err != nil {
			return err
		}
		l.set("nn.train_batch_us."+name, us(train), "us")
		l.set("nn.train_batch_frozen_us."+name, us(frozen), "us")
		l.set("nn.evaluate_ms."+name, ms(eval), "ms")
		l.set("nn.train_batch_allocs."+name, float64(m1.Mallocs-m0.Mallocs)/allocRuns, "count")
	}
	return nil
}

// quick mirrors the quick experiment scale of internal/experiments for the
// fmnist-small model: 10 clients, 5 rounds, 40 samples each.
func quick(strat fl.Strategy) fl.Topology {
	return fl.Topology{
		Strategy: strat, Arch: nn.ArchFMNISTSmall, Dataset: dataset.FMNIST, SmallImages: true,
		Clients: 10, Rounds: 5, LocalEpochs: 2, BatchSize: 8, TrainSamples: 400, TestSamples: 100,
		NoiseStd: 1.4, SpeedJitter: 0.15, EvalEvery: 2, Seed: 7,
	}
}

// quickLink is the experiments' edge-grade link: 10 ms, ~1 MB/s.
var quickLink = sim.UniformLink(10*time.Millisecond, 1e6)

func bareNetwork() comm.Transport { return sim.NewNetwork(sim.NewKernel(), quickLink) }

var strategies = []struct {
	name string
	new  func() fl.Strategy
}{
	{"fedavg", func() fl.Strategy { return fl.NewFedAvg(0) }},
	{"aergia", func() fl.Strategy { return fl.NewAergia(0, 1) }},
}

// dataset times the quick training-set synthesis and its IID split.
func (l *layerSet) dataset() error {
	cfg := dataset.Config{Kind: dataset.FMNIST, N: 400, Seed: 7, Small: true, NoiseStd: 1.4}
	gen, err := perCall(func() error {
		_, err := dataset.Generate(cfg)
		return err
	})
	if err != nil {
		return err
	}
	train, err := dataset.Generate(cfg)
	if err != nil {
		return err
	}
	part, err := perCall(func() error {
		_, err := dataset.PartitionIID(train, 10, tensor.NewRNG(3))
		return err
	})
	if err != nil {
		return err
	}
	l.set("dataset.generate_ms", ms(gen), "ms")
	l.set("dataset.partition_ms", ms(part), "ms")
	return nil
}

// runOn builds the quick topology and drives it over the transport wrap
// makes of a bare simulated network; it returns the results and the wall
// time of Deployment.Run.
func runOn(topo fl.Topology, wrap func(inner comm.Transport, seed uint64) comm.Transport) (*fl.Results, time.Duration, error) {
	cl, err := topo.Build()
	if err != nil {
		return nil, 0, err
	}
	tr := wrap(bareNetwork(), cl.Topology.Seed)
	dep := &fl.Deployment{Cluster: cl, Transport: tr}
	t := time.Now()
	res, err := dep.Run()
	d := time.Since(t)
	if cerr := tr.Close(); err == nil {
		err = cerr
	}
	return res, d, err
}

func bare(inner comm.Transport, _ uint64) comm.Transport { return inner }

// fl times Topology.Build and a decorated run per strategy, and splits the
// run's wall time into client handlers, the federator, and the simulator
// itself. The decorated run must match the bare one exactly.
func (l *layerSet) fl() error {
	for _, s := range strategies {
		build, err := medianOf(3, func() (float64, error) {
			t := time.Now()
			_, err := quick(s.new()).Build()
			return ms(time.Since(t)), err
		})
		if err != nil {
			return err
		}
		want, _, err := runOn(quick(s.new()), bare)
		if err != nil {
			return err
		}
		var tt *timedTransport
		got, run, err := runOn(quick(s.new()), func(inner comm.Transport, _ uint64) comm.Transport {
			tt = newTimedTransport(inner)
			return tt
		})
		if err != nil {
			return err
		}
		l.check(reflect.DeepEqual(want, got), "%s: decorated run differs from the bare run", s.name)
		client, federator := tt.busy[roleClient].Load(), tt.busy[roleFederator].Load()
		l.set("fl.build_ms."+s.name, build, "ms")
		l.set("fl.run_ms."+s.name, ms(run), "ms")
		l.set("fl.client_busy_ms."+s.name, ms(time.Duration(client)), "ms")
		l.set("fl.federator_busy_ms."+s.name, ms(time.Duration(federator)), "ms")
		l.set("sim.self_ms."+s.name, ms(run-time.Duration(client+federator)), "ms")
		l.set("comm.messages."+s.name, float64(tt.messages.Load()), "count")
		l.set("comm.bytes."+s.name, float64(tt.bytes.Load()), "bytes")
	}
	return nil
}

// stack runs the aergia topology through the wrapper stack fl.Run applies
// (chaos with a zero plan, obs instrumentation, the span tracer) and bare,
// alternating, and reports both times; their difference is the stack's
// overhead, noted beside them.
func (l *layerSet) stack() error {
	aergia := strategies[1]
	stacked := func(inner comm.Transport, seed uint64) comm.Transport {
		t := chaos.Wrap(inner, chaos.Plan{}, seed)
		t = obs.WrapTransport(t, obs.NewRegistry())
		return obs.NewTracer(seed).Wrap(t)
	}
	var bareMS, stackMS []float64
	for i := 0; i < 3; i++ {
		want, d0, err := runOn(quick(aergia.new()), bare)
		if err != nil {
			return err
		}
		got, d1, err := runOn(quick(aergia.new()), stacked)
		if err != nil {
			return err
		}
		if i == 0 {
			l.check(reflect.DeepEqual(want, got), "wrapper stack changed the run's results")
		}
		bareMS, stackMS = append(bareMS, ms(d0)), append(stackMS, ms(d1))
	}
	l.set("comm.stack_ms", median(stackMS), "ms")
	l.set("comm.bare_ms", median(bareMS), "ms")
	l.b.note("wrapper stack overhead: %+.3f ms per aergia run over the bare run",
		median(stackMS)-median(bareMS))
	return nil
}

// churnPassivity runs a churn plan with and without the timing decorator
// above the fault layer. The fault layer hands rejoins to the decorator's
// handlers, so the runs agree only if the decorator forwards
// chaos.Rejoiner.
func (l *layerSet) churnPassivity() error {
	plan, err := chaos.ParseSpec("churn=0.5,rejoin=1,window=1s")
	if err != nil {
		return err
	}
	topo := quick(fl.NewFedAvg(0))
	topo.Chaos = plan
	var faults *chaos.Transport
	faulty := func(inner comm.Transport, seed uint64) comm.Transport {
		t := chaos.Wrap(inner, plan, seed)
		faults, _ = t.(*chaos.Transport)
		return t
	}
	want, _, err := runOn(topo, faulty)
	if err != nil {
		return err
	}
	if faults == nil || faults.Stats().Rejoins == 0 {
		return errors.New("churn plan produced no rejoin; the check would prove nothing")
	}
	topo.Strategy = fl.NewFedAvg(0)
	got, _, err := runOn(topo, func(inner comm.Transport, seed uint64) comm.Transport {
		return newTimedTransport(faulty(inner, seed))
	})
	if err != nil {
		return err
	}
	l.check(reflect.DeepEqual(want, got), "decorator over the fault layer lost a rejoin")
	return nil
}

// codec times both lossy codecs on an update-sized vector (the
// fmnist-small parameter count) and reports the wire ratio.
func (l *layerSet) codec() error {
	net, err := nn.Build(nn.ArchFMNISTSmall, 7)
	if err != nil {
		return err
	}
	vals := make([]float64, net.ParamCount())
	rng := tensor.NewRNG(5)
	for i := range vals {
		vals[i] = 0.01 * rng.NormFloat64()
	}
	for _, name := range []string{codec.Q8, codec.TopK} {
		c, err := codec.New(name)
		if err != nil {
			return err
		}
		wire, err := c.Encode(vals)
		if err != nil {
			return err
		}
		enc, err := perCall(func() error {
			_, err := c.Encode(vals)
			return err
		})
		if err != nil {
			return err
		}
		dec, err := perCall(func() error {
			_, err := c.Decode(wire)
			return err
		})
		if err != nil {
			return err
		}
		l.set("codec.encode_us."+name, us(enc), "us")
		l.set("codec.decode_us."+name, us(dec), "us")
		l.set("codec.ratio."+name, float64(len(wire))/float64(8*len(vals)), "ratio")
	}
	return nil
}

// schedEnclave times the enclave's EMD similarity matrix over 10 sealed
// class distributions and one Algorithm 1 schedule over 10 clients.
func (l *layerSet) schedEnclave() error {
	rng := tensor.NewRNG(9)
	encl, err := enclave.New(rng)
	if err != nil {
		return err
	}
	report := encl.AttestationReport()
	for i := 0; i < 10; i++ {
		counts := make([]int, 10)
		for k := range counts {
			counts[k] = 1 + rng.Intn(40)
		}
		sub, err := enclave.Seal(report, i, counts, rng)
		if err != nil {
			return err
		}
		if err := encl.Submit(sub); err != nil {
			return err
		}
	}
	similarity, err := perCall(func() error {
		_, err := encl.SimilarityMatrix(10)
		return err
	})
	if err != nil {
		return err
	}
	matrix, err := encl.SimilarityMatrix(10)
	if err != nil {
		return err
	}
	perfs := make([]sched.Perf, 10)
	for i := range perfs {
		perfs[i] = sched.Perf{
			ID:        comm.NodeID(i),
			T123:      time.Duration(1+rng.Intn(50)) * time.Millisecond,
			T4:        time.Duration(1+rng.Intn(50)) * time.Millisecond,
			Remaining: 10,
		}
	}
	cfg := sched.Config{SimilarityFactor: 1, Similarity: matrix}
	compute, err := perCall(func() error {
		_, err := sched.Compute(1, perfs, cfg)
		return err
	})
	if err != nil {
		return err
	}
	l.set("enclave.similarity_us", us(similarity), "us")
	l.set("sched.compute_us", us(compute), "us")
	return nil
}

// noopExecute finishes every job at once with a fixed record.
func noopExecute(context.Context, runner.Job) (json.RawMessage, error) {
	return json.RawMessage(`{"noop":true}`), nil
}

// staticJob returns the i-th distinct quick table1 job.
func staticJob(i int) (runner.Job, error) {
	return runner.NewJob("table1", experiments.Options{Quick: true, Seed: uint64(i + 1)})
}

// runner times, in process and with a no-op executor: a fresh job from
// Submit to its stream closing (queue, slot, fsync'd persist), a repeat
// answered by dedup, and the store's append and payload read.
func (l *layerSet) runner() error {
	st, err := runner.Open(filepath.Join(l.workDir, "runner.jsonl"))
	if err != nil {
		return err
	}
	defer st.Close()
	r := runner.New(st, 2, runner.WithExecutor(noopExecute))
	defer r.Close()
	var fresh []float64
	var done []runner.Job
	deadline := time.Now().Add(callBudget)
	for i := 0; i < 5 || (time.Now().Before(deadline) && i < 500); i++ {
		job, err := staticJob(i)
		if err != nil {
			return err
		}
		t := time.Now()
		if _, err := r.Submit(job); err != nil {
			return err
		}
		ch, cancel, err := r.Subscribe(job.ID(), 1)
		if err != nil {
			return err
		}
		for range ch {
		}
		cancel()
		fresh = append(fresh, us(time.Since(t)))
		done = append(done, job)
	}
	next := 0
	dedup, err := perCall(func() error {
		next = (next + 1) % len(done)
		st, err := r.Submit(done[next])
		if err == nil && st.Status != runner.StatusDone {
			err = fmt.Errorf("repeat of %s answered %q", st.ID, st.Status)
		}
		return err
	})
	if err != nil {
		return err
	}
	rec, err := reference(jobSpec{ID: "fig4", Experiment: "fig4", Options: experiments.Options{Quick: true}})
	if err != nil {
		return err
	}
	store, err := runner.Open(filepath.Join(l.workDir, "append.jsonl"))
	if err != nil {
		return err
	}
	defer store.Close()
	appended := 0
	appendT, err := perCall(func() error {
		appended++
		return store.Append(runner.Record{
			ID: fmt.Sprintf("fig4-%d", appended), Experiment: "fig4", Status: runner.StatusDone, Result: rec,
		})
	})
	if err != nil {
		return err
	}
	read := 0
	getT, err := perCall(func() error {
		read = read%appended + 1
		if got, ok := store.Get(fmt.Sprintf("fig4-%d", read)); !ok || len(got.Result) != len(rec) {
			return fmt.Errorf("store lost record fig4-%d", read)
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.set("runner.submit_done_us", median(fresh), "us")
	l.set("runner.dedup_submit_us", us(dedup), "us")
	l.set("runner.store_append_us", us(appendT), "us")
	l.set("runner.store_get_us", us(getT), "us")
	return nil
}

// echo answers every rpc message with a heartbeat back to its sender, or,
// when got is set, signals got instead.
type echo struct {
	peer *rpc.Peer
	got  chan struct{}
}

func (e *echo) OnMessage(_ comm.Env, msg comm.Message) {
	if e.got != nil {
		e.got <- struct{}{}
		return
	}
	_ = e.peer.Send(comm.Message{To: msg.From, Kind: comm.KindControl, Payload: rpc.HeartbeatPayload{}})
}

// rpc times a control-message round trip between two loopback peers.
func (l *layerSet) rpc() error {
	a, b := &echo{got: make(chan struct{}, 1)}, &echo{}
	pa, err := rpc.Listen(1, "127.0.0.1:0", a)
	if err != nil {
		return err
	}
	defer pa.Close()
	pb, err := rpc.Listen(2, "127.0.0.1:0", b)
	if err != nil {
		return err
	}
	defer pb.Close()
	b.peer = pb
	pa.AddRoute(2, pb.Addr())
	pb.AddRoute(1, pa.Addr())
	rtt, err := perCall(func() error {
		if err := pa.Send(comm.Message{To: 2, Kind: comm.KindControl, Payload: rpc.HeartbeatPayload{}}); err != nil {
			return err
		}
		select {
		case <-a.got:
			return nil
		case <-time.After(5 * time.Second):
			return errors.New("rpc echo lost")
		}
	})
	if err != nil {
		return err
	}
	l.set("rpc.rtt_us", us(rtt), "us")
	return nil
}

// submitWatched submits a job and subscribes to it before anything can
// finish it.
func submitWatched(r *runner.Runner, job runner.Job) (<-chan obs.RoundEvent, func(), error) {
	if _, err := r.Submit(job); err != nil {
		return nil, nil, err
	}
	return r.Subscribe(job.ID(), 1)
}

// waitDone blocks until the job's stream closes and returns when.
func waitDone(ch <-chan obs.RoundEvent, cancel func(), id string) (time.Time, error) {
	defer cancel()
	timeout := time.After(30 * time.Second)
	for {
		select {
		case _, open := <-ch:
			if !open {
				return time.Now(), nil
			}
		case <-timeout:
			return time.Time{}, fmt.Errorf("job %s not done after 30s", id)
		}
	}
}

// fed runs an in-process control with one one-slot worker at the default
// heartbeat. The lease round trip is the per-job time of draining a queue
// through the worker (request, grant, no-op run, result). The idle
// dispatch is a single job submitted just after the worker was answered
// with an empty grant: it waits for the worker's next heartbeat.
func (l *layerSet) fed() error {
	r := runner.New(nil, -1)
	defer r.Close()
	ctrl, err := fed.NewControl(r, fed.ControlConfig{})
	if err != nil {
		return err
	}
	defer ctrl.Close()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /workers/join", ctrl.HandleJoin)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed on Close
	defer srv.Close()

	// Queue the drain before the worker exists: its first lease request
	// is granted, and every completion asks for the next job at once.
	const drain = 100
	ends := make([]time.Time, drain)
	errs := make([]error, drain)
	var wg sync.WaitGroup
	for i := 0; i < drain; i++ {
		job, err := staticJob(1000 + i)
		if err != nil {
			return err
		}
		ch, cancel, err := submitWatched(r, job)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ends[i], errs[i] = waitDone(ch, cancel, job.ID())
		}()
	}
	w, err := fed.Join(fed.WorkerConfig{
		ControlURL: "http://" + ln.Addr().String(), Name: "bench", Slots: 1, Execute: noopExecute,
	})
	if err != nil {
		return err
	}
	defer w.Close()
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	first, last := ends[0], ends[0]
	for _, t := range ends {
		if t.Before(first) {
			first = t
		}
		if t.After(last) {
			last = t
		}
	}
	l.set("fed.lease_rtt_us", us(last.Sub(first))/(drain-1), "us")

	// The first single job aligns with the worker's heartbeat phase; the
	// second, submitted right after it finished, is the measured one.
	var idle time.Duration
	for i := 0; i < 2; i++ {
		time.Sleep(20 * time.Millisecond) // let the empty grant land
		job, err := staticJob(2000 + i)
		if err != nil {
			return err
		}
		t := time.Now()
		ch, cancel, err := submitWatched(r, job)
		if err != nil {
			return err
		}
		end, err := waitDone(ch, cancel, job.ID())
		if err != nil {
			return err
		}
		idle = end.Sub(t)
	}
	l.set("fed.idle_dispatch_ms", ms(idle), "ms")
	return nil
}
