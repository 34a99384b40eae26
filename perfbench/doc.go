// Perfbench is the repository benchmark. One command,
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// run from the root of a checkout, builds cmd/aergiad and this harness from
// that checkout into .bench_build/, and then does one of two things.
//
// With --trace 0 it drives the real daemons over HTTP and prints the
// end-to-end metrics. It brings the workload's daemons up seven times,
// runs a closed loop of two clients against the last set (the clients POST
// sweeps for --seconds and then follow the sweeps they POSTed to their
// end), reads every daemon's VmHWM and stops them; it then brings the daemons up
// seven more times, checks the results untimed, and brings them up seven
// times again (setup_s is the median of the 21 set-ups). Every tiny-local result and a seed-chosen
// sample of two fl-sweep results must be byte-identical to an in-process
// experiments.Run(...).Marshal() of the same options; at the default seed 1
// the float64 records the daemons served for the workload's first sweep
// must also match digests.json (regenerate it with
// `bash perfbench/run.sh -write-digests` only when a change is meant to
// alter those records). The last stdout line
// is the JSON result; the exit code is 1 when any check fails.
//
// With --trace 1 it measures every module in process through its public
// functions (layers.go), then reruns the workload for --seconds on fresh
// daemons with the generator's spans on. Spans are recorded only by this
// harness, around its own calls into each layer, kept in memory, and
// written once at the end to .bench_build/spans/<workload>-seed<n>.jsonl.
// The traced rerun reports trace.jobs_per_s and trace.job_p50_ms; their
// difference from the untraced jobs_per_s and job_p50_ms medians is the
// tracing overhead (steady.py --trace prints it).
//
// # End-to-end metrics
//
// Times to completion count from the client's POST of the sweep. The
// latencies are over the whole measured phase, so a stall anywhere in it
// shows.
//
//	setup_s        s       spawn of the daemons until /healthz answers and, for a
//	                       fleet, GET /workers lists both workers (build excluded);
//	                       the median of 21 set-ups in three groups spread
//	                       over the run
//	jobs_per_s     jobs/s  verified jobs completed over the phase's wall time;
//	                       the phase ends at the last done event read. Every
//	                       sweep POSTed in the first --seconds is followed to
//	                       its end, so the phase runs up to one sweep longer
//	                       (about 10 s on fl-sweep, 50 ms on tiny-local). A
//	                       phase cut at --seconds counted the jobs of an
//	                       fl-sweep sweep, read in job order in pairs of 1 to
//	                       8 s, up to wherever the cut fell: jobs_per_s then
//	                       sat near 0.85 or near 1.1 jobs/s from run to run,
//	                       and two sets of ten runs differed by 32%.
//	job_p50_ms     ms      POST of the job's sweep to its "event: done"
//	job_tail_ms    ms      the same, at the highest percentile with at least ten
//	                       samples and at least 10% of them beyond it (the
//	                       percentile and n are printed); below 20 samples,
//	                       the median. On fl-sweep, with 40 or 50 executed
//	                       jobs, that is p75 or p80; on tiny-local, with about
//	                       5000, p90.
//	sweep_p50_ms   ms      POST of a sweep to its last job's "event: done"
//	rss_peak_mb    MB      sum of VmHWM over all daemon processes (whole run)
//	ok_ratio       ratio   1 - failed_ratio: jobs done and verified over jobs
//	                       attempted (failed, refused, canceled and mismatched jobs
//	                       count as failed; failed_ratio itself is printed). The
//	                       benchmark reports the complement because a metric that
//	                       is 0 on every good run has no relative bound.
//
// Latencies are over executed jobs and sweeps. A resubmitted tiny sweep is
// answered from the store in about a millisecond; with every other sweep
// resubmitted, a median over both populations would sit on the gap
// between them and jump from run to run. Resubmitted jobs count in
// jobs_per_s, ok_ratio and the output check.
//
// Why job_tail_ms keeps 10% beyond it: on tiny-local the highest percentile
// with only ten samples beyond it is p99.8, and one or two pauses of the
// virtual machine, in which every job in flight waits, decide it. Over ten
// runs it spread 64%, and it rose from 65 ms to 97 ms in a run where the
// host took 2.5% of the CPU time. p99 was no better: runs in which the host
// took 7% to 13% of the CPU time doubled it (62 ms to 108 ms), and over ten
// runs with three such it spread 65%. With a busy loop taking a sixth of
// the CPU time beside a run, p99 rose 45%, p95 28% and p90 13%. The p99.8
// number is still printed with the run's notes. Each run also notes the share of CPU time the host took
// during the phase (steal in /proc/stat): such a run is slow in every
// metric at once, which tells it apart from a slow program.
//
// # Workloads
//
// Each is a closed loop of two clients (= nproc of the 2-vCPU machine the
// benchmark was sized on), driven from one process. A client holds at most
// one connection, POSTs a sweep, follows each job's SSE stream until done,
// then fetches every result with GET /jobs/{id}. The second client starts
// once the first one's first sweep is accepted, so the two sweeps never
// interleave in the queue at random. Job seeds derive from --seed. Daemons
// run with default flags apart from address, store and slots; a fleet is a
// control daemon with -jobs -1 plus two -worker daemons with -jobs 1.
//
//   - fl-sweep (fleet): each sweep is quick fig1a, fig9, fig-bandwidth,
//     fig-churn and async × {serial, serial32} at one fresh seed, ten jobs.
//     The paper-reproduction path: tensor, nn, dataset, fl, codec and chaos
//     do nearly all the work, and the ten jobs of a sweep share their seed,
//     so a set-up cache would show here. Ten-job sweeps keep the queue
//     non-empty, so the run is steady; two-job sweeps left a worker idle at
//     every sweep boundary, waiting for its next heartbeat at a random phase.
//     The second client's first sweep queues behind the first one's, and
//     from then on a sweep ends about every 10 s, so a 32 s run follows four
//     or five sweeps, 40 or 50 jobs; job_tail_ms is then about p75.
//   - tiny-local (one daemon, two local slots): 4-job sweeps of quick
//     table1, profiler, ablation-sched and fig4 at fresh seeds, listed in a
//     seed-chosen order per sweep (the order decides which slot gets fig4,
//     the one heavy job; a fixed order let each run lock into its own
//     dispatch pattern); every other sweep resubmits a sweep the client
//     already completed. Compute is near zero, so the runner queue, the
//     fsync'd store and HTTP/SSE dominate. Executed jobs write to the
//     store; resubmitted ones only read from it. A runner or store change
//     moves this workload; a fed/rpc change should leave it flat.
//
// Every fleet run starts with both workers idle: the first sweeps wait for
// the workers' first heartbeat, about 2 s after they joined. That stall is
// the idle-dispatch cost fed.idle_dispatch_ms isolates.
//
// Not a workload: tiny-fleet, the tiny-local stream against the fleet
// (where rpc/fed lease round trips would dominate). There a worker answered
// with an empty grant idles until its next heartbeat while the other one
// drains the queue, so the split of leases between the two workers changed
// from run to run (1114 to 410 in one run, 730 to 872 in another). Over ten
// 20 s runs its spreads were 11.8% (jobs_per_s), 17.1% (job_tail_ms) and
// 13.2% (sweep_p50_ms), and three workloads fit the benchmark's time budget
// only at 20 s runs. It should come back as a listed workload once it can
// be made steady, for instance after a push-grant change. Until then such
// a change should lower fed.idle_dispatch_ms to about fed.lease_rtt_us and
// claim against fl-sweep (the 2 s start stall in job_p50_ms and
// sweep_p50_ms).
//
// # Per-layer metrics and what each should move
//
// Suffixes name the backend, strategy or codec. "fl-sweep: X" means the
// layer should move end-to-end metric X on fl-sweep and nothing on
// tiny-local.
//
//	tensor.{conv_fwd,conv_bwd,dense_fwd,dense_bwd}_us.{serial,serial32,parallel32}
//	    tensor: Conv2DFused/Conv2DGradsFused at cifar10-small's 8×16×16 conv and
//	    DenseForwardFused/DenseBackwardFused at its 256→32 dense layer.
//	    fl-sweep: job_p50_ms, sweep_p50_ms, jobs_per_s.
//	nn.train_batch_us.*, nn.train_batch_frozen_us.* (features frozen, the weak
//	client's path), nn.evaluate_ms.*, nn.train_batch_allocs.*  (fmnist-small,
//	batch 8, 100-sample evaluation)
//	    nn: same targets as tensor.
//	dataset.generate_ms, dataset.partition_ms, fl.build_ms.{fedavg,aergia}
//	    dataset, fl (Topology.Build): fl-sweep job_p50_ms and rss_peak_mb.
//	fl.run_ms.*, fl.client_busy_ms.*, fl.federator_busy_ms.*, sim.self_ms.*,
//	comm.messages.*, comm.bytes.*
//	    fl, sim, comm: a quick topology run over a bare sim.Network through the
//	    harness's own comm.Transport decorator (transport.go), which times every
//	    handler, Invoke and After callback per node role; sim.self_ms is the run
//	    minus handler time. fl-sweep: jobs_per_s.
//	comm.stack_ms, comm.bare_ms
//	    chaos, obs: the aergia topology through chaos.Wrap (zero plan),
//	    obs.WrapTransport and an obs tracer, and the same topology bare; the
//	    difference is noted as the stack's overhead. fl-sweep: jobs_per_s.
//	codec.{encode,decode}_us.{q8,topk}, codec.ratio.{q8,topk}
//	    codec, on an update-sized vector. fl-sweep: job_tail_ms (fig-bandwidth
//	    jobs are the long ones).
//	sched.compute_us, enclave.similarity_us
//	    sched, enclave over 10 clients. fl-sweep, predicted below 1%: this checks
//	    that their share really is small.
//	runner.submit_done_us, runner.dedup_submit_us, runner.store_append_us,
//	runner.store_get_us
//	    runner, in process with a no-op executor. tiny-local: jobs_per_s and
//	    job_p50_ms; nothing on fl-sweep.
//	rpc.rtt_us, fed.lease_rtt_us, fed.idle_dispatch_ms
//	    rpc, fed: an in-process fed.NewControl plus fed.Join with a no-op
//	    executor at the default 2 s heartbeat. fed.lease_rtt_us is the per-job
//	    time of draining a queue through one one-slot worker; fed.idle_dispatch_ms
//	    is a single job submitted right after the worker got an empty grant:
//	    it waits for the next heartbeat, about 2000 ms. That is the named
//	    baseline for a push-grant change, which should bring it near
//	    fed.lease_rtt_us. fl-sweep: job_p50_ms and sweep_p50_ms (the start
//	    stall) and setup_s; nothing on tiny-local.
//	aergiad.submit_ms, aergiad.first_event_ms, aergiad.result_get_ms,
//	trace.jobs_per_s, trace.job_p50_ms
//	    aergiad: generator spans of the traced rerun (medians). tiny-local:
//	    job_p50_ms.
//
// On a fleet workload the traced run also notes the control's /metrics
// counters at its end: leases (and leases per executed job) and
// heartbeats. They are notes, not metrics: tiny-local has no control, and
// the heartbeat count follows only the run's length and the heartbeat
// period.
//
// # Passivity checks
//
// The traced harness also checks that observation changes nothing: the
// decorated, stacked and bare runs must return identical fl.Results, and a
// churn plan run with the decorator above the fault layer must match the
// same plan without it. The fault layer hands rejoins to the decorator's
// handler proxies, so that last check fails if chaos.Rejoiner is not
// forwarded. A failed check counts as a failed job.
//
// # Code paths
//
// The harness calls only the fused workspace kernels of tensor.Backend and
// fl.Topology.Build with fl.Deployment; it never calls the allocating
// Backend methods (MatMul*, DenseForward/Backward, Conv2D, Conv2DGrads,
// MaxPool2D*) or fl.Config/fl.Run, so removing those leaves it working.
//
// # Steadiness
//
// steady.py runs the benchmark in two sets on every workload with fresh
// seeds and checks each end-to-end metric, setup_s included, against its
// own bound in BENCHMARK.json: the spread within a set and the change of
// the median from one set to the next.
package main
