// Command radbench is radcrit's benchmark. It runs one named workload
// against radcrit's public APIs in a single process, checks every job's
// output, and prints every metric by name with its unit. The last line of
// its output is one JSON object:
//
//	{"correct":true,"attempted":42,"failed":0,"metrics":{"strikes_per_s":{"value":3253.1,"unit":"strike/s"},...}}
//
// Run it from the repository root through run.sh, which builds it into
// .bench_build/ and keeps every file it writes there, including the
// daemon state directories each run leaves (a few MB; remove
// .bench_build/ to reclaim them):
//
//	bash cmd/radbench/run.sh --workload campaign-mix --seed 1 --seconds 20 --trace 0
//	bash cmd/radbench/run.sh --workload fleet-jobs --seed 1 --seconds 20 --trace 1
//
// The directory is a module of its own whose go.mod points at the
// repository root, so the root's go build ./... and go test ./... skip
// it; go test . here runs every workload at a tiny size. BENCHMARK.json
// at the root lists the workloads and metrics, with the bound by which
// each end-to-end metric may worsen. calibration.json here records the
// host they were calibrated on and the medians and quartiles of two sets
// of ten runs per workload.
//
// # Workloads
//
// Every workload is a closed loop: each client starts its next job when
// its previous one has completed, until -seconds have passed; jobs in
// flight then finish and count. Every input derives from -seed. The load
// stays within two cores: at most two client goroutines, each with at
// most one open connection, and plans with two strike workers (one on
// fleet workers).
//
//   - campaign-mix: one client runs (&campaign.StreamRunner{}).Run on an
//     8-cell plan, {k40, phi} x {dgemm:256, lavamd:4, hotspot:64x80,
//     clamr:48x60}, 400 strikes a cell, thresholds {0, 2}. This is the
//     strike throughput beamsim, figures and radcritd -oneshot users see,
//     with no daemon: it is mostly kernel and injector time, so
//     the batch-seam, CLAMR and one-engine work should move it and store,
//     API and service changes should not. Set-up runs the plan once at
//     512 strikes a cell, which builds every golden state and fills the
//     registry's HotSpot and CLAMR memos.
//   - daemon-fresh: two clients submit unique-seed jobs of two cells (k40,
//     phi), dgemm:128, 20 strikes, stream chunk 5, to a daemon wired as
//     radcritd wires it: two executors, a disk store in a fresh state
//     directory under .bench_build/state, a telemetry registry, api.New
//     with a 30 s request timeout and metrics, served on 127.0.0.1:0. The
//     one difference is that the daemon keeps 64 finished jobs instead of
//     1024 (maxJobs explains why). Each job is Client.Submit, then
//     Client.Events until the terminal frame, then Client.Result. This is
//     the daemon's write path: job records, #CHK-heavy cell logs, cell
//     results and store puts, plus the golden DGEMM product every fresh
//     job rebuilds. Set-up is the start-up plus 16 jobs.
//   - daemon-cached: set-up also runs a pool of 32 daemon-fresh-shaped
//     plans; the clients then resubmit pool plan i mod 32, so every cell
//     is a store hit and no kernel runs. The api, admission, queue, job
//     records and store reads do all of the work; each job still writes
//     six job-record files and deletes the oldest job's directory.
//   - fleet-jobs: the same daemon with a fleet coordinator (radcritd
//     -fleet defaults) as its remote runner and routes, and two
//     in-process workers with fixed jitter seeds. Jobs have two cells,
//     dgemm:128, 1000 strikes, stream chunk 250. This is local cell work
//     plus lease, poll and heartbeat overhead; the one-lease-state-machine
//     work must not slow it. Set-up also waits until the coordinator's
//     health lists both workers, and runs one job.
//
// Every set-up is timed five times in a run (each a fresh daemon, the
// last one measured) and setup_s is the median.
//
// # End-to-end metrics (-trace 0)
//
//   - strikes_per_s: strikes in jobs that checked out, per second of
//     measurement. On daemon-cached the strikes are served, not run.
//   - jobs_per_s: jobs that checked out per second; a campaign-mix job is
//     one plan run.
//   - job_p50_ms: median job latency, from the Submit call until the
//     Result body is received (campaign-mix: the Run call).
//   - setup_s: the median of the five set-ups.
//   - live_heap_p90_mb: the 90th percentile of the runtime's live heap
//     (/gc/heap/live:bytes), sampled every 50 ms while measuring. Over
//     sets of runs the quartile spread of the samples' peak was 9 to 17%,
//     of their 90th percentile about 4%.
//
// A job fails when it errs, ends in any state but done, lacks a cell, is
// (fresh) or is not (cached) served from the store, or when the check
// after timing finds its output wrong. attempted and failed count jobs;
// failed_frac, printed as text, is their ratio.
//
// Job latency tails are per-layer metrics: campaign-mix and fleet-jobs
// finish too few jobs in a run for a 95th percentile with ten jobs beyond
// it.
//
// # Correctness
//
//   - campaign-mix: every cell's tally covers its strikes, and after
//     timing a fixed check plan (the same cells at 64 strikes, seed 1) must
//     hash, as canonical service.ResultFromPlan JSON, to the pinned
//     checkDigest. A different digest means the engine now computes
//     something else, and every job counts as failed.
//   - daemon-fresh and fleet-jobs: every job is done and uncached; after
//     timing, 8 evenly spaced jobs are recomputed cell by cell with
//     campaign.RunPlanCell and compared byte for byte.
//   - daemon-cached: every cell is cached and its summary bytes equal the
//     pool result recorded in set-up.
//
// # The traced run (-trace 1)
//
// The traced run measures an untraced phase and a traced phase, each for
// half of -seconds, and prints each end-to-end metric of both and their
// difference: the tracing overhead. The traced phase installs the timing
// wrappers the untraced run never has: a store.Backend around
// store.Open(<state>/store), a service.RemoteRunner around the
// coordinator, and an http.RoundTripper in each worker's client. Spans
// are recorded from outside each layer, around the calls into its public
// functions: name, start, end, parent, and the job or cell as the trace.
// They stay in memory and are written to .bench_build/spans-<workload>.json
// at exit. Each layer's self time, its spans' time minus the part their
// child spans cover, is printed per part of the run.
//
// The strike ladder then replays the first 512 strikes of each cell of
// the workload's first job, on one goroutine, through each layer below
// the cell, deriving every strike as the engine does
// (xrand.New(seed).SplitString(device).SplitString(kernel).
// SplitString(input).Split(i+1), beam.StrikeEnergy, Device.ResolveStrike).
// The outcome tallies at the kernel, injector and engine layers must be
// equal, or the run fails. A workload whose own jobs do not reach the
// daemon or the fleet runs a two-second probe of its job shape (at most
// 64 strikes a cell) through them, so that every traced run reports every
// layer.
//
// Per-layer metrics, the call each times, and the end-to-end metric it
// should move:
//
//   - kernels.batch_us_per_sdc: kernels.RunBatch over the SDC syndromes of
//     each engine span; strikes_per_s on campaign-mix and fleet-jobs.
//   - kernels.single_us_per_sdc: Kernel.RunInjectedPooled on the same
//     syndromes one at a time; against the batch figure it says whether
//     the batch seam pays.
//   - kernels.masked_frac: the share of SDC syndromes whose kernel run left
//     the output intact, kernel work that produced no SDC.
//   - injector.us_per_strike: injector.Session.RunBatch; strikes_per_s.
//   - injector.sdc_frac: the share of strikes that reach the kernel.
//   - campaign.chunk_ms_p50: the time between FlushChunk calls of a sink
//     inside campaign.RunStreamingCtx, with the reducers and a checkpoint
//     log attached; job_p50_ms.
//   - campaign.reduce_ns_per_strike: SummaryAccumulator.Consume behind a
//     timing sink; strikes_per_s, and job_p50_ms on daemon-fresh.
//   - campaign.cell_us_per_strike: campaign.RunPlanCell on the warm cell;
//     strikes_per_s.
//   - campaign.kernel_share: kernel batch time over cell time, the most any
//     kernel gain can give.
//   - campaign.cold_ms: campaign.BuildCell plus RunPlanCell, minus the same
//     run on the warm cell: the golden state a fresh job rebuilds;
//     job_p50_ms on daemon-fresh and fleet-jobs.
//   - logdata.chk_us_per_chunk: CheckpointSink Consume and FlushChunk,
//     writing a file; job_p50_ms on daemon-fresh.
//   - api.job_ms_p95, api.job_ms_p99: the job round trip's tail.
//   - api.submit_ms_p50/p95/p99 and api.result_ms_p50/p99: Client.Submit
//     and Client.Result; job_p50_ms on daemon-cached.
//   - service.queue_wait_ms_p50/p95/p99: Started minus Created in the
//     manager's snapshot. They move the job tail first: the queue grows
//     before jobs_per_s stops rising.
//   - service.run_ms_p50/p95: Finished minus Started; job_p50_ms on
//     daemon-fresh.
//   - service.notify_ms_p50: from Finished until the terminal SSE frame
//     arrives.
//   - store.put_ms_p50/p95, store.get_ms_p50/p99, store.put_bytes_per_cell,
//     store.get_bytes_per_cell, store.hit_frac: the timing store wrapper;
//     puts move daemon-fresh, gets daemon-cached. Store metrics include
//     set-up, where daemon-cached does all of its writes.
//   - fleet.remote_cell_ms_p50: the RemoteRunner wrapper; job_p50_ms on
//     fleet-jobs.
//   - fleet.worker_cell_ms_p50: from a lease's 200 response to that
//     worker's next complete request.
//   - fleet.dispatch_wait_ms_p50: from RunRemote's start to the lease
//     response carrying the cell's key, including the 500 ms idle poll;
//     job_p50_ms on fleet-jobs.
//   - fleet.empty_polls_per_cell, fleet.requests_per_cell and
//     fleet.heartbeat_kb_per_cell: the workers' transports.
//   - fleet.leases_per_cell and fleet.local_fallbacks:
//     Coordinator.Health().Counters.
//
// The api and service metrics cover the measured jobs only.
//
// # Legacy records
//
// The absolute numbers in BENCH_campaign.json and BENCH_service.json do
// not reproduce on the 2-vCPU host this benchmark was calibrated on:
// BenchmarkInjectedLavaMD measured 1.26 to 1.77 ms/op there in three
// runs of 300 iterations, against the 0.83 ms recorded. They are left as
// they are; retiring them and benchguard's ns/op gate is separate work.
package main
