// Command perfbench is ConfMask's benchmark. It runs one named workload
// from a seed, checks every output, and prints every metric by name with
// its unit; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 4, "failed": 0, "metrics": {"anonymize_s": {"value": 4.91, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced;
// with -trace 1 they are the per-layer ones, from spans the benchmark
// records around its calls into each layer, and the spans are written as
// Chrome trace-event JSON under -dir. Run it through run.sh, which builds
// it and confmaskd from the enclosing checkout:
//
//	bash perfbench/run.sh --workload fattree16 --seed 1 --seconds 20 --trace 0
//
// BENCHMARK.json at the repository root lists the workloads and metrics
// and records why each was chosen.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"anonymize_s", "s"},
	{"verify_s", "s"},
	{"ops_per_s", "1/s"},
	{"peak_rss_bytes", "B"},
}

var perLayer = []metricDef{
	{"config.parse_s", "s"}, {"config.render_s", "s"}, {"config.render_bytes", "B"},
	{"sim.simulate_s", "s"}, {"sim.simulate_alloc_bytes", "B"},
	{"sim.digest_s", "s"}, {"sim.digest_alloc_bytes", "B"},
	{"sim.dataplane_s", "s"}, {"sim.dataplane_alloc_bytes", "B"}, {"sim.diff_s", "s"},
	{"kdegree.anonymize_s", "s"}, {"kdegree.fake_edges", "count"},
	{"anonymize.preprocess_s", "s"}, {"anonymize.preprocess_alloc_bytes", "B"},
	{"anonymize.topology_s", "s"}, {"anonymize.topology_alloc_bytes", "B"},
	{"anonymize.equivalence_s", "s"}, {"anonymize.equivalence_alloc_bytes", "B"},
	{"anonymize.anonymity_s", "s"}, {"anonymize.anonymity_alloc_bytes", "B"},
	{"anonymize.equivalence_iters", "count"}, {"anonymize.filters_added", "count"},
	{"anonymize.checkpoint_s", "s"}, {"anonymize.checkpoint_bytes", "B"},
	{"runtime.gc_cpu_fraction", "1"},
	{"service.submit_s", "s"}, {"service.queue_wait_s", "s"}, {"service.run_s", "s"},
	{"service.result_s", "s"}, {"service.journal_bytes_per_job", "B"},
	{"service.durable_job_s", "s"}, {"service.edit_job_s", "s"}, {"service.edit_reuse_ratio", "1"}, {"service.incremental_fallbacks", "count"},
	{"query.batch_s", "s"}, {"query.predicates_per_s", "1/s"}, {"query.cache_hit_ratio", "1"},
	{"trace.op_s", "s"}, {"trace.untraced_op_s", "s"}, {"trace.unattributed_s", "s"}, {"trace.overhead_s", "s"},
}

// result is what one run measured. Samples holds every timing and count
// by name, one value per op; Elapsed is the time the ops took (the summed
// op times on the pipeline workloads, the closed loop's window on
// daemon-mixed), so Ops/Elapsed is ops_per_s; Layers holds the traced
// run's per-layer metrics.
type result struct {
	mu        sync.Mutex
	Samples   map[string][]float64 `json:"samples"`
	Ops       int                  `json:"ops"`
	Elapsed   float64              `json:"elapsed_s"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Errors    []string             `json:"errors,omitempty"`
	Layers    map[string]float64   `json:"layers,omitempty"`
	Self      map[string]float64   `json:"self_s,omitempty"`
	Outputs   []string             `json:"outputs,omitempty"` // SHA-256 of each worker's output
}

func newResult() *result { return &result{Samples: map[string][]float64{}} }

func (r *result) sample(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Samples[name] = append(r.Samples[name], v)
}

func (r *result) add(field *int, n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	*field += n
}

// fail counts one failed operation or check and keeps its message.
func (r *result) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Failed++
	if len(r.Errors) < 20 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

func main() {
	workload := flag.String("workload", "", "workload: fattree16, multiregion32 or daemon-mixed")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measured duration per run, in seconds")
	traceFlag := flag.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	dir := flag.String("dir", ".bench_build", "directory for traces, daemon data and logs")
	confmaskd := flag.String("confmaskd", ".bench_build/bin/confmaskd", "confmaskd binary (daemon-mixed)")
	worker := flag.Bool("worker", false, "run a pipeline workload in this process and print its raw result (used by the benchmark itself)")
	check := flag.Bool("check", false, "with -worker, run the full output checks on the first op's output")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *traceFlag == 1, *dir, *confmaskd, *worker, *check); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds int, traced bool, dir, confmaskd string, worker, check bool) error {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	tracePath := filepath.Join(dir, "traces", fmt.Sprintf("%s-seed%d.json", workload, seed))
	w, isPipeline := pipelines[workload]
	if worker {
		if !isPipeline {
			return fmt.Errorf("unknown pipeline workload %q", workload)
		}
		r := runPipeline(w, seed, seconds, check, tr)
		if err := tr.writeChrome(tracePath); err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(r)
	}

	root, err := os.Getwd()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var r *result
	switch {
	case isPipeline:
		r, err = runWorkers(workload, seed, seconds, traced, dir)
	case workload == "daemon-mixed":
		r, err = runDaemon(confmaskd, dir, seed, seconds, tr)
		if err == nil {
			err = tr.writeChrome(tracePath)
		}
	default:
		err = fmt.Errorf("unknown workload %q (want fattree16, multiregion32 or daemon-mixed)", workload)
	}
	if err != nil {
		return err
	}
	return report(r, environment(root, dir), workload, seed, seconds, traced, tracePath)
}

// runWorkers measures a pipeline workload in child processes. Untraced,
// each child sets up and runs one op, as one confmask CLI invocation
// does, and children follow one another until the window is spent: a run
// then samples several processes, whose speed on a shared machine varies
// more than that of ops within one process. The first child also runs
// the full output checks, untimed; every later child must produce the
// same output, compared by SHA-256. Traced, one child alternates
// untraced ops and traced replays for the whole window.
func runWorkers(workload string, seed int64, seconds int, traced bool, dir string) (*result, error) {
	if traced {
		return runWorker(workload, seed, seconds, true, true, dir)
	}
	r := newResult()
	start := time.Now()
	for r.Attempted == 0 || time.Since(start) < time.Duration(seconds)*time.Second {
		w, err := runWorker(workload, seed, 0, false, r.Attempted == 0, dir)
		if err != nil {
			return nil, err
		}
		for name, v := range w.Samples {
			r.Samples[name] = append(r.Samples[name], v...)
		}
		r.Ops += w.Ops
		r.Elapsed += w.Elapsed
		r.Attempted += w.Attempted
		r.Failed += w.Failed
		r.Errors = append(r.Errors, w.Errors...)
		r.Outputs = append(r.Outputs, w.Outputs...)
	}
	for i, h := range r.Outputs {
		if h != r.Outputs[0] {
			r.fail("worker %d: output differs from worker 0 with the same seed (sha256 %s vs %s)", i, h, r.Outputs[0])
		}
	}
	return r, nil
}

// runWorker runs a pipeline workload in a child process, so the peak
// resident set size read from the child's rusage is the work's own, and
// no sampler runs beside the timings.
func runWorker(workload string, seed int64, seconds int, traced, check bool, dir string) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	cmd := exec.CommandContext(ctx, self, "-worker", "-workload", workload,
		"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds),
		"-trace", traceArg, "-check="+strconv.FormatBool(check), "-dir", dir)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // no orphan if the benchmark is killed
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("worker: %w", err)
	}
	r := newResult()
	if err := json.Unmarshal(out, r); err != nil {
		return nil, fmt.Errorf("worker output: %w", err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, errors.New("worker rusage unavailable")
	}
	r.sample("peak_rss_bytes", float64(ru.Maxrss*1024)) // Linux reports KiB
	return r, nil
}

// report prints the human-readable detail (environment, every sample set
// with its median, tail and count, the traced run's self times) and then
// the one-line JSON result.
func report(r *result, e env, workload string, seed int64, seconds int, traced bool, tracePath string) error {
	envJSON, _ := json.Marshal(e)
	fmt.Printf("# env %s\n", envJSON)
	fmt.Printf("# workload %s seed %d seconds %d trace %v: %d ops in %.3fs\n", workload, seed, seconds, traced, r.Ops, r.Elapsed)
	names := make([]string, 0, len(r.Samples))
	for n := range r.Samples {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := r.Samples[n]
		line := fmt.Sprintf("# %-28s median %-12.6g n=%d", n, median(v), len(v))
		if label, t, ok := tail(v); ok {
			line += fmt.Sprintf(" %s=%.6g", label, t)
		} else {
			line += " (no percentile has 10 samples beyond it)"
		}
		fmt.Println(line)
	}
	if workload == "daemon-mixed" {
		// Job, edit and query latency and job throughput under their
		// conventional names.
		for _, a := range [][2]string{{"job_p50_s", "anonymize_s"}, {"edit_job_p50_s", "edit_job_s"}, {"query_p50_s", "query_s"}} {
			v := r.Samples[a[1]]
			fmt.Printf("# %s %.6g s (n=%d)\n", a[0], median(v), len(v))
		}
		if label, t, ok := tail(r.Samples["anonymize_s"]); ok && label != "p50" {
			fmt.Printf("# job_%s_s %.6g s\n", label, t)
		}
		fmt.Printf("# jobs_per_s %.6g 1/s (fresh and edit jobs, %d in %.3fs)\n", float64(r.Ops)/r.Elapsed, r.Ops, r.Elapsed)
	}
	fmt.Printf("# failed_ratio %.6g (%d/%d)\n", float64(r.Failed)/float64(max(r.Attempted, 1)), r.Failed, r.Attempted)
	for _, msg := range r.Errors {
		fmt.Printf("# error: %s\n", msg)
	}
	if traced {
		selfNames := make([]string, 0, len(r.Self))
		for n := range r.Self {
			selfNames = append(selfNames, n)
		}
		sort.Strings(selfNames)
		for _, n := range selfNames {
			fmt.Printf("# self_s %-32s %.6f\n", n, r.Self[n])
		}
		fmt.Printf("# trace written to %s\n", tracePath)
	}

	metrics := map[string]any{}
	if traced {
		for _, m := range perLayer {
			metrics[m.name] = map[string]any{"value": r.Layers[m.name], "unit": m.unit}
		}
	} else {
		values := map[string]float64{
			"setup_s":        median(r.Samples["setup_s"]),
			"anonymize_s":    median(r.Samples["anonymize_s"]),
			"verify_s":       median(r.Samples["verify_s"]),
			"ops_per_s":      float64(r.Ops) / r.Elapsed,
			"peak_rss_bytes": median(r.Samples["peak_rss_bytes"]),
		}
		for _, m := range endToEnd {
			metrics[m.name] = map[string]any{"value": values[m.name], "unit": m.unit}
		}
	}
	attempted := max(r.Attempted, 1)
	failed := min(r.Failed, attempted)
	line, err := json.Marshal(map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	})
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(line))
	return nil
}
