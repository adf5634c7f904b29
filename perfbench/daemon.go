package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"confmask"
	"confmask/internal/config"
)

// The daemon-mixed workload drives a confmaskd child process over
// loopback HTTP, the way an external client does, with two closed-loop
// clients. Each loop iteration submits a fresh job and fetches its
// result, verifies it, resubmits a one-interface description edit with
// base_job "auto", and posts one query batch against the fresh job.

var daemonNets = []string{"Enterprise", "University", "Backbone", "FatTree04"}

const (
	daemonClients = 2
	// daemonSetupReps is how many times a run sets up; setup_s is the
	// median.
	daemonSetupReps = 15
	// editChecks is how many edit jobs per run are compared byte for byte
	// with a direct confmask.Anonymize of the edited input, after the
	// measured window.
	editChecks = 4
	// replayJobs is how many fresh jobs the traced run replays in process
	// to split a job into layer calls.
	replayJobs = 8
)

type daemonNet struct {
	name    string
	texts   map[string]string
	routers []string
	batch   []map[string]string
}

// loadDaemonNets renders the workload's networks and builds one query
// batch per network: reachability, waypoint, isolation and what-if
// predicates over the network's own hosts.
func loadDaemonNets() ([]*daemonNet, error) {
	var nets []*daemonNet
	for _, name := range daemonNets {
		texts, err := confmask.GenerateExample(name)
		if err != nil {
			return nil, err
		}
		cfg, err := config.ParseNetwork(texts)
		if err != nil {
			return nil, err
		}
		hosts, routers := cfg.Hosts(), cfg.Routers()
		var batch []map[string]string
		for i := 0; i < 4; i++ {
			src, dst := hosts[i%len(hosts)], hosts[(i+1+len(hosts)/2)%len(hosts)]
			via := routers[(i*7)%len(routers)]
			batch = append(batch,
				map[string]string{"kind": "reachability", "src": src, "dst": dst},
				map[string]string{"kind": "waypoint", "src": src, "dst": dst, "via": via},
				map[string]string{"kind": "isolation", "src": dst, "dst": src},
				map[string]string{"kind": "whatif", "src": src, "dst": dst, "fail_node": via})
		}
		nets = append(nets, &daemonNet{name: name, texts: texts, routers: routers, batch: batch})
	}
	return nets, nil
}

// editDescription returns texts with one interface description changed on
// router: a cosmetic edit the daemon can serve from the base job's
// checkpoint.
func editDescription(texts map[string]string, router string, n int) (map[string]string, error) {
	out := make(map[string]string, len(texts))
	for k, v := range texts {
		out[k] = v
	}
	lines := strings.Split(out[router], "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, " description ") {
			lines[i] = fmt.Sprintf("%s edit-%d", l, n)
			out[router] = strings.Join(lines, "\n")
			return out, nil
		}
	}
	return nil, fmt.Errorf("router %s has no interface description", router)
}

// daemon is a running confmaskd child.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	log    *os.File
	dir    string
	exited chan struct{} // closed once cmd.Wait has returned
}

// logWatcher copies the daemon's log to a file and sends the address from
// its "listening on" line.
type logWatcher struct {
	f    *os.File
	buf  []byte
	addr chan string
}

func (w *logWatcher) Write(p []byte) (int, error) {
	_, _ = w.f.Write(p) // the copy is for reading after a failure; losing it changes nothing measured
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := string(w.buf[:i])
		w.buf = w.buf[i+1:]
		if _, rest, ok := strings.Cut(line, " listening on "); ok && !strings.Contains(line, "pprof") {
			select {
			case w.addr <- strings.Fields(rest)[0]:
			default:
			}
		}
	}
}

// startDaemon starts confmaskd on a loopback port chosen by the kernel and
// waits until /healthz answers. An empty dataDir runs it in memory only.
func startDaemon(bin, dataDir, logPath string) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0", "-node-id", "perfbench"}
	if dataDir != "" {
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return nil, err
		}
		args = append(args, "-data-dir", dataDir)
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	watch := &logWatcher{f: logf, addr: make(chan string, 1)}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = watch
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // no orphan if the benchmark is killed
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, log: logf, dir: dataDir, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is read from ProcessState in stop
		close(d.exited)
	}()
	select {
	case a := <-watch.addr:
		d.base = "http://" + a
	case <-d.exited:
		d.stop()
		return nil, fmt.Errorf("confmaskd exited before listening (log %s)", logPath)
	case <-time.After(20 * time.Second):
		d.stop()
		return nil, errors.New("confmaskd did not announce its address within 20s")
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("confmaskd /healthz did not answer 200 within 20s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the daemon to drain and exit (SIGKILL
// after 30s), and returns its peak resident set size in bytes.
func (d *daemon) stop() int64 {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	d.log.Close()
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return ru.Maxrss * 1024
	}
	return 0
}

type jobStatus struct {
	ID           string     `json:"id"`
	State        string     `json:"state"`
	Error        string     `json:"error"`
	Created      time.Time  `json:"created"`
	Started      *time.Time `json:"started"`
	Finished     *time.Time `json:"finished"`
	ReusedStages []string   `json:"reused_stages"`
}

var httpClient = &http.Client{Timeout: 60 * time.Second}

func (d *daemon) submit(configs map[string]string, o confmask.Options, base string) (string, error) {
	body, err := json.Marshal(map[string]any{"configs": configs, "options": o, "base_job": base})
	if err != nil {
		return "", err
	}
	resp, err := httpClient.Post(d.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", fmt.Errorf("submit: decode: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit: HTTP %d (200 means a content-hash dedup)", resp.StatusCode)
	}
	return st.ID, nil
}

// follow reads the job's event stream until a terminal state and reports
// whether any event named reused stages.
func (d *daemon) follow(id string) (reused bool, err error) {
	resp, err := httpClient.Get(d.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var ev jobStatus
		if err := dec.Decode(&ev); err != nil {
			return reused, fmt.Errorf("events of %s ended before a terminal state: %v", id, err)
		}
		reused = reused || len(ev.ReusedStages) > 0
		switch ev.State {
		case "done":
			return reused, nil
		case "failed", "cancelled", "requeued":
			return reused, fmt.Errorf("job %s %s: %s", id, ev.State, ev.Error)
		}
	}
}

func (d *daemon) getJSON(path string, v any) error {
	resp, err := httpClient.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (d *daemon) result(id string) (map[string]string, error) {
	var res struct {
		Configs map[string]string `json:"configs"`
	}
	if err := d.getJSON("/v1/jobs/"+id+"/result", &res); err != nil {
		return nil, err
	}
	return res.Configs, nil
}

// query posts one batch and reads the NDJSON answers through the trailing
// stats line; an answer carrying an error fails the batch.
func (d *daemon) query(id string, batch []map[string]string) error {
	body, err := json.Marshal(map[string]any{"queries": batch})
	if err != nil {
		return err
	}
	resp, err := httpClient.Post(d.base+"/v1/jobs/"+id+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("query: HTTP %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	answers := 0
	for {
		var line struct {
			Error string          `json:"error"`
			Stats json.RawMessage `json:"stats"`
		}
		if err := dec.Decode(&line); err != nil {
			return fmt.Errorf("query: stream ended before the stats line: %v", err)
		}
		if line.Stats != nil {
			break
		}
		if line.Error != "" {
			return fmt.Errorf("query answer: %s", line.Error)
		}
		answers++
	}
	if answers != len(batch) {
		return fmt.Errorf("query: %d answers for %d predicates", answers, len(batch))
	}
	return nil
}

// jobRecord keeps what the post-run checks and the traced replay need.
type jobRecord struct {
	net        *daemonNet
	opts       confmask.Options
	input, out map[string]string
}

type daemonRun struct {
	bin, dir string
	nets     []*daemonNet
	seed     int64
	tr       *tracer
	rngs     []*rand.Rand // per client: edited routers
	orders   [][]int      // per client: network order

	mu          sync.Mutex
	fresh       []jobRecord // first fresh jobs of client 0, in order
	edits       []jobRecord // first edit jobs of client 0, in order
	edited      int         // edit jobs completed, whole run
	reused      int         // edit jobs that reported reused stages, whole run
	epochReused int         // edit jobs that reported reused stages, this epoch
	epochJobs   int         // jobs completed, this epoch
}

// runDaemon measures the daemon-mixed workload. The measured window is cut
// into epochs of epochIters loop iterations per client, each on a fresh
// in-memory confmaskd, so the daemon's retained state, and with it its
// peak RSS and its per-job scans, depends on the epoch size and not on how
// many jobs a run completes. Daemon restarts between epochs are not
// measured.
func runDaemon(bin, dir string, seed int64, seconds int, tr *tracer) (*result, error) {
	r := newResult()
	dr := &daemonRun{bin: bin, dir: dir, seed: seed, tr: tr}
	if err := os.Remove(filepath.Join(dir, fmt.Sprintf("daemon-seed%d.log", seed))); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	var d *daemon
	for i := 0; i < daemonSetupReps; i++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		var err error
		if dr.nets, err = loadDaemonNets(); err != nil {
			return nil, err
		}
		if d, err = dr.start(false); err != nil {
			return nil, err
		}
		o := confmask.DefaultOptions()
		o.Seed = -1 - int64(i) // warm-up job; never a base for measured edits
		id, err := d.submit(dr.nets[0].texts, o, "")
		if err == nil {
			_, err = d.follow(id)
		}
		if err == nil {
			_, err = d.result(id)
		}
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
		r.sample("setup_s", time.Since(t0).Seconds())
	}
	for c := 0; c < daemonClients; c++ {
		rng := rand.New(rand.NewSource(seed*1009 + int64(c)))
		// Each client cycles through the networks in its own seeded order,
		// so every run has the same job mix and the seed moves only the
		// order, the edited routers and the job seeds.
		dr.orders = append(dr.orders, rng.Perm(len(dr.nets)))
		dr.rngs = append(dr.rngs, rng)
	}

	window := time.Duration(seconds) * time.Second
	var measured time.Duration
	iter := 0
	for epoch := 0; epoch == 0 || measured < window; epoch++ {
		if epoch > 0 {
			var err error
			if d, err = dr.start(false); err != nil {
				return nil, err
			}
		}
		measured += dr.epoch(d, r, iter, epochIters, window-measured)
		iter += epochIters
		r.sample("peak_rss_bytes", float64(d.stop()))
	}
	r.Elapsed = measured.Seconds()
	dr.checkSamples(r)
	if tr != nil {
		if err := dr.layers(r, iter); err != nil {
			return nil, err
		}
	}
	return r, nil
}

const (
	// epochIters is how many loop iterations each client runs on one
	// daemon before the next epoch starts a fresh one.
	epochIters = 100
	// durableIters is how many loop iterations each client runs against
	// the durable daemon of a traced run.
	durableIters = 10
)

// start launches confmaskd; durable gives it a fresh -data-dir. Every
// daemon of a run appends to one log file.
func (dr *daemonRun) start(durable bool) (*daemon, error) {
	base := filepath.Join(dr.dir, fmt.Sprintf("daemon-seed%d", dr.seed))
	dataDir := ""
	if durable {
		dataDir = base + ".data"
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
	}
	dr.mu.Lock()
	dr.epochJobs, dr.epochReused = 0, 0
	dr.mu.Unlock()
	return startDaemon(dr.bin, dataDir, base+".log")
}

// epoch runs both clients against d for up to iters loop iterations each,
// numbered from first, stopping early once budget is spent, then checks
// the daemon's counters. It returns the time the clients ran.
func (dr *daemonRun) epoch(d *daemon, r *result, first, iters int, budget time.Duration) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < iters && time.Since(start) < budget; k++ {
				dr.iteration(d, r, c, first+k)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var m map[string]any
	if err := d.getJSON("/metrics", &m); err != nil {
		r.fail("metrics: %v", err)
	}
	num := func(k string) float64 { f, _ := m[k].(float64); return f }
	if v := num("jobs_deduped_total"); v != 0 {
		r.fail("jobs_deduped_total = %g, want 0 (every submission is distinct)", v)
	}
	dr.mu.Lock()
	defer dr.mu.Unlock()
	if v := num("jobs_incremental_total"); int(v) != dr.epochReused {
		r.fail("jobs_incremental_total = %g but %d edit jobs reported reused stages", v, dr.epochReused)
	}
	r.sample("service.incremental_fallbacks", num("incremental_fallbacks_total"))
	if q := num("queries_total"); q > 0 {
		r.sample("query.cache_hit_ratio", num("query_cache_hits_total")/q)
	}
	return elapsed
}

// iteration is one pass of a closed-loop client. Odd iterations of a
// traced run record spans.
func (dr *daemonRun) iteration(d *daemon, r *result, c, iter int) {
	n := dr.nets[dr.orders[c][iter%len(dr.nets)]]
	router := n.routers[dr.rngs[c].Intn(len(n.routers))]
	o := confmask.DefaultOptions()
	o.Seed = dr.seed<<24 | int64(c)<<20 | int64(iter) // unique: no dedup
	traced := dr.tr != nil && iter%2 == 1
	op := c<<20 | iter
	tid := c + 1

	// Fresh job.
	r.add(&r.Attempted, 1)
	id, lat, out, _, err := dr.job(d, n.texts, o, "", traced, op, tid, "job.fresh")
	if err != nil {
		r.fail("client %d iter %d: fresh %s job: %v", c, iter, n.name, err)
		return
	}
	if traced {
		r.sample("trace.job_s", lat)
	} else {
		r.sample("anonymize_s", lat)
	}
	t0 := time.Now()
	if err := confmask.Verify(n.texts, out); err != nil {
		r.fail("client %d iter %d: verify %s: %v", c, iter, n.name, err)
		return
	}
	r.sample("verify_s", time.Since(t0).Seconds())
	r.add(&r.Ops, 1)

	// Cosmetic edit resubmitted against the fresh job.
	r.add(&r.Attempted, 1)
	edited, err := editDescription(n.texts, router, iter)
	if err != nil {
		r.fail("client %d iter %d: %v", c, iter, err)
		return
	}
	_, lat, eout, reused, err := dr.job(d, edited, o, "auto", traced, op, tid, "job.edit")
	if err != nil {
		r.fail("client %d iter %d: edit %s job: %v", c, iter, n.name, err)
		return
	}
	r.sample("edit_job_s", lat)
	r.add(&r.Ops, 1)
	dr.mu.Lock()
	dr.edited++
	if reused {
		dr.reused++
		dr.epochReused++
	}
	if c == 0 && len(dr.fresh) < replayJobs {
		dr.fresh = append(dr.fresh, jobRecord{n, o, n.texts, out})
	}
	if c == 0 && len(dr.edits) < editChecks {
		dr.edits = append(dr.edits, jobRecord{n, o, edited, eout})
	}
	dr.mu.Unlock()

	// One verification query batch against the fresh job.
	r.add(&r.Attempted, 1)
	tr := dr.tracerIf(traced)
	s := tr.begin("query.batch", "query", op, tid, -1)
	t0 = time.Now()
	err = d.query(id, n.batch)
	q := time.Since(t0).Seconds()
	tr.end(s)
	if err != nil {
		r.fail("client %d iter %d: query %s: %v", c, iter, n.name, err)
		return
	}
	r.sample("query_s", q)
	r.sample("query.predicates", float64(len(n.batch)))
}

func (dr *daemonRun) tracerIf(traced bool) *tracer {
	if traced {
		return dr.tr
	}
	return nil
}

// job submits one job, follows it to a terminal state and fetches the
// result, returning the latency from submit to fetched result. Traced, it
// also records the submit, wait and result calls as spans and reads the
// daemon's own timestamps for the job's queue wait and run time.
func (dr *daemonRun) job(d *daemon, configs map[string]string, o confmask.Options, base string, traced bool, op, tid int, name string) (string, float64, map[string]string, bool, error) {
	tr := dr.tracerIf(traced)
	t0 := time.Now()
	root := tr.begin(name, "service", op, tid, -1)
	s := tr.begin("service.submit", "service", op, tid, root)
	id, err := d.submit(configs, o, base)
	tr.end(s)
	if err != nil {
		return "", 0, nil, false, err
	}
	s = tr.begin("service.wait", "service", op, tid, root)
	reused, err := d.follow(id)
	tr.end(s)
	if err != nil {
		return "", 0, nil, false, err
	}
	s = tr.begin("service.result", "service", op, tid, root)
	out, err := d.result(id)
	tr.end(s)
	tr.end(root)
	lat := time.Since(t0).Seconds()
	if err != nil {
		return "", 0, nil, false, err
	}
	dr.mu.Lock()
	dr.epochJobs++
	dr.mu.Unlock()
	if tr != nil {
		var st jobStatus
		if err := d.getJSON("/v1/jobs/"+id, &st); err != nil {
			return "", 0, nil, false, err
		}
		if st.Started != nil && st.Finished != nil {
			tr.add(span{Name: "service.queue_wait", Cat: "service", Op: op, Tid: tid, Pid: 2, Parent: -1, Start: st.Created, End: *st.Started})
			tr.add(span{Name: "service.run", Cat: "service", Op: op, Tid: tid, Pid: 2, Parent: -1, Start: *st.Started, End: *st.Finished})
		}
	}
	return id, lat, out, reused, nil
}

// checkSamples runs the untimed output checks on the jobs kept from the
// measured window. The first fresh results get the output-only guarantee
// checks; those and the first edit results must be byte-identical to a
// direct confmask.Anonymize of their input under the same options, which
// is what the service promises; edit results must also pass Verify
// against their edited input.
func (dr *daemonRun) checkSamples(r *result) {
	sameAsDirect := func(kind string, j jobRecord) {
		want, _, err := confmask.Anonymize(j.input, j.opts)
		if err != nil {
			r.fail("direct anonymize of %s %s input: %v", kind, j.net.name, err)
		} else if configsHash(want) != configsHash(j.out) {
			r.fail("%s %s job (seed %d): daemon result differs from a direct confmask.Anonymize", kind, j.net.name, j.opts.Seed)
		}
	}
	for i, j := range dr.fresh {
		if i >= editChecks {
			break
		}
		for _, e := range checkOutput(j.input, j.out, j.opts.KR, j.opts.KH) {
			r.fail("fresh %s job (seed %d): %s", j.net.name, j.opts.Seed, e)
		}
		sameAsDirect("fresh", j)
	}
	for _, j := range dr.edits {
		if err := confmask.Verify(j.input, j.out); err != nil {
			r.fail("edit %s job (seed %d): %v", j.net.name, j.opts.Seed, err)
		}
		sameAsDirect("edit", j)
	}
}

// layers fills the traced run's per-layer metrics: service and query
// figures from the measured loop; journal figures from a short epoch
// against a durable daemon; and config, sim, kdegree and anonymize figures
// from an in-process replay of the first fresh jobs with the checkpoint
// callback set, as the daemon runs them.
func (dr *daemonRun) layers(r *result, iter int) error {
	tr := dr.tr
	m := map[string]float64{}
	for _, name := range []string{"service.submit", "service.result", "service.queue_wait", "service.run"} {
		m[name+"_s"] = median(tr.durations(name))
	}
	m["service.edit_job_s"] = median(r.Samples["edit_job_s"])
	if dr.edited > 0 {
		m["service.edit_reuse_ratio"] = float64(dr.reused) / float64(dr.edited)
	}
	m["service.incremental_fallbacks"] = median(r.Samples["service.incremental_fallbacks"])
	m["query.batch_s"] = median(r.Samples["query_s"])
	m["query.cache_hit_ratio"] = median(r.Samples["query.cache_hit_ratio"])
	total, preds := 0.0, 0.0
	for i, q := range r.Samples["query_s"] {
		total += q
		preds += r.Samples["query.predicates"][i]
	}
	if total > 0 {
		m["query.predicates_per_s"] = preds / total
	}

	d, err := dr.start(true)
	if err != nil {
		return err
	}
	dur := newResult()
	dr.epoch(d, dur, iter, durableIters, time.Hour)
	d.stop()
	for _, e := range dur.Errors {
		r.fail("durable epoch: %s", e)
	}
	if dr.epochJobs > 0 {
		m["service.journal_bytes_per_job"] = float64(dirSize(d.dir)) / float64(dr.epochJobs)
	}
	m["service.durable_job_s"] = median(dur.Samples["anonymize_s"])
	if err := os.RemoveAll(d.dir); err != nil {
		return err
	}

	for i, j := range dr.fresh {
		op := 1<<30 | i
		out, err := replayOp(tr, op, j.input, j.opts, true, true, r)
		if err != nil {
			r.fail("replay of %s job: %v", j.net.name, err)
		} else if configsHash(out) != configsHash(j.out) {
			r.fail("replay of %s job (seed %d) differs from the daemon's result", j.net.name, j.opts.Seed)
		}
	}
	for k, v := range pipelineLayers(tr, r) {
		m[k] = v
	}
	m["trace.op_s"] = median(r.Samples["trace.job_s"])
	m["trace.untraced_op_s"] = median(r.Samples["anonymize_s"])
	m["trace.overhead_s"] = m["trace.op_s"] - m["trace.untraced_op_s"]
	jobs, children := tr.childSum("job.fresh")
	m["trace.unattributed_s"] = median(jobs) - median(children)
	r.Layers = m
	r.Self = tr.selfTimes()
	return nil
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
